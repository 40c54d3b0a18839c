"""The acceptance suite: every exit criterion as a callable check.

Each criterion pins its own grid, parameters, and tolerance; ``run_acceptance``
executes a selection and prints one pass/fail line per criterion, timed by the
registrar ``_criterion``.  The CLI ``verify`` subcommand and
``tests/test_acceptance.py`` both drive this module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import oracles  # independent naive-loop implementations
from .domains import DomainSpec, epsilon_falsifier, parse_domain
from .functionals import (BsvyParams, KernelPolicy, bbm_constant, bbm_limit_extrapolate,
                          bsvy_inner_profile, bsvy_sup, bsvy_values, gagliardo_seminorm_sweep)
from .grid import SampledField, TestFunctionSpec, make_grid, sample
from .spaces import (HerzLocal, HerzWeight, Lebesgue, Lorentz, MixedNorm, Morrey, Orlicz, OrliczFunction,
                     WeightedLebesgue, _unit_ball_volume, bbm_morrey_norm, dyadic_cover, herz_local_norm,
                     lorentz_norm, luxemburg_norm, mixed_norm, morrey_norm, norm)
from .weights import (anchored_cube_family, estimate_maximal_opnorm, explicit_weight, hl_maximal,
                      muckenhoupt_constant, power_weight, rubio_de_francia)
from .experiments import DEFAULT_S_GRID, ExperimentConfig, run_bsvy_experiment, run_weak_holder_suite

__all__ = ["AcceptanceResult", "CRITERIA", "run_acceptance"]


@dataclass
class AcceptanceResult:
    key: str
    description: str
    passed: bool
    measured: str
    tolerance: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.key}: {self.description} | measured {self.measured}"
                f" | tolerance {self.tolerance} | {self.seconds:.1f}s")


CRITERIA: dict = {}  # key -> callable returning an AcceptanceResult, in registration order


def _criterion(key: str, name: str, description: str, tolerance: str, seconds: float = math.inf):
    """Register a check returning ``(passed, measured)`` as criterion ``key``.

    The registered callable times the check and builds its result; the
    criterion passes only when the check passes within ``seconds``."""
    def register(check):
        def run() -> AcceptanceResult:
            t0 = time.perf_counter()
            passed, measured = check()
            dt = time.perf_counter() - t0
            return AcceptanceResult(name, description, bool(passed) and dt <= seconds, measured,
                                    tolerance, dt)

        CRITERIA[key] = run
        return run
    return register


def _bbm_limit(dim: int, npts: int, half: float, p: float, tol: float):
    """Extrapolated s -> 1 limit of (1-s) |f|_{W^{s,p}}^p for a unit gaussian on
    the box [-half, half]^dim against its target bbm_constant * || |grad f| ||_p^p,
    within the relative tolerance ``tol``."""
    grid = make_grid(dim, -half, half, npts)
    f = sample(TestFunctionSpec("gaussian", sigma=1.0, center=0.0), grid)
    semis = gagliardo_seminorm_sweep(f, DEFAULT_S_GRID, p)
    pairs = [(s, (1.0 - s) * g ** p) for s, g in zip(DEFAULT_S_GRID, semis)]
    est, _ = bbm_limit_extrapolate(pairs)
    gradp = float(np.sum(np.sum(f.analytic_gradient ** 2, axis=0) ** (p / 2)) * grid.cell_volume)
    ref = bbm_constant(p, dim) * gradp
    rel = abs(est - ref) / ref
    return rel <= tol, f"rel err {rel:.4f}"


_criterion("1", "bbm-1d-p1", "gradient-limit constant, n=1 p=1 (target 2 ||f'||_1)",
           "3% and 60 s", seconds=60.0)(lambda: _bbm_limit(1, 4096, 8.0, 1.0, 0.03))
_criterion("2", "bbm-1d-p2", "gradient-limit constant, n=1 p=2 (target ||f'||_2^2)",
           "3%")(lambda: _bbm_limit(1, 4096, 8.0, 2.0, 0.03))
_criterion("3", "bbm-2d-p2", "gradient-limit constant, n=2 p=2 (target pi/2 ||grad f||_2^2)",
           "5% and 10 min", seconds=600.0)(lambda: _bbm_limit(2, 128, 5.0, 2.0, 0.05))


@_criterion("4", "bsvy-desk", "level-set functional closed form 2 - 1/lambda on (0,1)",
            "1% profile, sup >= 1.99")
def criterion_4():
    grid = make_grid(1, 0.0, 1.0, 8192)
    f = sample(TestFunctionSpec("coordinate", axis=0), grid)
    params = BsvyParams(1.0, 1.0)
    space = Lebesgue(1.0)
    policy = KernelPolicy(near_window=160.0)
    lams = np.geomspace(2.0, 1000.0, 25)
    ref = 2.0 - 1.0 / lams
    worst = float(np.max(np.abs(bsvy_values(f, lams, params, space, None, policy) - ref) / ref))
    rep = bsvy_sup(f, params, space, None, policy)
    return worst <= 0.01 and rep.sup >= 1.99, f"max profile err {worst:.4f}, sup {rep.sup:.4f}"


@_criterion("5", "lorentz-indicator", "Lorentz norm of a measure-1/2 indicator, (r,tau)=(2,3)", "1%")
def criterion_5():
    grid = make_grid(1, 0.0, 1.0, 64)
    ind = (grid.coords()[:, 0] < 0.5).astype(float).reshape(grid.shape)
    f = SampledField(grid, ind)
    val = lorentz_norm(f, 2.0, 3.0)
    ref = (2.0 / 3.0) ** (1.0 / 3.0) * 0.5 ** 0.5
    rel = abs(val - ref) / ref
    return rel <= 0.01, f"rel err {rel:.2e}"


@_criterion("6", "muckenhoupt", "constant weight gives exactly 1; |x|^-1/2 gives 2", "exact and 2%")
def criterion_6():
    grid = make_grid(1, -2.0, 2.0, 4096)
    ones = explicit_weight(grid, np.ones(grid.shape))
    exact = all(muckenhoupt_constant(ones, p) == 1.0 for p in (1.0, 2.0, 3.0))
    w = power_weight(grid, -0.5, center=0.0)
    a1 = muckenhoupt_constant(w, 1.0, family=anchored_cube_family(grid, 0.0))
    rel = abs(a1 - 2.0) / 2.0
    return exact and rel <= 0.02, f"unit exact: {exact}, power rel err {rel:.4f}"


@_criterion("7", "majorant-iteration",
            "R_K g >= |g| and M(R_K g) <= 2c R_K g + eps_K, K=12, 5 probes",
            "cell-wise, eps_K <= 2^-(K+1) running norm")
def criterion_7():
    grid = make_grid(1, -4.0, 4.0, 256)
    probes = [
        TestFunctionSpec("gaussian", sigma=1.0, center=0.0),
        TestFunctionSpec("gaussian", sigma=0.5, center=0.7),
        TestFunctionSpec("tent", width=2.0, center=-0.5),
        TestFunctionSpec("bump", radius=1.5, center=0.0),
        TestFunctionSpec("polygauss", degree=2, sigma=1.0, center=0.0),
    ]
    space = Lebesgue(2.0)
    opnorm = max(estimate_maximal_opnorm(space, grid).value, 1.0)
    depth = 12
    ok = True
    details = []
    for spec in probes:
        g0 = sample(spec, grid)
        g = SampledField(grid, np.abs(g0.values))
        res = rubio_de_francia(g, space, opnorm, depth=depth)
        rg = res.weight.samples
        dom = bool(np.all(rg >= np.abs(g.values)))
        mrg = hl_maximal(rg, grid)
        slack = float(np.max(mrg - 2.0 * opnorm * rg))
        bound = bool(slack <= res.eps_tail + 1e-9 * np.max(rg))
        tailok = bool(res.eps_tail <= 2.0 ** (-(depth + 1)) * res.running_norm + 1e-300)
        ok = ok and dom and bound and tailok
        details.append(f"{spec.tag}:{'ok' if dom and bound and tailok else 'bad'}")
    return ok, ",".join(details)


@_criterion("8", "collapse-identities",
            "Orlicz power/Morrey(r,r)/Herz(p,p,0)/Lorentz(p,p)/uniform mixed all equal L^p",
            "1e-10 relative")
def criterion_8():
    checks = {}
    grid = make_grid(1, -2.0, 2.0, 32)
    f = sample(TestFunctionSpec("gaussian", sigma=1.0, center=0.1), grid)
    lp = norm(f, Lebesgue(2.5))
    checks["orlicz"] = abs(luxemburg_norm(f, OrliczFunction("power", 2.5)) - lp) / lp
    checks["morrey"] = abs(morrey_norm(f, 2.5, 2.5) - lp) / lp
    checks["herz"] = abs(
        herz_local_norm(f, 2.5, 2.5, HerzWeight(0.0), 0.0) - lp) / lp
    steps = np.zeros(grid.shape)
    steps[(grid.coords()[:, 0] > -1.0) & (grid.coords()[:, 0] < 0.0)] = 1.5
    steps[(grid.coords()[:, 0] >= 0.0) & (grid.coords()[:, 0] < 1.0)] = 0.5
    fs = SampledField(grid, steps)
    lps = norm(fs, Lebesgue(2.5))
    checks["lorentz"] = abs(lorentz_norm(fs, 2.5, 2.5) - lps) / lps
    g2 = make_grid(2, -2.0, 2.0, 16)
    f2 = sample(TestFunctionSpec("gaussian", sigma=1.0, center=0.0), g2)
    lp2 = norm(f2, Lebesgue(3.0))
    checks["mixed"] = abs(mixed_norm(f2, (3.0, 3.0)) - lp2) / lp2
    worst = max(checks.values())
    return worst <= 1e-10, f"worst rel dev {worst:.2e}"


@_criterion("9", "oracle-equivalence", "evaluators match naive double-loop oracles on small grids",
            "1e-12")
def criterion_9():
    devs = {}
    # Gagliardo seminorm, indicator on [-2, 3]
    grid = make_grid(1, -2.0, 3.0, 64)
    ind = ((grid.coords()[:, 0] > 0) & (grid.coords()[:, 0] < 1)).astype(float)
    f = SampledField(grid, ind.reshape(grid.shape))
    mine = gagliardo_seminorm_sweep(f, [0.25], 1.0, None, KernelPolicy(diagonal="exclude"))[0]
    ref = oracles.gagliardo(f.values.ravel(), grid.coords(), grid.cell_volume, 0.25, 1.0)
    devs["gagliardo"] = abs(mine - ref) / ref
    # level-set inner field, gaussian
    gridb = make_grid(1, -2.0, 2.0, 64)
    fb = sample(TestFunctionSpec("gaussian", sigma=1.0, center=0.0), gridb)
    inner = bsvy_inner_profile(fb, [1.0], BsvyParams(2.0, 2.0), None, KernelPolicy(diagonal="exclude"))[0]
    oin = oracles.level_set_inner(fb.values.ravel(), gridb.coords(), gridb.cell_volume,
                                  1.0, 2.0, 2.0)
    scale = float(np.max(np.abs(oin)))
    devs["bsvy-inner"] = float(np.max(np.abs(inner.ravel() - oin))) / scale
    # dyadic-cube space norm
    gridc = make_grid(1, 0.0, 1.0, 32)
    indc = (gridc.coords()[:, 0] > 0.0).astype(float).reshape(gridc.shape)
    fc = SampledField(gridc, indc)
    mine_c = bbm_morrey_norm(fc, 2.0, 3.0, 4.0, math.inf, nu_range=(-3, 3))
    ref_c = oracles.bbm_morrey(fc.values.ravel(), gridc.coords(), gridc.cell_volume,
                               2.0, 3.0, 4.0, math.inf, (-3, 3))
    devs["bbmorrey"] = abs(mine_c - ref_c) / ref_c
    # Herz local norm
    gridh = make_grid(1, -2.0, 2.0, 64)
    indh = (np.abs(gridh.coords()[:, 0]) < 1.0).astype(float).reshape(gridh.shape)
    fh = SampledField(gridh, indh)
    mine_h = herz_local_norm(fh, 2.0, 2.0, HerzWeight(1.0), 0.0)
    ref_h = oracles.herz_local(fh.values.ravel(), gridh.coords(), gridh.cell_volume,
                               2.0, 2.0, 1.0, 0.0)
    devs["herz"] = abs(mine_h - ref_h) / ref_h
    worst = max(devs.values())
    return worst <= 1e-12, ",".join(f"{k}={v:.1e}" for k, v in devs.items())


@_criterion("10", "weak-holder", "100 random pair-field instances satisfy the weak Hoelder bound",
            "100 passes")
def criterion_10():
    cfg = ExperimentConfig(kind="weak-holder", grid=make_grid(1, 0.0, 1.0, 16), seed=20260809)
    summary, _ = run_weak_holder_suite(cfg, instances=100, gamma=1.0)
    return (summary["passes"] == summary["instances"],
            f"{summary['passes']}/{summary['instances']} (trivial {summary['trivial']})")


_COVER_DIM = 2
_COVER_BOUND = (6.0 * math.sqrt(_COVER_DIM)) ** _COVER_DIM  # |Q|/|B| <= (6 sqrt(n))^n for a shifted dyadic cube


@_criterion("11", "dyadic-cover", "200 random balls each inside a shifted dyadic cube of bounded volume",
            f"|Q|/|B| <= {_COVER_BOUND:.1f}, zero failures")
def criterion_11():
    rng = np.random.default_rng(11)
    n = _COVER_DIM
    vball = _unit_ball_volume(n)
    failures = 0
    worst = 0.0
    for _ in range(200):
        c = rng.uniform(-10.0, 10.0, size=n)
        r = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        hit = dyadic_cover(c, r)
        if hit is None:
            failures += 1
            continue
        ratio = hit[1].volume / (vball * r ** n)
        worst = max(worst, ratio)
        if ratio > _COVER_BOUND:
            failures += 1
    return failures == 0, f"failures {failures}, worst |Q|/|B| {worst:.2f}"


_EQ_FUNCTIONS_1D = (
    TestFunctionSpec("gaussian", sigma=1.0, center=0.0),
    TestFunctionSpec("gaussian", sigma=0.6, center=0.3),
    TestFunctionSpec("tent", width=1.5, center=0.0),
    TestFunctionSpec("bump", radius=1.2, center=0.0),
    TestFunctionSpec("polygauss", degree=1, sigma=1.0, center=0.0),
)

_EQ_SPACES_1D = (
    Lebesgue(2.0),
    WeightedLebesgue(3.0, a=-0.3, center=0.0),
    Lorentz(3.0, 2.5),
    Orlicz(OrliczFunction("two-power", 2.5, 3.0)),
    Morrey(2.0, 4.0),
    HerzLocal(2.5, 2.5, -0.2, xi=0.0),
)

_EQ_DOMAINS = ("full", "ball:radius=1.3", "halfspace:axis=0,offset=-0.4")
_EQ_GAMMAS = (1.0, 2.0, -1.0)
_EQ_POLICY = KernelPolicy(near_window=2.5, subsample=8, subsample_window=8.0)


@_criterion("12", "equivalence-bracket",
            "sup/gradient-norm ratios bracketed (width <= 10) and refinement-stable (10%)",
            "c2/c1 <= 10 and 10% under N -> 2N")
def criterion_12():
    worst_width = worst_delta = 0.0
    failures = []
    for dim, npts, spaces in ((1, 64, _EQ_SPACES_1D), (2, 16, (MixedNorm((2.5, 3.0)),))):
        grid = make_grid(dim, -2.0, 2.0, npts)
        for dom_txt in _EQ_DOMAINS:
            dom = None if dom_txt == "full" else parse_domain(dom_txt, box=(grid.lo, grid.hi))
            cfg = ExperimentConfig("bsvy", grid, list(_EQ_FUNCTIONS_1D), list(spaces), dom,
                                   _EQ_GAMMAS, p=2.0, policy=_EQ_POLICY)
            summary = run_bsvy_experiment(cfg)[1]
            if len(summary) != len(spaces) * len(_EQ_GAMMAS):  # one bracket per (space, gamma)
                failures.append(f"{len(summary)} brackets @ {dom_txt}")
            for key, agg in summary.items():
                worst_width = max(worst_width, agg["width"])
                worst_delta = max(worst_delta, agg["delta"])
                if agg["width"] > 10.0 or agg["delta"] > 0.10:
                    failures.append(f"width {agg['width']:.1f}, delta {agg['delta']:.2f} @ {key},{dom_txt}")
    return not failures, (f"worst width {worst_width:.2f}, worst refine delta {worst_delta:.3f};"
                          + ("; ".join(failures[:3]) if failures else ""))


@_criterion("13", "epsilon-falsifier", "slit box refuted at eps in {0.1,0.5,1}; ball and half-space clean",
            "refuted / not-refuted at 1e4 samples")
def criterion_13():
    box = ((-1.0, -1.0), (1.0, 1.0))
    slit = DomainSpec("slitbox", box=box, axis=0, pos=0.1234, start=0.0)
    refuted = all(
        epsilon_falsifier(slit, e, 200, seed=13).verdict == "refuted"
        for e in (0.1, 0.5, 1.0))
    ball = DomainSpec("ball", center=(0.0, 0.0), radius=1.0)
    half = DomainSpec("halfspace", box=box, axis=0, offset=0.0)
    clean = all(
        epsilon_falsifier(dom, 0.5, 10_000, seed=13).verdict == "not-refuted"
        for dom in (ball, half))
    return refuted and clean, f"slit refuted: {refuted}, convex clean: {clean}"


def run_acceptance(keys=None) -> list[AcceptanceResult]:
    results = []
    for key in (keys or CRITERIA.keys()):
        res = CRITERIA[str(key)]()
        results.append(res)
        print(res.line(), flush=True)
    return results
