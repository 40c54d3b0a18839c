"""The benchmark's workloads: seeded inputs, timed items and their checks.

A workload is a list of items.  Each item is one call (or one short chain of
calls) into normlab on inputs built beforehand, plus a check that judges the
item's output outside the timed region.  ``build(name, seed, tmpdir)`` makes
every grid, sampled field and mask a workload needs; the seed jitters
test-function centres, widths and exponents inside ranges where the checks
hold, so the program sees different inputs per seed.  Items whose output has
no closed form or oracle yet run on fixed inputs and are compared with values
recorded in ``recorded.json``.

normlab is always reached through module attributes (``F.bsvy_sup``), so the
tracer's wrappers see the benchmark's own calls as well as the package's.
The one exception is a per-kind evaluator called directly from
``normlab.spaces`` (the oracle item ``S.bbm_morrey_norm``): the tracer wraps
those only outside their home module, so its time counts in
``other.self_s``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import normlab.cli as CLI
import normlab.domains as D
import normlab.experiments as E
import normlab.functionals as F
import normlab.grid as G
import normlab.oracles as O
import normlab.spaces as S
import normlab.weights as W

ROOT = Path(__file__).resolve().parent.parent
RECORDED_PATH = Path(__file__).resolve().parent / "recorded.json"
S_GRID = (0.60, 0.70, 0.80, 0.875, 0.925, 0.95)

# relative tolerances; the acceptance suite pins the first five
TOL_BBM_1D = 0.03
TOL_BBM_2D = 0.05
TOL_PROFILE = 0.01
TOL_COLLAPSE = 1e-10
TOL_ORACLE = 1e-12
TOL_RECORDED = 1e-9


@dataclass
class Item:
    label: str
    sizes: dict
    run: Callable[[], Any]
    check: Callable[[Any], str | None] | None = None


@dataclass
class Workload:
    name: str
    items: list[Item]
    # (outputs of one pass) -> {item index: failure reason}
    group_check: Callable[[list], dict[int, str]] | None = None


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0 else abs(a - b)


def _within(value: float, ref: float, tol: float, what: str) -> str | None:
    if not (math.isfinite(value) and math.isfinite(ref)):
        return f"{what}: non-finite value {value!r} vs {ref!r}"
    err = _rel(value, ref)
    return None if err <= tol else f"{what}: rel err {err:.3e} > {tol:g}"


def _lp(values: np.ndarray, vol: float, p: float) -> float:
    return math.fsum((np.abs(values.ravel()) ** p * vol).tolist()) ** (1.0 / p)


def _jit(rng, base: float, rel: float) -> float:
    return float(base * rng.uniform(1.0 - rel, 1.0 + rel))


def _shift(rng, base: float, amount: float) -> float:
    return float(base + rng.uniform(-amount, amount))


def _fn_spec(kind: str, params: dict, rng, dim: int) -> "G.TestFunctionSpec":
    """Jitter the width parameter by 5% and the centre by 0.05 per axis."""
    p = dict(params)
    for key in ("sigma", "width", "radius"):
        if key in p:
            p[key] = _jit(rng, p[key], 0.05)
    if "center" in p:
        c = p["center"]
        p["center"] = (_shift(rng, c, 0.05) if dim == 1
                       else tuple(_shift(rng, c, 0.05) for _ in range(dim)))
    return G.TestFunctionSpec(kind, **p)


def _once(compute: Callable[[], Any]) -> Callable[[], Any]:
    """Memoised reference value, computed at its first check (never in set-up)."""
    cache: list = []

    def get():
        if not cache:
            cache.append(compute())
        return cache[0]
    return get


def _load_recorded() -> dict:
    return json.loads(RECORDED_PATH.read_text())


def _recorded_check(label: str, recorded: dict):
    def check(value):
        if label not in recorded:
            return f"no recorded value for {label!r}"
        return _within(float(value), recorded[label], TOL_RECORDED, "recorded value")
    return check


def _cli_item(label: str, config: str, command: str, seed: int, tmpdir: Path, check_rows):
    """One CLI run into a fresh temp dir; the check also demands byte-identical
    output across passes, since identical config and seed must reproduce."""
    first: dict[str, bytes] = {}
    cfg_path = ROOT / "configs" / config

    def run():
        out = tempfile.mkdtemp(prefix="cli-", dir=tmpdir)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = CLI.main(["--config", str(cfg_path), "--out", out, "--seed", str(seed), command])
        return rc, out

    def check(res):
        rc, out = res
        try:
            if rc != 0:
                return f"exit code {rc}"
            files = {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}
            if not first:
                first.update(files)
            elif files != first:
                return "output differs from the first pass"
            csv_name = next((n for n in files if n.endswith(".csv")), None)
            if csv_name is None:
                return "no CSV written"
            rows = list(csv.DictReader(io.StringIO(files[csv_name].decode())))
            return check_rows(rows)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return Item(label, {"config": config}, run, check)


# ---------------------------------------------------------------------------
# levelset-bracket
# ---------------------------------------------------------------------------

# criterion 12's problem set, restated from the acceptance suite's parameters
EQ_FUNCTIONS = (
    ("gaussian", {"sigma": 1.0, "center": 0.0}),
    ("gaussian", {"sigma": 0.6, "center": 0.3}),
    ("tent", {"width": 1.5, "center": 0.0}),
    ("bump", {"radius": 1.2, "center": 0.0}),
    ("polygauss", {"degree": 1, "sigma": 1.0, "center": 0.0}),
)
EQ_SPACES_1D = (
    lambda: S.Lebesgue(2.0),
    lambda: S.WeightedLebesgue(3.0, a=-0.3, center=0.0),
    lambda: S.Lorentz(3.0, 2.5),
    lambda: S.Orlicz(S.OrliczFunction("two-power", 2.5, 3.0)),
    lambda: S.Morrey(2.0, 4.0),
    lambda: S.HerzLocal(2.5, 2.5, -0.2, xi=0.0),
)
EQ_DOMAINS = ("full", "ball:radius=1.3", "halfspace:axis=0,offset=-0.4")
EQ_GAMMAS = (1.0, 2.0, -1.0)
EQ_FNS_1D = 3  # functions per 1D group, rotating through EQ_FUNCTIONS
EQ_FNS_2D = (0, 2)  # gaussian sigma=1 and tent for the 2D group
EQ_P = 2.0
EQ_WIDTH = 10.0
EQ_DELTA = 0.10


def _eq_policy():
    return F.KernelPolicy(near_window=2.5, subsample=8, subsample_window=8.0)


def _levelset(seed: int, tmpdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    policy = _eq_policy()
    items: list[Item] = []
    groups: list[list[tuple[int, int, str]]] = []  # per group: (item idx, fn idx, scale)

    def add_group(dim, npts, space, gamma, dom_txt, fns):
        members = []
        specs = [_fn_spec(*EQ_FUNCTIONS[i], rng, dim) for i in fns]
        for n, scale in ((npts, "coarse"), (2 * npts, "fine")):
            grid = G.make_grid(dim, -2.0, 2.0, n)
            omega = None if dom_txt == "full" else D.mask(
                D.parse_domain(dom_txt, box=(grid.lo, grid.hi)), grid)
            for j, spec in enumerate(specs):
                f = G.sample(spec, grid)
                params = F.BsvyParams(gamma, EQ_P)

                def run(f=f, space=space, omega=omega, params=params):
                    ref = F.sobolev_norm(f, space, omega)
                    rep = F.bsvy_sup(f, params, space, omega, policy)
                    return rep.sup, ref, rep.extended

                label = (f"sup {dim}D N={n} {spec.canonical()} {space.canonical()} "
                         f"gamma={gamma} {dom_txt}")
                sizes = {"dim": dim, "N": n, "cells": grid.total_cells}
                members.append((len(items), j, scale))
                items.append(Item(label, sizes, run))
        groups.append(members)

    # 1D: every (gamma, domain) pair once, spaces assigned cyclically so each
    # of the six spaces appears, three of the five functions per group in
    # rotation; 2D: criterion 12's MixedNorm at 16^2 / 32^2 on two functions.
    # The subset is fixed, so every seed runs the same amount of work.
    combos = [(g, d) for g in EQ_GAMMAS for d in EQ_DOMAINS]
    n_fn = len(EQ_FUNCTIONS)
    for k, (gamma, dom_txt) in enumerate(combos):
        add_group(1, 64, EQ_SPACES_1D[k % len(EQ_SPACES_1D)](), gamma, dom_txt,
                  [(k + j) % n_fn for j in range(EQ_FNS_1D)])
    add_group(2, 16, S.MixedNorm((2.5, 3.0)), 1.0, "ball:radius=1.3", EQ_FNS_2D)

    def group_check(outputs) -> dict[int, str]:
        bad: dict[int, str] = {}
        for members in groups:
            ratio = {}
            for idx, j, scale in members:
                out = outputs[idx]
                if out is None:
                    continue
                sup, ref, _ = out
                if not (ref > 0 and math.isfinite(sup) and sup > 0):
                    bad[idx] = f"degenerate ratio sup={sup!r} ref={ref!r}"
                    continue
                ratio[(j, scale)] = sup / ref
            fine = [v for (j, s), v in ratio.items() if s == "fine"]
            if fine and max(fine) / min(fine) > EQ_WIDTH:
                for idx, _, _ in members:
                    bad.setdefault(idx, f"bracket width {max(fine) / min(fine):.2f} > {EQ_WIDTH}")
            for idx, j, scale in members:
                if (j, "fine") in ratio and (j, "coarse") in ratio:
                    delta = abs(ratio[(j, "fine")] - ratio[(j, "coarse")]) / ratio[(j, "fine")]
                    if delta > EQ_DELTA:
                        bad.setdefault(idx, f"refinement delta {delta:.3f} > {EQ_DELTA}")
        return bad

    # oracle item: exclude-policy inner field against the naive double loop
    grid = G.make_grid(1, -2.0, 2.0, 64)
    fo = G.sample(_fn_spec("gaussian", {"sigma": 1.0, "center": 0.0}, rng, 1), grid)
    lams = np.array([0.5, 1.0, 2.0])
    oparams = F.BsvyParams(2.0, 2.0)
    exclude = F.KernelPolicy(diagonal="exclude")
    oracle_rows = _once(lambda: [O.level_set_inner(fo.values.ravel(), grid.coords(),
                                                   grid.cell_volume, float(lam), 2.0, 2.0)
                                 for lam in lams])

    def oracle_check(inner):
        worst = max(float(np.max(np.abs(inner[i].ravel() - ref))) / float(np.max(np.abs(ref)))
                    for i, ref in enumerate(oracle_rows()))
        return None if worst <= TOL_ORACLE else f"oracle deviation {worst:.2e}"

    items.append(Item("inner_profile exclude 1D N=64 vs oracle", {"dim": 1, "N": 64, "lambdas": 3},
                      lambda: F.bsvy_inner_profile(fo, lams, oparams, None, exclude),
                      oracle_check))

    def bsvy_rows(rows):
        if len(rows) != 27:
            return f"expected 27 rows, got {len(rows)}"
        brackets: dict[tuple, list[float]] = {}
        for r in rows:
            ratio = float(r["ratio"])
            if not (math.isfinite(ratio) and ratio > 0):
                return f"bad ratio {r['ratio']}"
            for tok in r["flags"].split(";"):
                if tok.startswith("refine_delta=") and float(tok.split("=")[1]) > EQ_DELTA:
                    return f"refinement delta {tok} in {r['function']}"
            brackets.setdefault((r["space"], r["gamma_or_s"]), []).append(ratio)
        worst = max(max(v) / min(v) for v in brackets.values())
        return None if worst <= EQ_WIDTH else f"bracket width {worst:.2f}"

    items.append(_cli_item("cli bsvy configs/bsvy_demo.ini", "bsvy_demo.ini", "bsvy", seed,
                           tmpdir, bsvy_rows))
    return Workload("levelset-bracket", items, group_check)


# ---------------------------------------------------------------------------
# pair-kernel-large
# ---------------------------------------------------------------------------


N_CRIT4 = 2048  # criterion 4's grid; its bsvy_sup grows faster than N


def _extrapolated(pairs) -> float:
    return F.bbm_limit_extrapolate(pairs)[0]


def _pair_kernel(seed: int, tmpdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    items: list[Item] = []

    def gauss(dim, sigma_rel=0.1, shift=0.25):
        c = _shift(rng, 0.0, shift) if dim == 1 else tuple(_shift(rng, 0.0, shift) for _ in range(dim))
        return G.TestFunctionSpec("gaussian", sigma=_jit(rng, 1.0, sigma_rel), center=c)

    # criteria 1-3: s-sweeps with the extrapolated gradient limit (two seeded
    # gaussians per 1D case)
    for dim, npts, half, p, tol in ((1, 4096, 8.0, 1.0, TOL_BBM_1D), (1, 4096, 8.0, 1.0, TOL_BBM_1D),
                                    (1, 4096, 8.0, 2.0, TOL_BBM_1D), (1, 4096, 8.0, 2.0, TOL_BBM_1D),
                                    (2, 128, 5.0, 2.0, TOL_BBM_2D)):
        grid = G.make_grid(dim, -half, half, npts)
        spec = gauss(dim)
        f = G.sample(spec, grid)
        gradp = float(np.sum(np.sum(f.analytic_gradient ** 2, axis=0) ** (p / 2)) * grid.cell_volume)
        ref = F.bbm_constant(p, dim) * gradp

        def check(semis, p=p, ref=ref, tol=tol):
            pairs = [(s, (1.0 - s) * g ** p) for s, g in zip(S_GRID, semis)]
            return _within(_extrapolated(pairs), ref, tol, "gradient limit")

        items.append(Item(f"gagliardo sweep {dim}D N={npts} p={p:g} {spec.canonical()}",
                          {"dim": dim, "N": npts, "cells": grid.total_cells, "s_values": len(S_GRID)},
                          lambda f=f, p=p: F.gagliardo_seminorm_sweep(f, S_GRID, p), check))

    # scaled fractional value in a non-Lebesgue X, one item per s
    grid = G.make_grid(1, -8.0, 8.0, 4096)
    fx = G.sample(gauss(1), grid)
    X = S.Lorentz(3.0, 2.5)
    first = len(items)
    for s in S_GRID:
        items.append(Item(f"bbm_scaled_value 1D N=4096 {X.canonical()} s={s}",
                          {"dim": 1, "N": 4096}, lambda s=s: F.bbm_scaled_value(fx, s, 2.0, X)))
    scaled_idx = list(range(first, len(items)))
    scaled_ref = _once(lambda: F.bbm_constant(2.0, 1) ** 0.5 * F.sobolev_norm(fx, X))

    # criterion 4: closed-form profile 2 - 1/lambda on (0, 1), then the sup
    grid4 = G.make_grid(1, 0.0, 1.0, N_CRIT4)
    f4 = G.sample(G.TestFunctionSpec("coordinate", axis=0), grid4)
    params4 = F.BsvyParams(1.0, 1.0)
    space4 = S.Lebesgue(1.0)
    policy4 = F.KernelPolicy(near_window=160.0)
    lams = np.sort(np.exp(rng.uniform(math.log(2.0), math.log(1000.0), 10)))
    for lam in lams:
        lam = float(lam)
        items.append(Item(f"bsvy_functional 1D N={N_CRIT4} lambda={lam:.4g}", {"dim": 1, "N": N_CRIT4},
                          lambda lam=lam: F.bsvy_functional(f4, lam, params4, space4, None, policy4),
                          lambda v, lam=lam: _within(v, 2.0 - 1.0 / lam, TOL_PROFILE, "profile")))
    items.append(Item(f"bsvy_sup 1D N={N_CRIT4} coordinate", {"dim": 1, "N": N_CRIT4},
                      lambda: F.bsvy_sup(f4, params4, space4, None, policy4).sup,
                      lambda v: None if v >= 1.99 else f"sup {v:.4f} < 1.99"))

    # oracle item: exclude-policy seminorm of an indicator against the double loop
    grido = G.make_grid(1, -2.0, 3.0, 64)
    x = grido.coords()[:, 0]
    a, b = _shift(rng, 0.0, 0.2), _shift(rng, 1.0, 0.2)
    fo = G.SampledField(grido, ((x > a) & (x < b)).astype(float).reshape(grido.shape))
    oracle = _once(lambda: O.gagliardo(fo.values.ravel(), grido.coords(), grido.cell_volume,
                                       0.25, 1.0))

    def oracle_check(v):
        return _within(v, oracle(), TOL_ORACLE, "oracle")

    items.append(Item("gagliardo exclude 1D N=64 vs oracle", {"dim": 1, "N": 64},
                      lambda: F.gagliardo_seminorm_sweep(fo, [0.25], 1.0, None,
                                                         F.KernelPolicy(diagonal="exclude"))[0],
                      oracle_check))

    def bbm_rows(rows):
        if len(rows) != 2:
            return f"expected 2 rows, got {len(rows)}"
        for r in rows:
            err = abs(float(r["ratio"]) - 1.0)
            if not err <= TOL_BBM_1D:
                return f"ratio {r['ratio']} off 1 by more than {TOL_BBM_1D}"
        return None

    items.append(_cli_item("cli bbm configs/bbm_demo.ini", "bbm_demo.ini", "bbm", seed, tmpdir, bbm_rows))

    def group_check(outputs):
        vals = [outputs[i] for i in scaled_idx]
        if any(v is None for v in vals):
            return {}
        reason = _within(_extrapolated(list(zip(S_GRID, vals))), scaled_ref(), TOL_BBM_1D,
                         "scaled limit in X")
        return {} if reason is None else {i: reason for i in scaled_idx}

    return Workload("pair-kernel-large", items, group_check)


# ---------------------------------------------------------------------------
# ball-cube-2d
# ---------------------------------------------------------------------------


def _bbm_morrey_reference(values: np.ndarray, grid, q, p, r, tau) -> float:
    """Unshifted dyadic assembly by binning cell centres (lo < x <= hi) per level."""
    nu_min = math.floor(math.log2(min(grid.cell_size))) - 1
    nu_max = math.ceil(math.log2(grid.diameter())) + 1
    pts = grid.coords()
    mass = np.abs(values.ravel()) ** q * grid.cell_volume
    terms = []
    for nu in range(nu_min, nu_max + 1):
        side = 2.0 ** nu
        idx = np.ceil(pts / side).astype(np.int64) - 1
        _, inv = np.unique(idx, axis=0, return_inverse=True)
        sums = np.bincount(inv.ravel(), weights=mass)
        sums = sums[sums > 0]
        vals = (side ** grid.dim) ** (1.0 / p - 1.0 / q) * sums ** (1.0 / q)
        terms.append(float(np.sum(vals ** r)) ** (1.0 / r) if vals.size else 0.0)
    return float(np.sum(np.asarray(terms) ** tau)) ** (1.0 / tau)


def _mixed_reference(values: np.ndarray, grid, rs) -> float:
    """Iterated exactly rounded sums, innermost axis first."""
    t = np.abs(values)
    for i, r in enumerate(rs):
        t = (np.apply_along_axis(math.fsum, 0, t ** r) * grid.cell_size[i]) ** (1.0 / r)
    return float(t)


def _lorentz_reference(values: np.ndarray, vol: float, r: float, tau: float) -> float:
    """Closed-form Lorentz quasi-norm of the step rearrangement, exactly rounded sum."""
    srt = np.sort(np.abs(values.ravel()))[::-1]
    t = np.arange(1, srt.size + 1) * vol
    e = tau / r
    return math.fsum((srt ** tau * (r / tau) * (t ** e - (t - vol) ** e)).tolist()) ** (1.0 / tau)


def _maximal_reference(absvals: np.ndarray, grid, radii, cells) -> np.ndarray:
    """Centred maximal function at a few cells by direct masked averages over
    the box-clipped balls, with the same tie rule as the ball kernel."""
    h = np.asarray(grid.cell_size)
    idx = np.stack(np.unravel_index(np.arange(grid.total_cells), grid.shape), axis=1)
    flat = absvals.ravel()
    out = []
    for c in cells:
        off = (idx - idx[c]) * h
        d = np.sqrt(np.sum(off ** 2, axis=1))
        best = flat[c]
        for rad in radii:
            inside = d <= rad
            best = max(best, float(np.sum(flat[inside])) / float(np.count_nonzero(inside)))
        out.append(best)
    return np.asarray(out)


N_CATALOG = 48  # the seeded 2D field every catalog kind is evaluated on


def _ball_cube(seed: int, tmpdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    items: list[Item] = []
    recorded = _load_recorded()

    def add(label, sizes, run, check=None, record=False):
        if record:
            check = _recorded_check(label, recorded)
        items.append(Item(label, sizes, run, check))

    # seeded catalog field, with checks that hold for any input
    gcat = G.make_grid(2, -2.0, 2.0, N_CATALOG)
    spec = G.TestFunctionSpec("gaussian", sigma=_jit(rng, 0.8, 0.06),
                              center=(_shift(rng, 0.0, 0.1), _shift(rng, 0.0, 0.1)))
    fs = G.sample(spec, gcat)
    v, vol = fs.values, gcat.cell_volume
    szcat = {"dim": 2, "N": N_CATALOG, "cells": gcat.total_cells}
    lp25 = _once(lambda: _lp(v, vol, 2.5))
    wc = (_shift(rng, 0.0, 0.3), _shift(rng, 0.0, 0.3))
    xi = (_shift(rng, 0.0, 0.3), _shift(rng, 0.0, 0.3))

    def collapse(value):
        return _within(value, lp25(), TOL_COLLAPSE, "collapse to L^2.5")

    def norm_item(space, check):
        add(f"norm 2D {N_CATALOG}^2 {space.canonical()}", szcat, lambda: S.norm(fs, space), check)

    norm_item(S.Lebesgue(2.5), collapse)
    wspace = S.WeightedLebesgue(2.0, a=-0.3, center=wc)
    wref = _once(lambda: math.fsum((v.ravel() ** 2 * vol * np.linalg.norm(
        gcat.coords() - np.asarray(wc), axis=1) ** -0.3).tolist()) ** 0.5)
    norm_item(wspace, lambda x: _within(x, wref(), TOL_ORACLE, "weighted sum"))
    lor_ref = _once(lambda: _lorentz_reference(v, vol, 3.0, 2.5))
    norm_item(S.Lorentz(3.0, 2.5), lambda x: _within(x, lor_ref(), 1e-11, "rearrangement sum"))
    norm_item(S.Lorentz(2.5, 2.5), collapse)
    phi = S.OrliczFunction("two-power", 2.5, 3.0)
    norm_item(S.Orlicz(phi), lambda lam: _within(
        math.fsum((phi(np.abs(v.ravel()) / lam) * vol).tolist()), 1.0, TOL_COLLAPSE, "Luxemburg modular"))
    norm_item(S.Orlicz(S.OrliczFunction("power", 2.5)), collapse)
    herz = S.HerzLocal(2.5, 2.5, -0.2, xi=xi)
    herz_oracle = _once(lambda: O.herz_local(v.ravel(), gcat.coords(), vol, 2.5, 2.5, -0.2, xi))
    norm_item(herz, lambda x: _within(x, herz_oracle(), TOL_ORACLE, "oracle"))
    norm_item(S.HerzLocal(2.5, 2.5, 0.0, xi=xi), collapse)
    herz0 = _once(lambda: O.herz_local(v.ravel(), gcat.coords(), vol, 2.5, 2.5, -0.2, 0.0))
    norm_item(S.HerzGlobal(2.5, 2.5, -0.2), lambda x: None if x >= herz0() * (1 - TOL_ORACLE)
              else f"below the xi=0 value {herz0()}")
    mref = _once(lambda: _mixed_reference(v, gcat, (2.5, 3.0)))
    norm_item(S.MixedNorm((2.5, 3.0)), lambda x: _within(x, mref(), 1e-12, "iterated sums"))
    norm_item(S.MixedNorm((2.5, 2.5)), collapse)
    vspace = S.VariableLebesgue(base=2.5, slope=_shift(rng, 0.2, 0.05))
    ex = vspace.exponent_on(gcat).ravel()
    norm_item(vspace, lambda lam: _within(
        math.fsum(((np.abs(v.ravel()) / lam) ** ex * vol).tolist()), 1.0, TOL_COLLAPSE, "modular"))
    bbm_ref = _once(lambda: _bbm_morrey_reference(v, gcat, 2.0, 3.0, 4.0, 5.0))
    norm_item(S.BesovBourgainMorrey(2.0, 3.0, 4.0, 5.0),
              lambda x: _within(x, bbm_ref(), TOL_COLLAPSE, "binned dyadic assembly"))
    norm_item(S.Morrey(2.5, 2.5), collapse)

    # fixed inputs for evaluators with no oracle yet: recorded values
    g32 = G.make_grid(2, -2.0, 2.0, 32)
    fg32 = G.sample(G.TestFunctionSpec("gaussian", sigma=0.8, center=(0.1, -0.2)), g32)
    add("norm 2D 32^2 fixed morrey:alpha=4.0,r=2.0", {"dim": 2, "N": 32},
        lambda: S.norm(fg32, S.Morrey(2.0, 4.0)), record=True)
    g16 = G.make_grid(2, -2.0, 2.0, 16)
    fg16 = G.sample(G.TestFunctionSpec("gaussian", sigma=0.8, center=(0.1, -0.2)), g16)
    add("norm 2D 16^2 fixed orliczslice two-power r=3 t=0.5", {"dim": 2, "N": 16},
        lambda: S.norm(fg16, S.OrliczSlice(S.OrliczFunction("two-power", 2.0, 3.0), 3.0, 0.5)),
        record=True)

    # seeded compact bump: Orlicz-slice with Phi = s^r collapses to L^r when the
    # support stays 2t away from the box
    g24 = G.make_grid(2, -2.0, 2.0, 24)
    fb = G.sample(G.TestFunctionSpec("bump", radius=_jit(rng, 0.85, 0.05),
                                     center=(_shift(rng, 0.0, 0.1), _shift(rng, 0.0, 0.1))), g24)
    lpb = _once(lambda: _lp(fb.values, g24.cell_volume, 2.5))
    add("norm 2D 24^2 orliczslice:p=2.5,r=2.5,t=0.3", {"dim": 2, "N": 24},
        lambda: S.norm(fb, S.OrliczSlice(S.OrliczFunction("power", 2.5), 2.5, 0.3)),
        lambda x: _within(x, lpb(), TOL_COLLAPSE, "collapse to L^2.5"))

    # maximal function at 128^2
    g128 = G.make_grid(2, -2.0, 2.0, 128)
    fh = G.sample(G.TestFunctionSpec("tent", width=_jit(rng, 2.0, 0.1),
                                     center=(_shift(rng, 0.0, 0.2), _shift(rng, 0.0, 0.2))), g128)

    probe_cells = rng.integers(0, g128.total_cells, 16)

    def hl_check(m):
        a = np.abs(fh.values)
        if not np.all(m >= a):
            return "M f < |f| somewhere"
        if float(np.max(m)) > float(np.max(a)) * (1 + 1e-12):
            return "M f exceeds max |f|"
        ref = _maximal_reference(a, g128, W.default_radii(g128), probe_cells)
        err = float(np.max(np.abs(m.ravel()[probe_cells] - ref) / ref))
        return None if err <= 1e-9 else f"direct ball averages differ by {err:.2e}"

    add("hl_maximal 2D 128^2", {"dim": 2, "N": 128, "cells": g128.total_cells},
        lambda: W.hl_maximal(fh), hl_check)

    # Muckenhoupt constants on 1D 4096 (criterion 6) and a small constant weight
    g4096 = G.make_grid(1, -2.0, 2.0, 4096)
    a = _shift(rng, -0.5, 0.05)
    wa = W.power_weight(g4096, a, center=0.0)
    fam = W.anchored_cube_family(g4096, 0.0)
    sz4096 = {"dim": 1, "N": 4096}
    add(f"muckenhoupt A_1 anchored a={a:.4f}", sz4096,
        lambda: W.muckenhoupt_constant(wa, 1.0, family=fam),
        lambda x: _within(x, 1.0 / (1.0 + a), 0.02, "A_1 closed form"))
    add(f"muckenhoupt A_2 anchored a={a:.4f}", sz4096,
        lambda: W.muckenhoupt_constant(wa, 2.0, family=fam),
        lambda x: _within(x, 1.0 / (1.0 - a * a), 0.02, "A_2 closed form"))
    g1024 = G.make_grid(1, -2.0, 2.0, 1024)
    w5 = W.power_weight(g1024, -0.5, center=0.0)
    add("muckenhoupt A_2 default family a=-0.5 N=1024", {"dim": 1, "N": 1024},
        lambda: W.muckenhoupt_constant(w5, 2.0), record=True)
    g256 = G.make_grid(1, -2.0, 2.0, 256)
    ones = W.explicit_weight(g256, np.ones(g256.shape))
    add("muckenhoupt A_1, A_2 default family constant weight", {"dim": 1, "N": 256},
        lambda: [W.muckenhoupt_constant(ones, p) for p in (1.0, 2.0)],
        lambda xs: None if xs == [1.0, 1.0] else f"constant weight gives {xs!r}, not exactly 1")

    # majorant iteration at depth 12 (criterion 7)
    g7 = G.make_grid(1, -4.0, 4.0, 256)
    probes = [_fn_spec(k, p, rng, 1) for k, p in (
        ("gaussian", {"sigma": 1.0, "center": 0.0}), ("gaussian", {"sigma": 0.5, "center": 0.7}),
        ("tent", {"width": 2.0, "center": -0.5}), ("bump", {"radius": 1.5, "center": 0.0}),
        ("polygauss", {"degree": 2, "sigma": 1.0, "center": 0.0}))]
    gs = [G.SampledField(g7, np.abs(G.sample(sp, g7).values)) for sp in probes]
    l2 = S.Lebesgue(2.0)
    state: dict[str, float] = {}

    def opnorm():
        state["c"] = max(W.estimate_maximal_opnorm(l2, g7).value, 1.0)
        return state["c"]

    add("estimate_maximal_opnorm L^2 1D N=256", {"dim": 1, "N": 256}, opnorm,
        lambda c: None if math.isfinite(c) and c >= 1.0 else f"bad operator-norm bound {c}")
    depth = 12

    def rubio_check(results):
        for sp, g, res in zip(probes, gs, results):
            rg = res.weight.samples
            if not np.all(rg >= np.abs(g.values)):
                return f"R g < |g| somewhere for {sp.canonical()}"
            slack = float(np.max(W.hl_maximal(rg, g7) - 2.0 * res.opnorm_bound * rg))
            if not slack <= res.eps_tail + 1e-9 * float(np.max(rg)):
                return f"M(Rg) bound slack {slack:.3e} for {sp.canonical()}"
        return None

    # one item for the five probes, as criterion 7 runs them
    add("rubio_de_francia depth 12, five probes", {"dim": 1, "N": 256, "probes": len(gs)},
        lambda: [W.rubio_de_francia(g, l2, state["c"], depth=depth) for g in gs], rubio_check)

    # Morrey duality runner on a small 1D grid
    cfg = E.ExperimentConfig(kind="morrey-duality", grid=G.make_grid(1, -2.0, 2.0, 256),
                             functions=[_fn_spec("gaussian", {"sigma": 0.8, "center": 0.0}, rng, 1)],
                             spaces=[S.Morrey(2.0, 4.0)], seed=seed)

    def duality_check(table):
        for row in table.rows:
            val, ref = row["value"], row["reference"]
            if not (math.isfinite(val) and val > 0 and math.isfinite(ref) and ref > 0):
                return f"bad row value={val!r} reference={ref!r}"
            a1 = float(row["flags"].split("a1_max=")[1].split(";")[0])
            if a1 < 1.0 - 1e-3:
                return f"A_1 constant {a1} below 1"
        return None if table.rows else "no rows"

    add("run_morrey_duality_check 1D N=256 cubes=4", {"dim": 1, "N": 256},
        lambda: E.run_morrey_duality_check(cfg, cube_count=4), duality_check)

    # oracle item: dyadic-cube norm on criterion 9's small grid
    gc = G.make_grid(1, 0.0, 1.0, 32)
    xc = gc.coords()[:, 0]
    cut = _shift(rng, 0.3, 0.2)
    fc = G.SampledField(gc, (xc > cut).astype(float).reshape(gc.shape))
    bbm_oracle = _once(lambda: O.bbm_morrey(fc.values.ravel(), gc.coords(), gc.cell_volume,
                                            2.0, 3.0, 4.0, math.inf, (-3, 3)))
    add("bbm_morrey_norm 1D N=32 vs oracle", {"dim": 1, "N": 32},
        lambda: S.bbm_morrey_norm(fc, 2.0, 3.0, 4.0, math.inf, nu_range=(-3, 3)),
        lambda x: _within(x, bbm_oracle(), TOL_ORACLE, "oracle"))
    return Workload("ball-cube-2d", items)


BUILDERS = {
    "levelset-bracket": _levelset,
    "pair-kernel-large": _pair_kernel,
    "ball-cube-2d": _ball_cube,
}


def build(name: str, seed: int, tmpdir: Path) -> Workload:
    return BUILDERS[name](seed, tmpdir)
