"""Config-driven experiment runners.

Configs are flat key-value text with section headers (INI); canonical spec
strings from the other modules are embedded verbatim.  Every runner returns a
:class:`~normlab.reports.RatioTable` whose rows reproduce from their recorded
provenance alone.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .domains import DomainSpec, mask, parse_domain
from .functionals import (
    DEFAULT_POLICY,
    BsvyParams,
    KernelPolicy,
    bbm_constant,
    bbm_limit_extrapolate,
    bbm_scaled_sweep,
    bsvy_sups,
    sobolev_norm,
    weak_holder_check,
)
from .grid import Grid, TestFunctionSpec, check_params, make_grid, parse_function, sample
from .reports import RatioTable
from .spaces import Morrey, SpaceSpec, morrey_norm, norm, parse_space, weighted_lebesgue_norm
from .weights import Weight, hl_maximal, muckenhoupt_constant, parse_weight, power_weight

__all__ = [
    "ExperimentConfig",
    "load_config",
    "DEFAULT_S_GRID",
    "run_bbm_experiment",
    "run_bsvy_experiment",
    "run_morrey_duality_check",
    "run_weak_holder_suite",
    "run_norm_table",
    "run_apconst_table",
    "run_maximal_table",
]

DEFAULT_S_GRID = (0.60, 0.70, 0.80, 0.875, 0.925, 0.95)


@dataclass
class ExperimentConfig:
    kind: str
    grid: Grid
    functions: list[TestFunctionSpec] = field(default_factory=list)
    spaces: list[SpaceSpec] = field(default_factory=list)
    domain: DomainSpec | None = None
    gammas: tuple[float, ...] = (1.0,)
    p: float = 1.0
    s_grid: tuple[float, ...] = DEFAULT_S_GRID
    policy: KernelPolicy = DEFAULT_POLICY
    seed: int = 0
    outdir: str = "out"
    refine: bool = True

    def provenance(self) -> dict:
        return {
            "kind": self.kind,
            "grid": self.grid.describe(),
            "functions": [f.canonical() for f in self.functions],
            "spaces": [s.canonical() for s in self.spaces],
            "domain": self.domain.canonical() if self.domain else "full-grid",
            "gammas": list(self.gammas),
            "p": self.p,
            "s_grid": list(self.s_grid),
            "policy": self.policy.canonical(),
            "seed": self.seed,
        }


# per config section: its required keys, then its optional keys
CONFIG_SECTIONS = {
    "experiment": ((), ("kind", "seed")),
    "grid": (("n", "lo", "hi", "points"), ()),
    "functions": (("specs",), ()),
    "spaces": (("specs",), ()),
    "domain": ((), ("spec",)),
    "sweeps": ((), ("gammas", "p", "s_grid")),
    "policy": ((), tuple(f.name for f in fields(KernelPolicy))),
    "output": ((), ("dir", "refine")),
}


def load_config(path) -> ExperimentConfig:
    """The experiment of an INI config.  A missing [experiment] or [grid], a
    section or key outside :data:`CONFIG_SECTIONS`, a missing required key, a
    file that cannot be read and a line that does not parse are ValueErrors."""
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {str(path)!r}: {exc.strerror or exc}") from None
    except configparser.Error as exc:  # its message spans lines
        raise ValueError(" ".join(str(exc).split())) from None
    for section in ("experiment", "grid"):
        if section not in cp:
            raise ValueError(f"config {str(path)!r} has no [{section}] section")
    for section in cp.sections():
        if section not in CONFIG_SECTIONS:
            raise ValueError(f"config {str(path)!r} has unknown section [{section}];"
                             f" known: {', '.join(CONFIG_SECTIONS)}")
        check_params(f"config [{section}]", dict(cp[section]), *CONFIG_SECTIONS[section])
    exp = cp["experiment"]
    g = cp["grid"]

    def vec(raw, cast=float):
        vals = [cast(v) for v in raw.split()]
        return vals[0] if len(vals) == 1 else vals

    grid = make_grid(g.getint("n"), vec(g["lo"]), vec(g["hi"]), vec(g["points"], int))
    cfg = ExperimentConfig(kind=exp.get("kind"), grid=grid)
    cfg.seed = exp.getint("seed", fallback=0)
    if "functions" in cp:
        cfg.functions = [parse_function(line) for line in cp["functions"]["specs"].split("\n") if line.strip()]
    if "spaces" in cp:
        cfg.spaces = [parse_space(line) for line in cp["spaces"]["specs"].split("\n") if line.strip()]
    if "domain" in cp and cp["domain"].get("spec", "").strip():
        cfg.domain = parse_domain(cp["domain"]["spec"], box=(grid.lo, grid.hi))
    if "sweeps" in cp:
        sw = cp["sweeps"]
        if "gammas" in sw:
            cfg.gammas = tuple(float(v) for v in sw["gammas"].split())
        cfg.p = sw.getfloat("p", fallback=cfg.p)
        if "s_grid" in sw:
            cfg.s_grid = tuple(float(v) for v in sw["s_grid"].split())
    if "policy" in cp:
        # each key is read as the type of its default; a key left out keeps the default
        cfg.policy = KernelPolicy(**{key: type(getattr(DEFAULT_POLICY, key))(value)
                                     for key, value in cp["policy"].items()})
    if "output" in cp:
        ou = cp["output"]
        cfg.outdir = ou.get("dir", cfg.outdir)
        cfg.refine = ou.getboolean("refine", fallback=cfg.refine)
    return cfg


def _domain_mask(cfg: ExperimentConfig, grid: Grid):
    if cfg.domain is None:
        return None
    return mask(cfg.domain, grid)


def _flags(tokens) -> str:
    return ";".join(t for t in tokens if t)


def _add_row(table: RatioTable, cfg: ExperimentConfig, grid: Grid, **cols) -> None:
    """One row, with the domain (unless given), dimension, grid and seed of the run."""
    cols.setdefault("domain", cfg.domain.canonical() if cfg.domain else "full-grid")
    table.add_row(n=grid.dim, grid=grid.describe(), seed=cfg.seed, **cols)


# ---------------------------------------------------------------------------
# gradient-limit experiment
# ---------------------------------------------------------------------------


def run_bbm_experiment(cfg: ExperimentConfig) -> RatioTable:
    """Per (function, space): sweep s, extrapolate, compare with the closed-form
    limit constant times the gradient norm on the grid and, with ``refine``, on
    its 2x refinement; rows come from the finest grid.  Per (function, grid) one
    s-batched inner field (:func:`~normlab.functionals.bbm_scaled_sweep`) serves
    every space; rows keep the function -> space order."""
    table = RatioTable(provenance=cfg.provenance())
    grids = [cfg.grid] + ([cfg.grid.refine(2)] if cfg.refine else [])
    omegas = [_domain_mask(cfg, grid) for grid in grids]
    const = bbm_constant(cfg.p, cfg.grid.dim) ** (1.0 / cfg.p)
    for fn in cfg.functions:
        runs = []
        for grid, omega in zip(grids, omegas):
            f = sample(fn, grid)
            scaled = bbm_scaled_sweep(f, cfg.s_grid, cfg.p, cfg.spaces, omega, cfg.policy)
            runs.append([bbm_limit_extrapolate(zip(cfg.s_grid, vals))[0] for vals in scaled])
        # f and omega are now those of the finest grid, where the rows come from
        for space, value, coarse in zip(cfg.spaces, runs[-1], runs[0]):
            tokens = []
            if cfg.refine:
                delta = abs(value - coarse) / abs(value) if value != 0 else 0.0
                tokens.append(f"refine_delta={delta:.3e}")
            _add_row(table, cfg, grids[-1], experiment="bbm", function=fn.canonical(),
                     space=space.canonical(), p=cfg.p, gamma_or_s=1.0, value=value,
                     reference=const * sobolev_norm(f, space, omega), flags=_flags(tokens))
    return table


# ---------------------------------------------------------------------------
# level-set-functional experiment
# ---------------------------------------------------------------------------


def run_bsvy_experiment(cfg: ExperimentConfig) -> tuple[RatioTable, dict]:
    """Per (function, space, gamma): sup of the level-set functional against
    the gradient norm on the grid and, with ``refine``, on its 2x refinement;
    rows come from the finest grid.  Per (space, gamma) the summary holds the
    ratio bracket [c1, c2], its width c2/c1 and its worst refinement delta
    (NaN without refinement).

    The loops run function -> gamma -> spaces: one
    :func:`~normlab.functionals.bsvy_sups` per (function, gamma, grid) shares
    its level-set rows across the spaces.  Rows and summary keys keep the
    function -> space -> gamma order."""
    table = RatioTable(provenance=cfg.provenance())
    grids = [cfg.grid] + ([cfg.grid.refine(2)] if cfg.refine else [])

    def sups(grid):
        """(fn, space, gamma, sup report, reference) per listed combination, in order."""
        omega = _domain_mask(cfg, grid)
        for fn in cfg.functions:
            f = sample(fn, grid)
            reps = [bsvy_sups(f, BsvyParams(gamma, cfg.p), cfg.spaces, omega, cfg.policy)
                    for gamma in cfg.gammas]
            for j, space in enumerate(cfg.spaces):
                ref = sobolev_norm(f, space, omega)
                for gamma, by_space in zip(cfg.gammas, reps):
                    yield fn, space, gamma, by_space[j], ref

    runs = [list(sups(grid)) for grid in grids]
    brackets: dict[tuple[str, float], list[tuple[float, float]]] = {}
    for (fn, space, gamma, rep, ref), (*_, coarse, cref) in zip(runs[-1], runs[0]):
        ratio = rep.sup / ref if ref > 0 else math.nan
        base = coarse.sup / cref if cref > 0 else math.nan
        tokens = list(rep.flags)
        delta = math.nan
        if cfg.refine and math.isfinite(base):
            delta = abs(ratio - base) / abs(ratio) if ratio else 0.0
            tokens.append(f"refine_delta={delta:.3e}")
        _add_row(table, cfg, grids[-1], experiment="bsvy", function=fn.canonical(),
                 space=space.canonical(), p=cfg.p, gamma_or_s=gamma,
                 value=rep.sup, reference=ref, flags=_flags(tokens))
        if ref > 0:
            brackets.setdefault((space.canonical(), gamma), []).append((ratio, delta))
    summary = {}
    for (space_txt, gamma), members in brackets.items():
        ratios, deltas = zip(*members)
        c1, c2 = min(ratios), max(ratios)
        summary[f"{space_txt}|gamma={gamma}"] = {
            "c1": c1, "c2": c2, "width": c2 / c1 if c1 > 0 else math.inf,
            "delta": float(np.fmax.reduce(deltas))}  # fmax skips NaN
    return table, summary


# ---------------------------------------------------------------------------
# Morrey duality check
# ---------------------------------------------------------------------------


def run_morrey_duality_check(cfg: ExperimentConfig, theta: float | None = None,
                             cube_count: int = 20) -> RatioTable:
    """Compare the ball-supremum Morrey norm with the cube supremum of
    weighted norms under maximal-function weights (M 1_Q)^theta."""
    table = RatioTable(provenance=cfg.provenance())
    grid = cfg.grid
    omega = _domain_mask(cfg, grid)
    rng = np.random.default_rng(cfg.seed)
    for space in cfg.spaces:
        if not isinstance(space, Morrey):
            raise ValueError("morrey-duality needs Morrey space specs")
        r, alpha = space.r, space.alpha
        th = theta if theta is not None else 0.5 * ((1 - r / alpha) + 1.0)
        if not (1 - r / alpha < th < 1):
            raise ValueError("theta must lie in (1 - r/alpha, 1)")
        for fn in cfg.functions:
            f = sample(fn, grid)
            lhs = morrey_norm(f, r, alpha, omega)
            best = 0.0
            a1_consts = []
            span = min(b - a for a, b in zip(grid.lo, grid.hi))
            for _ in range(cube_count):
                c = rng.uniform(grid.lo, grid.hi)
                half = rng.uniform(0.05, 0.45) * span
                ind = np.all(np.abs(grid.coords() - c) <= half, axis=1).reshape(grid.shape)
                if not ind.any():
                    continue
                mq = hl_maximal(ind.astype(float), grid)
                w = mq ** th
                qvol = np.count_nonzero(ind) * grid.cell_volume
                rhs = qvol ** (1.0 / alpha - 1.0 / r) * weighted_lebesgue_norm(f, r, w, omega)
                best = max(best, rhs)
                a1_consts.append(muckenhoupt_constant(Weight(grid, w, "maximal-power"), 1.0))
            tokens = []
            if a1_consts:
                spread = max(a1_consts) / min(a1_consts)
                tokens.append(f"a1_spread={spread:.3f}")
                tokens.append(f"a1_max={max(a1_consts):.3f}")
            _add_row(table, cfg, grid, experiment="morrey-duality", function=fn.canonical(),
                     space=space.canonical(), p=r, gamma_or_s=th, value=best, reference=lhs,
                     flags=_flags(tokens))
    return table


# ---------------------------------------------------------------------------
# weak-Hoelder property suite
# ---------------------------------------------------------------------------


def run_weak_holder_suite(cfg: ExperimentConfig, instances: int = 100,
                          gamma: float = 1.0) -> tuple[dict, RatioTable]:
    """Random pair fields through the weak-type Hoelder inequality check."""
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    grid = cfg.grid
    omega = _domain_mask(cfg, grid)
    rng = np.random.default_rng(cfg.seed)
    total = grid.total_cells
    table = RatioTable(provenance=cfg.provenance())
    passes = 0
    trivial = 0
    min_margin = math.inf
    for i in range(instances):
        F = rng.lognormal(sigma=1.0, size=(total, total))
        if i % 10 == 9:
            G = np.zeros((total, total))
        else:
            G = rng.lognormal(sigma=1.0, size=(total, total))
        p = float(rng.uniform(1.5, 3.0))
        a = float(rng.uniform(-0.4, 0.4))
        w = power_weight(grid, a, center=tuple(rng.uniform(grid.lo, grid.hi))).samples
        res = weak_holder_check(F, G, gamma, w, p, omega, grid)
        if res.rhs == 0.0 and res.lhs == 0.0:
            trivial += 1
            passed = True
        else:
            passed = res.passed
            min_margin = min(min_margin, res.margin)
        passes += passed
        _add_row(table, cfg, grid, experiment="weak-holder", function=f"instance-{i}",
                 space=f"pairs:p={p!r}", p=p, gamma_or_s=gamma, value=res.lhs,
                 reference=res.rhs, flags=_flags(["pass" if passed else "fail"]))
    summary = {
        "instances": instances,
        "passes": passes,
        "trivial": trivial,
        "min_margin": min_margin if math.isfinite(min_margin) else None,
    }
    return summary, table


# ---------------------------------------------------------------------------
# plain norm, A_p and maximal-function tables
# ---------------------------------------------------------------------------


def run_norm_table(cfg: ExperimentConfig) -> RatioTable:
    table = RatioTable(provenance=cfg.provenance())
    omega = _domain_mask(cfg, cfg.grid)
    for fn in cfg.functions:
        f = sample(fn, cfg.grid)
        for space in cfg.spaces:
            try:
                _add_row(table, cfg, cfg.grid, experiment="norm", function=fn.canonical(),
                         space=space.canonical(), value=norm(f, space, omega))
            except ArithmeticError as exc:  # name the space and the key that overflowed
                key = space.extreme_exponent()
                raise type(exc)(f"{space.canonical()}: " + (f"{key} is out of range: the arithmetic overflows"
                                                              if key else str(exc))) from exc
    return table


def run_apconst_table(cfg: ExperimentConfig, weight_specs: list[str], ps=(1.0, 2.0)) -> RatioTable:
    if cfg.domain is not None:
        raise ValueError(f"apconst runs on the whole grid, not on domain {cfg.domain.canonical()}")
    table = RatioTable(provenance=cfg.provenance())
    for wtxt in weight_specs:
        w = parse_weight(wtxt, cfg.grid)
        for p in ps:
            est = muckenhoupt_constant(w, p, return_witness=True)
            _add_row(table, cfg, cfg.grid, experiment="apconst", function=w.source,
                     space=f"Ap:p={p!r}", p=p, value=est.value,
                     flags=_flags([f"cube={est.cube_lo}..{est.cube_hi}"]))
    return table


def run_maximal_table(cfg: ExperimentConfig) -> RatioTable:
    """Per function: max of the maximal function M f against max |f|."""
    if cfg.domain is not None:
        raise ValueError(f"maximal runs on the whole grid, not on domain {cfg.domain.canonical()}")
    table = RatioTable(provenance=cfg.provenance())
    for fn in cfg.functions:
        f = sample(fn, cfg.grid)
        _add_row(table, cfg, cfg.grid, experiment="maximal", function=fn.canonical(),
                 value=float(np.max(hl_maximal(f))), reference=float(np.max(np.abs(f.values))))
    return table
