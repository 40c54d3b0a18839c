"""Muckenhoupt weights, the Hardy-Littlewood maximal operator, and the
geometric-series majorant iteration that turns a nonnegative function into
an A_1 weight dominating it.

Cube averages use midpoint-rule cell masses normalized by the discrete cell
volume inside the cube, so a constant weight gives averages of exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .grid import (DomainMask, Grid, SampledField, _as_tuple, check_params, format_params, parse_params,
                   restrict_values)
from .spaces import (
    SpaceSpec,
    _ball_stencil,
    _box_sums,
    _cell_ranges,
    _power_samples,
    _prefix,
    ball_sums,
    default_radii,
    norm,
)

__all__ = [
    "Weight",
    "power_weight",
    "explicit_weight",
    "parse_weight",
    "CubeFamily",
    "default_cube_family",
    "muckenhoupt_constant",
    "dual_weight",
    "default_radii",
    "ball_sums",
    "hl_maximal",
    "estimate_maximal_opnorm",
    "rubio_de_francia",
    "RubioResult",
    "weighted_norm_duality_bound",
]


@dataclass(frozen=True)
class Weight:
    """Nonnegative sampled weight; ``power`` carries (exponent, center) when parametric."""

    grid: Grid
    samples: np.ndarray
    source: str
    power: tuple[float, tuple[float, ...]] | None = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.shape != self.grid.shape:
            raise ValueError("weight samples must match the grid shape")
        if not np.all(np.isfinite(s)):
            raise ValueError("weight samples must be finite")
        if np.any(s < 0):
            raise ValueError("weight samples must be nonnegative")
        if not np.any(s > 0):
            raise ValueError("weight must not vanish identically")
        object.__setattr__(self, "samples", s)


def power_weight(grid: Grid, a: float, center=0.0) -> Weight:
    """|x - c|^a sampled at cell centers."""
    c, samples = _power_samples(grid, a, center)
    return Weight(grid, samples, format_params("power", {"a": a, "center": c}), (float(a), c))


def explicit_weight(grid: Grid, samples: np.ndarray) -> Weight:
    return Weight(grid, samples, "explicit")


def parse_weight(text: str, grid: Grid) -> Weight:
    kind, values = parse_params(text)
    if kind != "power":
        raise ValueError(f"unknown weight form {kind!r}; only power:a=...,center=... parses")
    check_params("weight", values, optional=("a", "center"), vectors=("center",))
    return power_weight(grid, values.get("a", 0.0), values.get("center", 0.0))


# ---------------------------------------------------------------------------
# cube families and Muckenhoupt constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubeFamily:
    lo: np.ndarray  # (M, dim)
    hi: np.ndarray  # (M, dim)

    def __post_init__(self):
        if self.lo.shape != self.hi.shape or self.lo.ndim != 2 or self.lo.shape[0] == 0:
            raise ValueError("cube family must be a nonempty (M, dim) pair of corners")

    @property
    def count(self) -> int:
        return self.lo.shape[0]


def default_cube_family(grid: Grid, anchor=None) -> CubeFamily:
    """Cubes at every cell center with dyadic half-widths, plus cubes anchored
    at ``anchor`` (orthant cubes [c, c + s] and symmetric ones) at all scales.

    Anchored cubes are what make power-weight suprema attainable: the extremal
    cubes touch the singular center.
    """
    hmin = min(grid.cell_size)
    span = max(b - a for a, b in zip(grid.lo, grid.hi))
    halfwidths = [hmin / 2.0]
    while halfwidths[-1] < span:
        halfwidths.append(halfwidths[-1] * 2.0)
    centers = grid.coords()
    los, his = [], []
    for w in halfwidths:
        los.append(centers - w)
        his.append(centers + w)
    if anchor is not None:
        anchored = anchored_cube_family(grid, anchor)
        los.append(anchored.lo)
        his.append(anchored.hi)
    return CubeFamily(np.vstack(los), np.vstack(his))


def anchored_cube_family(grid: Grid, anchor=0.0) -> CubeFamily:
    """Only the cubes touching ``anchor``: orthant cubes [c, c + s] at dyadic
    scales plus the symmetric ones.  This is the family on which power-weight
    constants have the closed form 1/(1+a); the full default family also sees
    asymmetric straddling cubes with strictly larger ratios."""
    c = np.asarray(_as_tuple(anchor, grid.dim))
    los, his = [], []
    side = min(grid.cell_size)
    span = max(b - a for a, b in zip(grid.lo, grid.hi))
    while side <= 2 * span:
        for orth in product((-1.0, 1.0), repeat=grid.dim):
            corner = c + side * np.asarray(orth)
            los.append(np.minimum(c, corner)[None, :])
            his.append(np.maximum(c, corner)[None, :])
        los.append((c - side)[None, :])
        his.append((c + side)[None, :])
        side *= 2.0
    return CubeFamily(np.vstack(los), np.vstack(his))


def _power_sup_inverse(power, lo, hi) -> np.ndarray:
    """Exact ess sup over each cube (rows of lo, hi) of omega^{-1} for omega = |x-c|^a."""
    a, c = power
    if a == 0:
        return np.ones(lo.shape[0])
    c = np.asarray(c)
    if a < 0:
        far = np.maximum(np.abs(lo - c), np.abs(hi - c))
        return np.sqrt(np.sum(far ** 2, axis=1)) ** (-a)
    near = np.maximum(0.0, np.maximum(lo - c, c - hi))
    with np.errstate(divide="ignore"):
        return np.sqrt(np.sum(near ** 2, axis=1)) ** (-a)  # inf on cubes holding c


def _block_min(values: np.ndarray, a, b) -> np.ndarray:
    """Minimum of ``values`` over the nonempty index boxes [a, b) (one index
    array per axis), from a sparse table: entry (k_0, .., k_d-1, j_0, ..)
    holds the minimum over the block of 2^k_i cells from j_i on each axis."""
    dim = values.ndim
    table = values.reshape((1,) * dim + values.shape)
    for ax, n in enumerate(values.shape):
        levels, step = [table], 1
        while 2 * step <= n:
            head = [slice(None)] * table.ndim
            tail = [slice(None)] * table.ndim
            head[dim + ax], tail[dim + ax] = slice(0, n - step), slice(step, n)
            nxt = levels[-1].copy()
            nxt[tuple(head)] = np.minimum(levels[-1][tuple(head)], levels[-1][tuple(tail)])
            levels.append(nxt)
            step *= 2
        table = np.concatenate(levels, axis=ax)
    # two blocks of 2^k cells, k = floor(log2(length)), cover each range
    k = [np.frexp(bi - ai)[1] - 1 for ai, bi in zip(a, b)]
    best = np.inf
    for corner in product((0, 1), repeat=dim):
        start = tuple(b[i] - (1 << k[i]) if corner[i] else a[i] for i in range(dim))
        best = np.minimum(best, table[tuple(k) + start])
    return best


@dataclass(frozen=True)
class ApEstimate:
    value: float
    cube_lo: tuple[float, ...]
    cube_hi: tuple[float, ...]


def muckenhoupt_constant(weight: Weight, p: float, family: CubeFamily | None = None,
                         return_witness: bool = False):
    """Lower bound on the A_p constant: max over the cube family.

    p = 1: (cube average of w) * (ess sup over the cube of 1/w); the sup uses
    the exact closed form for parametric power weights and the cell max
    otherwise.  p > 1: (avg w) * (avg w^(1-p'))^(p-1).  Cubes sticking out of
    the box average over the cells they actually contain.
    """
    if not (1 <= p < math.inf):
        raise ValueError("p must lie in [1, inf)")
    grid = weight.grid
    if family is None:
        anchor = weight.power[1] if weight.power is not None else None
        family = default_cube_family(grid, anchor=anchor)
    vol = grid.cell_volume
    pre_w = _prefix(weight.samples * vol)
    pre_1 = _prefix(np.full(grid.shape, vol))
    if p > 1:
        pp = p / (p - 1.0)
        with np.errstate(divide="ignore"):
            dual = np.where(weight.samples > 0, weight.samples ** (1.0 - pp), math.inf)
        if np.any(~np.isfinite(dual)):
            return (ApEstimate(math.inf, tuple(family.lo[0]), tuple(family.hi[0]))
                    if return_witness else math.inf)
        pre_d = _prefix(dual * vol)
    # A_p cubes are closed, [lo, hi]; only cubes holding a cell center count
    a, b = zip(*(_cell_ranges(grid, i, family.lo[:, i], family.hi[:, i], "left")
                 for i in range(grid.dim)))
    held = np.flatnonzero(np.logical_and.reduce([bi > ai for ai, bi in zip(a, b)]))
    a, b = [ai[held] for ai in a], [bi[held] for bi in b]
    # averages only see cells inside the box; take the sup over the same region
    lo = np.maximum(family.lo[held], grid.lo)
    hi = np.minimum(family.hi[held], grid.hi)
    mass = _box_sums(pre_1, a, b)
    avg_w = _box_sums(pre_w, a, b) / mass
    if p == 1:
        if weight.power is not None:
            sup_inv = _power_sup_inverse(weight.power, lo, hi)
        else:
            with np.errstate(divide="ignore"):
                sup_inv = 1.0 / _block_min(weight.samples, a, b)
        with np.errstate(invalid="ignore"):
            vals = avg_w * sup_inv
    else:
        vals = avg_w * (_box_sums(pre_d, a, b) / mass) ** (p - 1.0)
    # a cube holding only zero-weight cells gives 0 * inf = nan: never the sup
    vals = np.where(np.isnan(vals), -math.inf, vals)
    best = -math.inf
    witness = (tuple(family.lo[0]), tuple(family.hi[0]))
    if held.size:
        k = int(np.argmax(vals))  # the first maximum in family order
        if vals[k] > best:
            best = float(vals[k])
            witness = (tuple(float(x) for x in lo[k]), tuple(float(x) for x in hi[k]))
    if return_witness:
        return ApEstimate(best, *witness)
    return best


def dual_weight(weight: Weight, p: float) -> Weight:
    """Cell-wise omega^(1-p') for p in (1, inf); power weights stay parametric."""
    if not (1 < p < math.inf):
        raise ValueError("p must lie in (1, inf)")
    pp = p / (p - 1.0)
    if np.any(weight.samples == 0):
        raise ValueError("dual weight undefined where the weight vanishes")
    samples = weight.samples ** (1.0 - pp)
    if weight.power is not None:
        a, c = weight.power[0] * (1.0 - pp), weight.power[1]
        return Weight(weight.grid, samples, format_params("power", {"a": a, "center": c}), (a, c))
    return Weight(weight.grid, samples, "explicit")


# ---------------------------------------------------------------------------
# Hardy-Littlewood maximal operator
# ---------------------------------------------------------------------------


def hl_maximal(f: SampledField | np.ndarray, grid: Grid | None = None,
               radii: np.ndarray | None = None) -> np.ndarray:
    """Centered maximal function over the radius family.

    Ball averages are taken over the cells inside the box (balls clipped to
    the box, averaged over the clipped volume; cells belong to a ball by the
    rule of :func:`ball_sums`), and the own-cell average |f| is always
    included, so M f >= |f| cell-wise exactly.
    """
    if isinstance(f, SampledField):
        grid = f.grid
        vals = np.abs(f.values)
    else:
        if grid is None:
            raise ValueError("grid required when passing a bare array")
        vals = np.abs(np.asarray(f, dtype=float))
    if radii is None:
        radii = default_radii(grid)
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValueError("radius family is empty")
    out = vals.copy()
    for rad, sums in zip(radii, ball_sums(vals, grid, radii)):
        np.maximum(out, sums / _ball_stencil(grid, float(rad)).count, out=out)
    return out


@dataclass(frozen=True)
class OpnormEstimate:
    value: float
    probe: str


def _default_probes(grid: Grid) -> list[tuple[str, np.ndarray]]:
    from .grid import TestFunctionSpec, sample

    diam = grid.diameter()
    center = tuple(0.5 * (a + b) for a, b in zip(grid.lo, grid.hi))
    probes = []
    for sigma in (diam / 16.0, diam / 6.0):
        spec = TestFunctionSpec("gaussian", sigma=sigma, center=center)
        probes.append((spec.canonical(), sample(spec, grid).values))
    spec = TestFunctionSpec("tent", width=diam / 3.0, center=center)
    probes.append((spec.canonical(), sample(spec, grid).values))
    d = np.linalg.norm(grid.coords() - np.asarray(center), axis=1).reshape(grid.shape)
    probes.append(("indicator-ball", (d <= diam / 8.0).astype(float)))
    probes.append(("constant", np.ones(grid.shape)))
    return probes


def estimate_maximal_opnorm(space: SpaceSpec, grid: Grid, probes=None) -> OpnormEstimate:
    """Lower bound on ||M||_{X -> X}: max over probes of norm(M g)/norm(g)."""
    if probes is None:
        probes = _default_probes(grid)
    if not probes:
        raise ValueError("probe family is empty")
    best, label = -math.inf, ""
    for name, vals in probes:
        g = SampledField(grid, vals)
        base = norm(g, space)
        if base == 0.0:
            continue
        mg = SampledField(grid, hl_maximal(g))
        ratio = norm(mg, space) / base
        if ratio > best:
            best, label = ratio, name
    return OpnormEstimate(best, label)


# ---------------------------------------------------------------------------
# majorant iteration (geometric series of maximal iterates)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RubioResult:
    weight: Weight
    opnorm_bound: float
    depth: int
    eps_tail: float          # cell-wise slack in M(Rg) <= 2c Rg + eps
    running_norm: float      # eps_tail == 2^-(K+1) * running_norm
    norm_ratio: float | None  # norm(Rg)/norm(g) in the given space
    norm_bound_ok: bool | None


def rubio_de_francia(g: SampledField, space: SpaceSpec | None, opnorm_bound: float,
                     depth: int = 12) -> RubioResult:
    """R_K g = sum_{k<=K} M^k g / (2 c)^k with M^0 g = |g|.

    Satisfies R_K g >= |g| cell-wise and, by sublinearity of M,
    M(R_K g) <= 2 c R_K g + eps_K with eps_K = max M^{K+1} g / (2^K c^K).
    The norm bound norm(Rg) <= 2 norm(g) holds when c dominates the true
    operator norm; it is measured, not assumed.
    """
    if not opnorm_bound > 0:
        raise ValueError("operator-norm bound must be positive")
    if depth < 0:
        raise ValueError("truncation depth must be >= 0")
    if np.any(g.values < 0) or not np.any(g.values > 0):
        raise ValueError("iteration input must be nonnegative and not identically zero")
    c = float(opnorm_bound)
    term = np.abs(g.values)
    acc = term.copy()
    for k in range(1, depth + 1):
        term = hl_maximal(term, g.grid)
        if not np.all(np.isfinite(term)):
            raise FloatingPointError("maximal iterate overflowed")
        acc = acc + term / (2.0 * c) ** k
    tail_field = hl_maximal(term, g.grid) / (2.0 ** depth * c ** depth)
    eps_tail = float(np.max(tail_field))
    running = eps_tail * 2.0 ** (depth + 1)
    ratio = ok = None
    if space is not None:
        base = norm(g, space)
        rg = norm(SampledField(g.grid, acc), space)
        ratio = rg / base if base > 0 else math.inf
        ok = bool(ratio <= 2.0 + 1e-9)
    return RubioResult(Weight(g.grid, acc, "majorant-iteration"), c, depth,
                       eps_tail, running, ratio, ok)


def weighted_norm_duality_bound(f: SampledField, space: SpaceSpec, p: float,
                                omega: DomainMask | None, witness: SampledField,
                                opnorm_bound: float, depth: int = 12,
                                dual_space: SpaceSpec | None = None) -> tuple[float, float]:
    """Pair |f|^p against the majorant of a unit dual-norm witness.

    Returns ``((integral of |f|^p R g over the domain)^(1/p), norm(f, X))``.
    The caller normalizes the witness in the associate space of the
    p-th convexification; when ``dual_space`` is given the normalization is
    verified.  The sandwich  norm <= sup over witnesses <= 2^(1/p) norm
    holds when ``opnorm_bound`` dominates the true operator norm there.
    """
    if dual_space is not None:
        wn = norm(witness, dual_space)
        if abs(wn - 1.0) > 1e-6:
            raise ValueError(f"witness is not normalized in the dual space (norm {wn})")
    res = rubio_de_francia(SampledField(witness.grid, np.abs(witness.values)),
                           dual_space, opnorm_bound, depth=depth)
    fv = restrict_values(f, omega)
    pairing = float(np.sum(np.abs(fv) ** p * res.weight.samples) * f.grid.cell_volume) ** (1.0 / p)
    return pairing, norm(f, space, omega)
