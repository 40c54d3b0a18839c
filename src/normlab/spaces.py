"""Norm evaluators for the catalog of ball Banach function spaces.

Each space is described by a :class:`SpaceSpec` and evaluated on a
:class:`~normlab.grid.SampledField` restricted to a domain mask (zero
extension outside the domain).  All evaluators are midpoint-rule
discretizations; each one is matched against an independent brute-force
oracle in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import (DomainMask, Grid, SampledField, Spec, _as_tuple, as_int, check_axis, check_params,
                   mask_cells)

__all__ = [
    "SpaceSpec",
    "Lebesgue",
    "WeightedLebesgue",
    "Lorentz",
    "Orlicz",
    "OrliczSlice",
    "Morrey",
    "BesovBourgainMorrey",
    "HerzLocal",
    "HerzGlobal",
    "MixedNorm",
    "VariableLebesgue",
    "OrliczFunction",
    "HerzWeight",
    "DyadicSystem",
    "DyadicCube",
    "norm",
    "norm_many",
    "parse_space",
    "weighted_lebesgue_norm",
    "lorentz_norm",
    "luxemburg_norm",
    "orlicz_slice_norm",
    "morrey_norm",
    "ball_sums",
    "default_ball_family",
    "default_radii",
    "dyadic_cover",
    "bbm_morrey_norm",
    "herz_local_norm",
    "herz_global_norm",
    "mixed_norm",
    "variable_lebesgue_norm",
    "convexify",
    "zero_extend",
]

LUXEMBURG_REL_TOL = 1e-14  # Newton step in log lam at or below which the Luxemburg solver stops
COVER_LEVELS = 5  # dyadic levels dyadic_cover tries per shift, from the smallest possible
XI_STRIDE = 4  # default_xi_grid takes every XI_STRIDE-th cell centre per axis


# ---------------------------------------------------------------------------
# auxiliary parameter objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrliczFunction:
    """Orlicz function phi(s) = max over its exponents q of s^q: kind ``power``
    is s^p1 (text key ``p``), ``two-power`` is max(s^p1, s^p2) with p1 <= p2."""

    kind: str
    p1: float
    p2: float | None = None
    KEYS: ClassVar[dict] = {"power": ("p",), "two-power": ("p1", "p2")}  # text keys per kind

    def __post_init__(self):
        if self.kind not in self.KEYS:
            raise ValueError(f"unknown Orlicz kind {self.kind!r}")
        q = self.exponents
        if len(q) != len(self.KEYS[self.kind]) or not (1 < q[0] <= q[-1] < math.inf):
            raise ValueError(f"{self.kind} Orlicz function needs exponents "
                             f"1 < {' <= '.join(self.KEYS[self.kind])} < inf")

    @property
    def exponents(self) -> tuple[float, ...]:
        return (self.p1,) if self.p2 is None else (self.p1, self.p2)

    @property
    def ends(self) -> tuple[float, float]:
        """The exponent of phi below 1 and from 1 on: max(s^p1, s^p2) is s^p1 on (0, 1)."""
        return self.exponents[0], self.exponents[-1]

    def __call__(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return s ** self.p1 if self.p2 is None else np.maximum(s ** self.p1, s ** self.p2)

    def params(self) -> dict:
        return dict(zip(self.KEYS[self.kind], self.exponents))


@dataclass(frozen=True)
class HerzWeight:
    """Power-type radial weight ``omega(s) = s^a`` on (0, inf)."""

    a: float

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError("weight exponent must be finite")


# ---------------------------------------------------------------------------
# space specifications
# ---------------------------------------------------------------------------


class SpaceSpec(Spec):
    """Base class for catalog space descriptions (grid-independent).

    Each kind is registered in ``SpaceSpec.kinds``; its ``keys`` are the
    constructor's leading arguments and its ``optional`` ones keywords (see
    :class:`~normlab.grid.Spec`).  X -> X^(1/p) divides the ``divided`` keys
    (the exponents) by p and multiplies the ``multiplied`` ones by p.
    """

    family = "space"
    divided: tuple[str, ...] = ()
    multiplied: tuple[str, ...] = ()

    def convexify(self, p: float) -> "SpaceSpec":
        """X^(1/p) for p > 0; see :func:`convexify`."""
        values = self.params()
        for key, v in values.items():
            if key in self.divided:
                values[key] = v / p
            elif key in self.multiplied:
                values[key] = v * p
        return self.from_params(values)

    def evaluate(self, values: np.ndarray, grid: Grid) -> np.ndarray:
        """||v||_X of each row v of ``values``, shape ``(B, *grid.shape)``, zero
        outside the domain; :func:`norm_many` scales each row's max |v| to about 1."""
        raise NotImplementedError

    def extreme_exponent(self) -> str | None:
        """``key=value`` of the finite positive exponent (a ``divided`` key)
        farthest from 1 by ratio: the one to name when arithmetic overflows,
        as powers and roots of extreme exponents do.  None without one."""
        values = {k: v for k, v in self.params().items()
                  if k in self.divided and np.isscalar(v) and 0 < v < math.inf}
        if not values:
            return None
        key = max(values, key=lambda k: abs(math.log(values[k])))
        return f"{key}={values[key]!r}"


class Lebesgue(SpaceSpec):
    tag = "lebesgue"
    keys = divided = ("p",)

    def __init__(self, p: float):
        if not (1 <= p < math.inf):
            raise ValueError("Lebesgue exponent must lie in [1, inf)")
        self.p = float(p)

    def evaluate(self, values, grid):
        return _lebesgue(values, grid.cell_volume, self.p)


class WeightedLebesgue(SpaceSpec):
    """L^r with weight |x - c|^a (parametric) or explicit nonnegative samples."""

    tag = "weighted"
    keys = ("r", "a")
    optional = vectors = ("center",)
    divided = ("r",)

    def __init__(self, r: float, a: float | None = None, center=0.0, samples: np.ndarray | None = None):
        if not (0 < r < math.inf):
            raise ValueError("weighted Lebesgue exponent must be positive and finite")
        self.r = float(r)
        self.a = None if a is None else float(a)
        self.center = float(center) if np.isscalar(center) else center
        if not (self.a is None or math.isfinite(self.a)) or not np.all(np.isfinite(self.center)):
            raise ValueError("weight exponent and center must be finite")
        self.samples = None if samples is None else np.asarray(samples, dtype=float)
        if self.samples is None and self.a is None:
            raise ValueError("give either a power exponent or explicit weight samples")
        if self.samples is not None and np.any(self.samples < 0):
            raise ValueError("weight samples must be nonnegative")

    def weight_on(self, grid: Grid) -> np.ndarray:
        if self.samples is not None:
            if self.samples.shape != grid.shape:
                raise ValueError("explicit weight samples do not match the grid")
            return self.samples
        return _power_samples(grid, self.a, self.center)[1]

    def params(self) -> dict:
        return {"r": self.r, "weight": "explicit"} if self.samples is not None else super().params()

    def convexify(self, p):
        if self.samples is None:
            return super().convexify(p)
        return WeightedLebesgue(self.r / p, samples=self.samples)

    def evaluate(self, values, grid):
        return _lebesgue(values, grid.cell_volume, self.r, self.weight_on(grid))


def _power_samples(grid: Grid, a: float, center) -> tuple[tuple, np.ndarray]:
    """The center as a point of the grid's dimension and |x - c|^a at the cell centers."""
    c = _as_tuple(center, grid.dim)
    d = np.linalg.norm(grid.coords() - np.asarray(c), axis=1)
    if a < 0 and np.any(d == 0):
        raise ValueError("singular power weight hits a cell center exactly")
    return c, (d ** a).reshape(grid.shape)


class Lorentz(SpaceSpec):
    tag = "lorentz"
    keys = divided = ("r", "tau")

    def __init__(self, r: float, tau: float):
        if not (1 < r < math.inf and 1 < tau < math.inf):
            raise ValueError("Lorentz exponents must lie in (1, inf)")
        self.r = float(r)
        self.tau = float(tau)

    def evaluate(self, values, grid):
        """Closed-form Lorentz quasi-norms of the step rearrangements of the rows."""
        # descending and contiguous: numpy's power may take another path on a
        # reversed view, and then a row's result would depend on the batch
        v = -np.sort(-np.abs(_flat_rows(values)), axis=1)
        t = np.cumsum(np.full(v.shape[1], grid.cell_volume))
        e = self.tau / self.r
        tprev = np.concatenate(([0.0], t[:-1]))
        terms = v ** self.tau * (self.r / self.tau) * (t ** e - tprev ** e)
        return _root(np.sum(terms, axis=1), self.tau)


class _PhiSpace(SpaceSpec):
    """A space on an Orlicz function ``phi``: its text holds phi's ``p`` (or ``p1``
    and ``p2``), then the ``keys`` that follow ``phi`` in the constructor."""

    optional = ("p", "p1", "p2")

    @classmethod
    def from_params(cls, values, **context):
        kind = "power" if "p" in values else "two-power"
        phi_keys = OrliczFunction.KEYS[kind]
        check_params(f"space {cls.tag!r}", values, phi_keys + cls.keys)
        phi = OrliczFunction(kind, *(values[k] for k in phi_keys))
        return cls(phi, *(values[k] for k in cls.keys))

    def params(self):
        return {**self.phi.params(), **{k: getattr(self, k) for k in self.keys}}


class Orlicz(_PhiSpace):
    tag = "orlicz"
    divided = ("p", "p1", "p2")

    def __init__(self, phi: OrliczFunction):
        self.phi = phi

    def evaluate(self, values, grid):
        return _luxemburg(np.abs(_flat_rows(values)), grid.cell_volume, *self.phi.ends)


class OrliczSlice(_PhiSpace):
    tag = "orliczslice"
    keys = ("r", "t")
    divided = ("p", "p1", "p2", "r")

    def __init__(self, phi: OrliczFunction, r: float, t: float):
        if not (1 < r < math.inf):
            raise ValueError("slice outer exponent must lie in (1, inf)")
        if not t > 0:
            raise ValueError("slice radius must be positive")
        self.phi = phi
        self.r = float(r)
        self.t = float(t)

    def evaluate(self, values, grid):
        if self.t < min(grid.cell_size) / 2.0:
            raise ValueError("slice radius is below half a cell; ball degenerates")
        stencil = _ball_stencil(grid, self.t)
        vol, pad, cells = grid.cell_volume, [(k, k) for k in stencil.half], np.nonzero(stencil.inside)
        # the denominator |1_B(x,t)|_Phi: one solve per distinct ball count, for every row
        counts, which = np.unique(stencil.count.ravel(), return_inverse=True)
        ball = np.arange(cells[0].size) < counts[:, None]
        den = _luxemburg(ball.astype(float), vol, *self.phi.ends)[which]
        ratios = []
        for v in np.abs(values):  # row by row: the whole batch would hold rows x cells x ball
            balls = sliding_window_view(np.pad(v, pad), stencil.inside.shape)[(..., *cells)]
            ratios.append(_luxemburg(balls.reshape(grid.total_cells, -1), vol, *self.phi.ends) / den)
        return _lebesgue(np.array(ratios), vol, self.r)


class Morrey(SpaceSpec):
    tag = "morrey"
    keys = divided = ("r", "alpha")

    def __init__(self, r: float, alpha: float):
        if not (1 <= r <= alpha < math.inf):
            raise ValueError("Morrey exponents must satisfy 1 <= r <= alpha < inf")
        self.r = float(r)
        self.alpha = float(alpha)

    def evaluate(self, values, grid):
        return _morrey(values, grid, self.r, self.alpha, _clipped_radii(grid)).max(axis=(0, 2))


class BesovBourgainMorrey(SpaceSpec):
    """Dyadic-cube space with inner L^q per cube, l^r in position, l^tau in scale."""

    tag = "bbmorrey"
    keys = divided = ("q", "p", "r", "tau")

    def __init__(self, q: float, p: float, r: float, tau: float):
        if not (0 < q <= p <= r):
            raise ValueError("need 0 < q <= p <= r")
        if not (q < math.inf and p < math.inf):
            raise ValueError("q and p must be finite")
        if not tau > 0:
            raise ValueError("tau must be positive")
        self.q = float(q)
        self.p = float(p)
        self.r = float(r)
        self.tau = float(tau)

    def evaluate(self, values, grid):
        return _bbm_morrey(values, grid, self.q, self.p, self.r, self.tau)


class _Herz(SpaceSpec):
    """Exponents p, q and the power weight s^a shared by the Herz spaces."""

    keys = ("p", "q", "a")
    divided = ("p", "q")
    multiplied = ("a",)

    def __init__(self, p: float, q: float, a: float):
        if not (1 < p < math.inf and 1 < q < math.inf):
            raise ValueError("Herz exponents must lie in (1, inf)")
        self.p = float(p)
        self.q = float(q)
        self.weight = HerzWeight(a)

    @property
    def a(self) -> float:
        return self.weight.a

    def extreme_exponent(self):
        """``a``: the Herz sums scale their terms into range before the q-th
        power, so only the weight 2^(k a) itself can overflow."""
        return f"a={self.a!r}"


class HerzLocal(_Herz):
    tag = "herzlocal"
    optional = vectors = ("xi",)

    def __init__(self, p: float, q: float, a: float, xi=0.0):
        super().__init__(p, q, a)
        if not np.all(np.isfinite(xi)):
            raise ValueError("Herz centre xi must be finite")
        self.xi = float(xi) if np.isscalar(xi) else xi

    def evaluate(self, values, grid):
        return _herz(grid.coords(), np.abs(_flat_rows(values)), self.xi, self.p, self.q,
                     self.weight, grid.cell_volume)


class HerzGlobal(_Herz):
    tag = "herzglobal"

    def evaluate(self, values, grid):
        return _herz_global(values, grid, self.p, self.q, self.weight, default_xi_grid(grid))[0]


class MixedNorm(SpaceSpec):
    tag = "mixed"
    keys = vectors = divided = ("r",)

    def __init__(self, r):
        self.rs = tuple(float(x) for x in np.atleast_1d(r))
        if not self.rs:
            raise ValueError("mixed norm needs at least one exponent")
        if not all(1 < x < math.inf for x in self.rs):
            raise ValueError("mixed exponents must lie in (1, inf)")

    def params(self):
        return {"r": np.array(self.rs)}  # an array, so convexify can divide it by p

    def evaluate(self, values, grid):
        """Iterated midpoint sums of each row, innermost axis first with exponent rs[0]."""
        if len(self.rs) != grid.dim:
            raise ValueError(f"need {grid.dim} exponents, got {len(self.rs)}")
        t = np.abs(values)
        for r, h in zip(self.rs[:-1], grid.cell_size):
            t = (np.sum(t ** r, axis=1) * h) ** (1.0 / r)
        return _root(np.sum(t ** self.rs[-1], axis=1) * grid.cell_size[-1], self.rs[-1])


class VariableLebesgue(SpaceSpec):
    """Exponent field r(x); parametric affine ramp or explicit samples."""

    tag = "varleb"
    keys = ("base",)
    optional = ("slope", "axis")
    divided = ("base", "slope")

    def __init__(self, base: float | None = None, slope: float = 0.0, axis: int = 0,
                 samples: np.ndarray | None = None):
        self.base = None if base is None else float(base)
        self.slope = float(slope)
        self.axis = as_int(axis, "varleb axis")
        self.samples = None if samples is None else np.asarray(samples, dtype=float)
        if self.samples is None and base is None:
            raise ValueError("give either a parametric exponent or explicit samples")

    def exponent_on(self, grid: Grid) -> np.ndarray:
        """r(x) at the cell centres; :meth:`evaluate` checks 1 < r < inf."""
        if self.samples is not None:
            if self.samples.shape != grid.shape:
                raise ValueError("exponent samples do not match the grid")
            return self.samples
        return self.base + self.slope * grid.meshgrid()[check_axis(self.axis, grid.dim, "exponent axis")]

    def params(self):
        return {"exponent": "explicit"} if self.samples is not None else super().params()

    def convexify(self, p):
        if self.samples is None:
            return super().convexify(p)
        return VariableLebesgue(samples=self.samples / p)

    def evaluate(self, values, grid):
        """Luxemburg-type norms of the rows with the pointwise exponent r(x)."""
        ex = self.exponent_on(grid)
        lo, hi = float(np.min(ex)), float(np.max(ex))
        if not (1 < lo <= hi < math.inf):
            raise ValueError(f"variable exponent must satisfy 1 < min <= max < inf, "
                             f"got [{lo}, {hi}]")
        return _luxemburg(np.abs(_flat_rows(values)), grid.cell_volume, ex.ravel(), ex.ravel())


parse_space = SpaceSpec.parse


# ---------------------------------------------------------------------------
# elementary evaluators
# ---------------------------------------------------------------------------


def _flat_rows(values: np.ndarray) -> np.ndarray:
    """``values`` of shape (B, *shape) as B flat rows."""
    return values.reshape(len(values), -1)


def _root(sums: np.ndarray, p: float) -> np.ndarray:
    """sums ** (1/p), entry by entry with the C library's pow as for Python
    floats; numpy's vectorised power differs from it in some last bits."""
    return np.array([s ** (1.0 / p) for s in sums.tolist()])


def _lebesgue(values: np.ndarray, vol: float, p: float, weight: np.ndarray | None = None):
    """(sum |v|^p * weight * vol)^(1/p) of each row v of ``values``."""
    terms = np.abs(values) ** p
    return _root(np.sum(_flat_rows(terms if weight is None else terms * weight), axis=1) * vol, p)


def weighted_lebesgue_norm(f: SampledField, r: float, weight: np.ndarray,
                           omega: DomainMask | None = None) -> float:
    """(sum |f|^r * weight * cellvol)^(1/r) over the domain."""
    return float(norm_many(f.values[None], f.grid, WeightedLebesgue(r, samples=weight), omega)[0])


def lorentz_norm(f: SampledField, r: float, tau: float, omega: DomainMask | None = None) -> float:
    """Exact closed-form Lorentz quasi-norm of the step-function rearrangement."""
    return float(norm_many(f.values[None], f.grid, Lorentz(r, tau), omega)[0])


def _luxemburg(absvals: np.ndarray, vol: float, lo, hi) -> np.ndarray:
    """Luxemburg norms of the rows of ``absvals``: per row the lam solving
    vol * sum_j phi(v_j / lam) = 1, phi(u) = u^q with q = ``lo`` for u < 1 and
    ``hi`` for u >= 1 (scalars, or one per entry).

    In x = log(lam / max_j v_j), g(x) = log vol + log sum_j exp(max(lo d_j,
    hi d_j)) with d_j = log v_j - x is a log-sum-exp of convex terms of slope
    -q <= -1: convex and strictly decreasing.  Its tangents lie below it, so
    the first Newton step, from x = 0, lands at or left of the root from
    either side, and the later steps rise to it without overshooting (when
    lo = hi, g is affine and the first step lands on it).  A row whose |step|
    is at most LUXEMBURG_REL_TOL leaves the batch, so its norm does not depend
    on the others.  Sums are shifted by their largest term: no power overflows."""
    ref = absvals.max(axis=1)
    left = np.flatnonzero(ref > 0.0)  # the rows still stepping; a zero row has norm 0
    with np.errstate(divide="ignore"):  # log 0 = -inf: a zero entry adds no term
        a = np.log(absvals[left] / ref[left, None])
    same = np.array_equal(lo, hi)

    def newton(x):
        """The Newton step -g(x) / g'(x) of each row."""
        d = a - x[:, None]
        q = lo if same else np.where(d >= 0.0, hi, lo)
        t = q * d
        top = t.max(axis=1)
        w = np.exp(t - top[:, None])
        s = np.add.reduce(w, axis=1)
        return (math.log(vol) + top + np.log(s)) * s / np.add.reduce(q * w, axis=1)

    x = np.zeros(left.size)
    logs = np.zeros(ref.size)  # each row's result, log of lam / ref
    for _ in range(100):
        step = newton(x)
        x = x + step
        done = np.abs(step) <= LUXEMBURG_REL_TOL
        if done.any():
            logs[left[done]] = x[done]
            left, a, x = left[~done], a[~done], x[~done]
            if not left.size:
                break
    logs[left] = x
    return ref * np.exp(logs)


def luxemburg_norm(f: SampledField, phi: OrliczFunction, omega: DomainMask | None = None) -> float:
    return float(norm_many(f.values[None], f.grid, Orlicz(phi), omega)[0])


def variable_lebesgue_norm(f: SampledField, exponent: np.ndarray,
                           omega: DomainMask | None = None) -> float:
    """Luxemburg-type norm with pointwise exponent field r(x)."""
    return float(norm_many(f.values[None], f.grid, VariableLebesgue(samples=exponent), omega)[0])


def orlicz_slice_norm(f: SampledField, phi: OrliczFunction, r: float, t: float,
                      omega: DomainMask | None = None) -> float:
    """Outer L^r over the box of the slice ratio |f 1_B(x,t)|_Phi / |1_B(x,t)|_Phi.

    B(x, t) holds the box cells of the ball stencil of radius t around x.  The
    denominator depends only on how many cells the ball holds, so it is solved
    once per distinct count.
    """
    return float(norm_many(f.values[None], f.grid, OrliczSlice(phi, r, t), omega)[0])


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _BallStencil:
    """Cells of the ball of one radius around a cell, as integer offsets.

    ``inside`` marks the offsets in the ball over the box of half-widths
    ``half`` around the centre, each at most n - 1: no offset past it joins
    two cells of the grid.  Each offset on the leading axes gives one
    interval of half-width ``w`` along the last axis: ``rows`` holds
    ``(w, dst, src)`` with the slices that add the interval sums centred at
    ``src`` to the cells at ``dst``, and ``ends[w]`` the clipped last-axis
    prefix indices of those intervals.  ``count`` is the number of box cells
    in the ball around each cell.
    """

    half: tuple[int, ...]
    inside: np.ndarray
    rows: tuple
    ends: dict
    count: np.ndarray


@lru_cache(maxsize=128)
def _ball_stencil(grid: Grid, radius: float) -> _BallStencil:
    if not 0 <= radius < math.inf:
        raise ValueError(f"ball radius must be finite and >= 0, got {radius}")
    h = grid.cell_size
    # radius // h can round down, so reach one offset further on each side;
    # no two cells of the grid lie more than n - 1 offsets apart on an axis
    half = tuple(min(int(radius // h[i]) + 1, n - 1) for i, n in enumerate(grid.shape))
    axes = [np.arange(-k, k + 1) * h[i] for i, k in enumerate(half)]
    mesh = np.meshgrid(*axes, indexing="ij")
    inside = np.sqrt(sum(m ** 2 for m in mesh)) <= radius
    n_last = grid.shape[-1]
    cells = np.arange(n_last)
    rows, ends = [], {}
    for lead in np.ndindex(inside.shape[:-1]):
        width = int(np.count_nonzero(inside[lead]))
        offset = [j - k for j, k in zip(lead, half)]
        if width == 0 or any(abs(o) >= n for o, n in zip(offset, grid.shape)):
            continue
        w = (width - 1) // 2
        # slices over the grid's axes after an Ellipsis, which takes any batch axes
        lead_axes = list(zip(offset, grid.shape))
        dst = (..., *(slice(max(0, -o), n - max(0, o)) for o, n in lead_axes), slice(None))
        src = (..., *(slice(max(0, o), n - max(0, -o)) for o, n in lead_axes), slice(None))
        rows.append((w, dst, src))
        ends[w] = (np.clip(cells - w, 0, n_last), np.clip(cells + w + 1, 0, n_last))
    stencil = _BallStencil(half, inside, tuple(rows), ends, np.zeros(grid.shape))
    _add_ball_sums(_prefix(np.ones(grid.shape), grid.dim - 1), stencil, stencil.count)
    stencil.count.setflags(write=False)  # shared by every caller of the cache
    return stencil


def _prefix(arr: np.ndarray, batch: int = 0) -> np.ndarray:
    """Cumulative sums along the axes after the first ``batch``, each padded with a leading zero."""
    pre = arr
    for ax in range(batch, arr.ndim):
        pre = np.cumsum(pre, axis=ax)
        pre = np.concatenate((np.zeros(pre.shape[:ax] + (1,) + pre.shape[ax + 1:]), pre), axis=ax)
    return pre


def _add_ball_sums(prefix: np.ndarray, stencil: _BallStencil, out: np.ndarray) -> None:
    segments = {w: prefix[..., b] - prefix[..., a] for w, (a, b) in stencil.ends.items()}
    for w, dst, src in stencil.rows:
        out[dst] += segments[w][src]


def ball_sums(values: np.ndarray, grid: Grid, radii) -> np.ndarray:
    """Sums of ``values`` over the box cells of the ball of each radius around
    every cell, shape ``(len(radii), *values.shape)``; ``values`` may carry
    batch axes in front of ``grid.shape``.

    Cell j lies in the ball of radius r around cell i when |(j - i) h| <= r,
    measured in integer offsets times the cell sizes.  The ball is one
    interval along the last axis per offset on the other axes, and each
    interval sum is a difference of last-axis prefix sums.  For nonnegative
    values the prefix sums never decrease, so the sums are nonnegative.
    """
    values = np.asarray(values, dtype=float)
    prefix = _prefix(values, values.ndim - 1)
    out = np.zeros((len(radii),) + values.shape)
    for acc, rad in zip(out, radii):
        _add_ball_sums(prefix, _ball_stencil(grid, float(rad)), acc)
    return out


# ---------------------------------------------------------------------------
# Morrey
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallFamily:
    centers: np.ndarray  # (M, dim)
    radii: np.ndarray    # (K,)


def default_radii(grid: Grid) -> np.ndarray:
    """Dyadic radii from the smallest cell size up to the box diameter."""
    hmin = min(grid.cell_size)
    radii = [hmin]
    while radii[-1] < grid.diameter():
        radii.append(radii[-1] * 2.0)
    return np.array(radii)


def _clipped_radii(grid: Grid) -> np.ndarray:
    """The dyadic radii with the last one clipped to the box diameter."""
    radii = default_radii(grid)
    radii[-1] = grid.diameter()
    return radii


def default_ball_family(grid: Grid) -> BallFamily:
    """Balls at every cell center with the :func:`_clipped_radii`."""
    return BallFamily(grid.coords(), _clipped_radii(grid))


def _unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def _morrey(values: np.ndarray, grid: Grid, r: float, alpha: float, radii: np.ndarray,
            centres: np.ndarray | None = None) -> np.ndarray:
    """|B|^(1/alpha - 1/r) * ||v||_{L^r(B)} for each ball B of the radii around
    the cells ``centres`` (flat indices; None for every cell) and each row v of
    ``values``, shape (radii, B, centres)."""
    mass = np.abs(values) ** r * grid.cell_volume
    sums = ball_sums(mass, grid, radii).reshape(radii.size, len(values), -1)
    if centres is not None:
        sums = sums[..., centres]
    scale = (_unit_ball_volume(grid.dim) * radii ** grid.dim) ** (1.0 / alpha - 1.0 / r)
    return scale[:, None, None] * sums ** (1.0 / r)


def morrey_norm(f: SampledField, r: float, alpha: float, omega: DomainMask | None = None,
                ball_family: BallFamily | None = None, return_witness: bool = False):
    """max over balls B of |B|^(1/alpha - 1/r) * ||f||_{L^r(B)}.

    |B| is the geometric ball volume; cells belong to B by the rule of
    :func:`ball_sums`, so ball centres must be cell centres.  The supremum
    over all balls is approached from below by the finite family; the
    witness is the first maximum, radii outermost.
    """
    grid = f.grid
    fam = ball_family if ball_family is not None else default_ball_family(grid)
    if fam.centers.size == 0 or fam.radii.size == 0:
        raise ValueError("ball family is empty")
    centres = None if ball_family is None else _cell_index(grid, fam.centers)
    row, e = _scaled_rows(f.values[None], grid, omega)
    vals = _morrey(row, grid, r, alpha, fam.radii, centres)[:, 0]
    k = int(np.argmax(vals))
    best = float(np.ldexp(vals.flat[k], e[0]))
    if best > 0.0:
        kr, kc = divmod(k, vals.shape[1])
        witness = (tuple(fam.centers[kc]), float(fam.radii[kr]))
    else:
        best, witness = 0.0, (tuple(fam.centers[0]), float(fam.radii[0]))
    if return_witness:
        return best, witness
    return best


def _cell_index(grid: Grid, points: np.ndarray) -> np.ndarray:
    """Flat C-order indices of the cells centred at ``points`` (M, dim)."""
    pos = []
    for i in range(grid.dim):
        k = np.rint((points[:, i] - grid.lo[i]) / grid.cell_size[i] - 0.5).astype(int)
        inside = (k >= 0) & (k < grid.shape[i])
        off = np.abs(grid.axis_centers(i)[np.clip(k, 0, grid.shape[i] - 1)] - points[:, i])
        if not np.all(inside & (off <= 1e-9 * grid.cell_size[i])):
            raise ValueError("ball centres must be cell centres")
        pos.append(k)
    return np.ravel_multi_index(pos, grid.shape)


# ---------------------------------------------------------------------------
# dyadic cubes and the Besov-Bourgain-Morrey norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicCube:
    nu: int
    m: tuple[int, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @property
    def volume(self) -> float:
        return float(np.prod([b - a for a, b in zip(self.lo, self.hi)]))


@dataclass(frozen=True)
class DyadicSystem:
    """Shifted dyadic system: cubes 2^nu (m + (0,1]^n + (-1)^nu shift)."""

    shift: tuple[float, ...]
    nu_min: int
    nu_max: int

    def __post_init__(self):
        for s in self.shift:
            if s not in (0.0, 1.0 / 3.0, 2.0 / 3.0):
                raise ValueError("shift entries must be 0, 1/3 or 2/3")
        if self.nu_max < self.nu_min:
            raise ValueError("empty level range")


def _dyadic_axes(system: DyadicSystem, nu: int, lo, hi) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis, the positions m and lower edges of the level-nu cubes of the
    system that meet the box [lo, hi]."""
    side = 2.0 ** nu
    sgn = -1.0 if (nu % 2) else 1.0
    axes = []
    for a, b, s in zip(lo, hi, system.shift):
        # cube extent along the axis: side*(m + sgn*s) < x <= side*(m + 1 + sgn*s)
        m = np.arange(math.floor(a / side - sgn * s), math.ceil(b / side - sgn * s))
        clo = side * (m + sgn * s)
        keep = (clo + side > a) & (clo < b)
        axes.append((m[keep], clo[keep]))
    return axes


def dyadic_cover(center, radius: float):
    """Smallest cube among the 3^n shifted systems containing the ball.

    Returns ``(shift, DyadicCube)`` or None when no candidate contains the ball
    within the searched levels.
    """
    c = np.atleast_1d(np.asarray(center, dtype=float))
    n = c.size
    nu0 = math.ceil(math.log2(2.0 * radius))
    best = None
    for shift in product((0.0, 1.0 / 3.0, 2.0 / 3.0), repeat=n):
        for nu in range(nu0, nu0 + COVER_LEVELS):
            side = 2.0 ** nu
            sgn = -1.0 if (nu % 2) else 1.0
            m = tuple(math.floor((c[i] - radius) / side - sgn * shift[i]) for i in range(n))
            clo = np.array([side * (m[i] + sgn * shift[i]) for i in range(n)])
            chi = clo + side
            # closed ball inside the half-open cube
            if np.all(c - radius > clo) and np.all(c + radius <= chi):
                cube = DyadicCube(nu, m, tuple(clo), tuple(chi))
                if best is None or cube.volume < best[1].volume:
                    best = (shift, cube)
                break  # larger nu only gives bigger cubes for this shift
    return best


def _cell_ranges(grid: Grid, axis: int, lo, hi, lo_side: str):
    """Index ranges [a, b) of the cells whose centers lie between ``lo`` and
    ``hi`` (arrays) along one axis.  The upper end is closed; the lower end
    is closed for ``lo_side="left"`` and open for ``lo_side="right"``."""
    centers = grid.axis_centers(axis)
    return np.searchsorted(centers, lo, side=lo_side), np.searchsorted(centers, hi, side="right")


def _box_sums(prefix: np.ndarray, a, b):
    """Sums over the index boxes [a, b) from the padded prefix array, by
    inclusion-exclusion; ``a`` and ``b`` hold one index array per trailing
    axis of ``prefix``, and all of them broadcast together."""
    dim = len(a)
    total = 0.0
    for corner in product((0, 1), repeat=dim):
        sel = tuple(b[i] if corner[i] else a[i] for i in range(dim))
        total = total + (-1) ** (dim - sum(corner)) * prefix[(..., *sel)]
    return total


def bbm_morrey_norm(f: SampledField, q: float, p: float, r: float, tau: float,
                    omega: DomainMask | None = None,
                    nu_range: tuple[int, int] | None = None) -> float:
    """Triple dyadic assembly: per-cube L^q, prefactor |Q|^(1/p-1/q), l^r, l^tau.

    Uses the unshifted dyadic system over the grid box.  Sampled fields are
    piecewise constant, so one sub-grid level suffices; levels below that see
    constant values per cube and contribute nothing new.
    """
    row, e = _scaled_rows(f.values[None], f.grid, omega)
    return float(np.ldexp(_bbm_morrey(row, f.grid, q, p, r, tau, nu_range)[0], e[0]))


@lru_cache(maxsize=128)
def _dyadic_boxes(grid: Grid, nu_range: tuple[int, int] | None) -> tuple:
    """Per level nu of the unshifted dyadic system over the grid box (by default
    from below the cell size to above the box diameter), the side 2^nu and the
    index boxes [a, b) of its cubes that hold a cell, as :func:`numpy.ix_` arrays."""
    if nu_range is None:
        nu_range = (math.floor(math.log2(min(grid.cell_size))) - 1,
                    math.ceil(math.log2(grid.diameter())) + 1)
    system = DyadicSystem((0.0,) * grid.dim, *nu_range)
    levels = []
    for nu in range(nu_range[0], nu_range[1] + 1):
        side = 2.0 ** nu
        # dyadic cubes are half-open, (lo, hi]
        a, b = [], []
        for i, (_, clo) in enumerate(_dyadic_axes(system, nu, grid.lo, grid.hi)):
            ai, bi = _cell_ranges(grid, i, clo, clo + side, "right")
            # cubes with an empty range hold no cell; inclusion-exclusion over
            # one leaves a rounding residue, not an exact 0
            a.append(ai[bi > ai])
            b.append(bi[bi > ai])
        levels.append((side, np.ix_(*a), np.ix_(*b)))
    return tuple(levels)


def _bbm_morrey(values: np.ndarray, grid: Grid, q: float, p: float, r: float, tau: float,
                nu_range: tuple[int, int] | None = None) -> np.ndarray:
    """:func:`bbm_morrey_norm` of each row of ``values``, shape ``(B, *grid.shape)``,
    zero outside the domain."""
    prefix = _prefix(np.abs(values) ** q * grid.cell_volume, 1)
    levels = _dyadic_boxes(grid, None if nu_range is None else tuple(nu_range))
    terms = np.zeros((len(values), len(levels)))  # per row, each level's l^r sum
    for k, (side, a, b) in enumerate(levels):
        # C order: with the batch axis innermost a row's sum would depend on the others
        s = np.ascontiguousarray(_box_sums(prefix, a, b).reshape(len(values), -1))
        # in 2D and up a cube of zeros sums to a rounding residue of either
        # sign; a negative one would make the q-th root NaN
        vals = (side ** grid.dim) ** (1.0 / p - 1.0 / q) * np.where(s > 0.0, s, 0.0) ** (1.0 / q)
        terms[:, k] = vals.max(axis=1) if math.isinf(r) else _root(np.sum(vals ** r, axis=1), r)
    return terms.max(axis=1) if math.isinf(tau) else _root(np.sum(terms ** tau, axis=1), tau)


# ---------------------------------------------------------------------------
# Herz
# ---------------------------------------------------------------------------


def _herz(pts, rows: np.ndarray, xi, p: float, q: float, weight: HerzWeight, vol: float):
    """The Herz sums around ``xi`` of the flat |f| rows ``rows`` at the cell centres ``pts``."""
    # |pts - xi| summed as np.linalg.norm sums it, without its slow short-axis reduce
    d = np.sqrt(sum((pts[:, i] - c) ** 2 for i, c in enumerate(_as_tuple(xi, pts.shape[1]))))
    cells = np.flatnonzero(d > 0)
    if not cells.size:
        return np.zeros(len(rows))
    k = np.floor(np.log2(d[cells])).astype(int) + 1
    k0 = int(k.min())
    nk = int(k.max()) - k0 + 1
    mass = np.take(rows, cells, axis=1) ** p * vol
    # one bincount for all rows: annulus j of row b is bin b * nk + j, and
    # every bin adds its cells in cell order
    bins = (np.arange(len(rows))[:, None] * nk + (k - k0)).ravel()
    sums = np.bincount(bins, weights=mass.ravel(), minlength=len(rows) * nk).reshape(-1, nk)
    # log2 bounds on a row's largest term w(2^k) r_k, r_k = ||f||_{L^p(annulus k)}:
    # the rows come scaled to max |v| in [1/2, 1), so r_k <= (cells vol)^(1/p),
    # and the annulus of that max (unless it sits at xi) has r_k >= vol^(1/p) / 2
    ka = (k0 * weight.a, (k0 + nk - 1) * weight.a)
    top = max(ka) + math.log2(cells.size * vol) / p
    if top >= 1023:
        raise OverflowError("the Herz weight 2^(k a) overflows")
    terms = (2.0 ** np.arange(k0, k0 + nk)) ** weight.a * sums ** (1.0 / p)
    if q * top < 1000 and q * (min(ka) + math.log2(vol) / p - 1) > -1000:
        return _root(np.sum(terms ** q, axis=1), q)
    # q-th powers that could leave the float range: each row is divided by the
    # power of two 2^e just above its largest term, which is exact, and its
    # result multiplied back
    e = np.frexp(terms.max(axis=1))[1]
    return np.ldexp(_root(np.sum(np.ldexp(terms, -e[:, None]) ** q, axis=1), q), e)


def herz_local_norm(f: SampledField, p: float, q: float, weight: HerzWeight, xi,
                    omega: DomainMask | None = None) -> float:
    """{sum_k [w(2^k)]^q ||f||^q_{L^p(annulus k)}}^(1/q) with annuli around xi.

    Annulus k holds cells with 2^(k-1) <= |x - xi| < 2^k.  A cell center
    coinciding with xi (distance zero) belongs to no annulus and is skipped,
    matching the puncture at xi in the continuum definition.
    """
    return float(norm_many(f.values[None], f.grid, HerzLocal(p, q, weight.a, xi), omega)[0])


def default_xi_grid(grid: Grid) -> np.ndarray:
    """Coarse sub-lattice of cell centers (every XI_STRIDE-th per axis) plus the origin."""
    sel = [grid.axis_centers(i)[::XI_STRIDE] for i in range(grid.dim)]
    mesh = np.meshgrid(*sel, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    return np.vstack([pts, np.zeros((1, grid.dim))])


def _herz_global(values: np.ndarray, grid: Grid, p: float, q: float, weight: HerzWeight,
                 xi_grid: np.ndarray):
    """Per row of ``values``, the max over the centres of the local Herz norm and
    the index of the first centre that attains it."""
    pts = grid.coords()
    rows = np.abs(_flat_rows(values))
    vals = np.array([_herz(pts, rows, xi, p, q, weight, grid.cell_volume) for xi in xi_grid])
    best = np.argmax(vals, axis=0)
    return vals[best, np.arange(len(rows))], best


def herz_global_norm(f: SampledField, p: float, q: float, weight: HerzWeight,
                     omega: DomainMask | None = None,
                     xi_grid: np.ndarray | None = None):
    """max over sampled centers of the local Herz norm; returns (value, best xi)."""
    if xi_grid is None:
        xi_grid = default_xi_grid(f.grid)
    xi_grid = np.atleast_2d(np.asarray(xi_grid, dtype=float))
    if xi_grid.shape[0] == 0:
        raise ValueError("xi grid is empty")
    row, e = _scaled_rows(f.values[None], f.grid, omega)
    vals, best = _herz_global(row, f.grid, p, q, weight, xi_grid)
    return float(np.ldexp(vals[0], e[0])), tuple(float(x) for x in xi_grid[best[0]])


# ---------------------------------------------------------------------------
# mixed norm
# ---------------------------------------------------------------------------


def mixed_norm(f: SampledField, rs, omega: DomainMask | None = None) -> float:
    """Iterated midpoint sums, innermost axis first with exponent rs[0]."""
    return float(norm_many(f.values[None], f.grid, MixedNorm(rs), omega)[0])


# ---------------------------------------------------------------------------
# dispatcher, convexification, zero extension
# ---------------------------------------------------------------------------


def _scaled_rows(values: np.ndarray, grid: Grid, omega: DomainMask | None):
    """The rows of ``values``, shape ``(B, *grid.shape)``, zero outside ``omega``
    and each divided by the power of two 2^e just above its max |v|, which is
    exact; returns them and the exponents e."""
    v = np.asarray(values, dtype=float)
    if v.shape[1:] != grid.shape:
        raise ValueError(f"rows of shape {v.shape[1:]} do not match the grid {grid.shape}")
    cells = mask_cells(omega, grid)
    if cells is not None:
        v = np.where(cells, v, 0.0)
    e = np.frexp(np.abs(v).max(axis=tuple(range(1, v.ndim)), initial=0.0))[1]
    return np.ldexp(v, -e.reshape((-1,) + (1,) * grid.dim)), e


def norm_many(values: np.ndarray, grid: Grid, space: SpaceSpec,
              omega: DomainMask | None = None) -> np.ndarray:
    """||v||_{X(Omega)} of each row v of ``values``, shape ``(B, *grid.shape)``,
    for any catalog space (zero-extension outside).

    Every catalog norm is 1-homogeneous, so each row is first divided by the
    power of two 2^e just above its max |v| on the domain, which is exact, and
    its result is multiplied back; powers |v|^p then neither overflow nor
    underflow.  A row's norm does not depend on the other rows.
    """
    scaled, e = _scaled_rows(values, grid, omega)
    return np.ldexp(space.evaluate(scaled, grid), e) if len(e) else np.zeros(0)


def norm(f: SampledField, space: SpaceSpec, omega: DomainMask | None = None) -> float:
    """Evaluate ||f||_{X(Omega)} for any catalog space; see :func:`norm_many`."""
    return float(norm_many(f.values[None], f.grid, space, omega)[0])


def convexify(space: SpaceSpec, p: float) -> SpaceSpec:
    """Catalog member X^(1/p): parameters scaled so that

        norm(|f|^p, convexify(X, p)) ** (1/p) == norm(f, X).
    """
    if not p > 0:
        raise ValueError("convexification exponent must be positive")
    return space.convexify(p)


def zero_extend(values_on_omega: np.ndarray, omega: DomainMask) -> SampledField:
    """Fill domain cells (canonical C order) with the given values, zero outside."""
    vals = np.asarray(values_on_omega, dtype=float).ravel()
    idx = np.flatnonzero(omega.cells.ravel())
    if vals.size != idx.size:
        raise ValueError(f"expected {idx.size} domain-cell values, got {vals.size}")
    full = np.zeros(omega.grid.total_cells)
    full[idx] = vals
    return SampledField(omega.grid, full.reshape(omega.grid.shape))

