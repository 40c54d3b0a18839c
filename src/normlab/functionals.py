"""Nonlocal gradient functionals: the Gagliardo seminorm, the scaled limit
that recovers the gradient norm as the smoothness index tends to one, and the
level-set functional with its lambda sweep.

The singular kernels |x-y|^(-n-sp) and |x-y|^(gamma-n) are integrated by a
midpoint pair sum away from the diagonal plus a frozen-gradient analytic model
inside a small near-field ball (the "equivalent-ball correction"); see
:class:`KernelPolicy`.  A pure-discrete mode (``diagonal="exclude"``) exists
so evaluators can be matched bitwise against naive double-loop oracles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import DomainMask, Grid, SampledField, gradient_magnitude
from .spaces import SpaceSpec, norm, norm_many

__all__ = [
    "KernelPolicy",
    "BsvyParams",
    "GagliardoParams",
    "FunctionalReport",
    "bbm_constant",
    "sphere_area",
    "sphere_moment",
    "gagliardo_seminorm",
    "gagliardo_seminorm_sweep",
    "fractional_inner_field",
    "bbm_scaled_value",
    "bbm_limit_extrapolate",
    "bsvy_inner",
    "bsvy_inner_profile",
    "bsvy_values",
    "bsvy_functional",
    "bsvy_sup",
    "default_lambda_grid",
    "weak_product_quasinorm",
    "weighted_mu_measure",
    "weak_holder_check",
    "WeakHolderResult",
    "sobolev_norm",
]


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def bbm_constant(p: float, n: int) -> float:
    """The gradient-recovery limit constant 2 pi^((n-1)/2) G((p+1)/2) / (p G((p+n)/2))."""
    if not (1 <= p < math.inf):
        raise ValueError("p must lie in [1, inf)")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return 2.0 * math.pi ** ((n - 1) / 2.0) * math.gamma((p + 1) / 2.0) / (
        p * math.gamma((p + n) / 2.0)
    )


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n (equals 2 when n = 1)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def sphere_moment(p: float, n: int) -> float:
    """Integral of |e . theta|^p over the unit sphere; the directional average
    that replaces the full sphere measure when the increment f(x)-f(y) is
    modeled by grad f(x) . (x-y).  Equals p * bbm_constant(p, n)."""
    return p * bbm_constant(p, n)


# ---------------------------------------------------------------------------
# policies and parameter bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelPolicy:
    """Diagonal/near-field handling for singular pair kernels.

    diagonal:          "equivalent-ball" replaces pairs closer than
                       near_window * h by a frozen-gradient analytic ball
                       integral; "exclude" drops the diagonal and keeps every
                       off-diagonal cell pair discrete (oracle mode).
    near_window:       near-field radius in units of the smallest cell size.
    subsample:         per-axis refinement factor for cells just outside the
                       near-field ball, where whole-cell membership tests are
                       at their coarsest (the level-set floor for negative
                       kernel exponents, the handoff shell for positive ones).
    subsample_window:  radius (in cells) of the subsampled neighborhood.
    """

    diagonal: str = "equivalent-ball"
    near_window: float = 1.5
    subsample: int = 4
    subsample_window: float = 4.0

    def __post_init__(self):
        if self.diagonal not in ("equivalent-ball", "exclude"):
            raise ValueError("diagonal policy must be 'equivalent-ball' or 'exclude'")
        if self.subsample < 1:
            raise ValueError("subsample factor must be >= 1")
        if self.near_window <= 0:
            raise ValueError("near window must be positive")

    def canonical(self) -> str:
        return (f"diagonal={self.diagonal},near_window={self.near_window!r},"
                f"subsample={self.subsample},subsample_window={self.subsample_window!r}")


DEFAULT_POLICY = KernelPolicy()
EXCLUDE_POLICY = KernelPolicy(diagonal="exclude")
LAMBDA_POINTS = 40  # default lambda grid: its points, and its span in units of max |grad f|
LAMBDA_DECADES = (1e-3, 1e4)
REFINE_POINTS = 10  # lambdas added by each extension or refinement pass of bsvy_sup
# at p = 2 the Gagliardo kernels sum the offsets with max |o_i| <= NEAR_CELLS
# directly and the rest by FFT correlation, which loses digits to cancellation
# near the diagonal
NEAR_CELLS = 16
# |f|^p and |grad f|^2 stay inside 2^(+-SAFE_EXP2) times the kernel factors
# without rescaling; outside, the Gagliardo entry points divide f by a power
# of two
SAFE_EXP2 = 512


@dataclass(frozen=True)
class BsvyParams:
    """Level-set functional parameters: kernel exponent gamma and power p."""

    gamma: float
    p: float

    def __post_init__(self):
        if self.gamma == 0 or not math.isfinite(self.gamma):
            raise ValueError("gamma must be nonzero and finite")
        if not (1 <= self.p < math.inf):
            raise ValueError("p must lie in [1, inf)")

    @property
    def theorem_conditional(self) -> bool:
        """p = 1 with gamma in [-1, 0) lies outside the classical hypothesis set."""
        return self.p == 1.0 and -1.0 <= self.gamma < 0.0


@dataclass(frozen=True)
class GagliardoParams:
    s: float
    p: float

    def __post_init__(self):
        if not (0 < self.s < 1):
            raise ValueError("s must lie in (0, 1)")
        if not (1 <= self.p < math.inf):
            raise ValueError("p must lie in [1, inf)")


# ---------------------------------------------------------------------------
# pair walk and near-field helpers
# ---------------------------------------------------------------------------


def _half_offsets(grid: Grid, policy: KernelPolicy):
    """The integer offsets whose first nonzero component is positive, in the C
    order of the box [-(n-1), n-1]^dim where they follow the zero offset, with
    their lengths and whether each lies outside the policy's analytic near
    field (all do under "exclude")."""
    shape = grid.shape
    dims = [2 * n - 1 for n in shape]
    total = math.prod(dims)
    offs = np.stack(np.unravel_index(np.arange(total // 2 + 1, total), dims), axis=1)
    offs -= np.asarray(shape) - 1
    dists = np.linalg.norm(offs * np.asarray(grid.cell_size), axis=1)
    eq_ball = policy.diagonal == "equivalent-ball"
    keep = dists > (policy.near_window * min(grid.cell_size) if eq_ball else 0.0)
    return offs, dists, keep


def _pair_walk(grid: Grid, mask: np.ndarray | None, policy: KernelPolicy = EXCLUDE_POLICY,
               radius: float = math.inf):
    """Walk the integer offsets whose first nonzero component is positive and
    at most ``radius`` on every axis.

    Each unordered cell pair {x, x+o} appears exactly once; callers accumulate
    contributions at both ends.  Offsets inside the policy's analytic near
    field (none under "exclude") are only counted.  Returns ``(removed,
    kept)`` where ``kept`` yields ``(offset, distance, sa, sb, pair_mask)``
    per remaining offset: the slices ``sa``/``sb`` pick the cells x and x+o,
    and ``pair_mask`` is ``mask[sa] & mask[sb]`` (None without a mask).
    """
    offs, dists, keep = _half_offsets(grid, policy)
    walked = keep & (np.abs(offs).max(axis=1, initial=0) <= radius)
    cols = offs[walked].T.tolist()
    kept_dists = dists[walked]
    # per-axis (sa, sb) slice pairs indexed by the offset itself: entries for
    # o >= 0 come first, so a negative o indexes from the end of the list
    reach = [int(min(n - 1, radius)) for n in grid.shape]
    tables = [[(slice(0, n - o), slice(o, n)) for o in range(r + 1)]
              + [(slice(-o, n), slice(0, n + o)) for o in range(-r, 0)]
              for n, r in zip(grid.shape, reach)]

    def kept():
        # callers do scalar arithmetic on dist, which is faster on Python
        # floats than on numpy scalars; per-axis columns and a lazy map keep
        # the walk's own memory small
        for dist, *off in zip(map(float, kept_dists), *cols):
            sa, sb = zip(*[tab[o] for tab, o in zip(tables, off)])
            pm = None if mask is None else mask[sa] & mask[sb]
            yield off, dist, sa, sb, pm

    return int(np.count_nonzero(~keep)), kept()


def _far_offsets(grid: Grid, policy: KernelPolicy):
    """The kept offsets that ``_pair_walk(..., radius=NEAR_CELLS)`` leaves out:
    their flat indices in the offset box [-(n-1), n-1]^dim and their lengths."""
    offs, dists, keep = _half_offsets(grid, policy)
    far = keep & (np.abs(offs).max(axis=1, initial=0) > NEAR_CELLS)
    return np.flatnonzero(far) + (offs.shape[0] + 1), dists[far]


def _fast_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length the real FFT handles fast."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            k = p35
            while k < n:
                k *= 2
            best = min(best, k)
            p35 *= 3
        p5 *= 5
    return best


def _fft_pair_terms(v: np.ndarray, mask: np.ndarray | None, kernel: np.ndarray | None = None):
    """p = 2 pair sums for all offsets at once, from zero-padded real FFTs.

    With m the domain indicator, sum_x a(x) b(x+o) is the inverse transform of
    conj(A) B.  Without a kernel the result is, on the offset box
    [-(n-1), n-1]^dim (C order),

        S(o) = sum_x m(x) m(x+o) (v(x) - v(x+o))^2 = A(o) + A(-o) - 2 B(o),

    A = corr(v^2 m, m), B = corr(v m, v m).  With a kernel K on that box
    (K(o) = K(-o)) it is the per-cell field

        m(x) sum_o K(o) m(x+o) (v(x) - v(x+o))^2 = m [v^2 K*m - 2 v K*(vm) + K*(v^2 m)].

    v is first centred on the mid-range of its domain values: the differences
    do not change, the terms that cancel are smaller, and a field constant on
    the domain gives exact zeros.  Both results are sums of squares, so
    rounding below zero is clamped.
    """
    m = np.ones(v.shape) if mask is None else mask.astype(float)
    on = v if mask is None else v[mask]
    mid = 0.5 * (float(np.max(on)) + float(np.min(on)))
    v = (v if mask is None else np.where(mask, v, mid)) - mid
    axes = tuple(range(-v.ndim, 0))
    lengths = [_fast_length(2 * n - 1) for n in v.shape]
    vm = v * m
    spec = np.fft.rfftn(np.stack([m, vm, v * vm]), s=lengths, axes=axes)
    if kernel is None:
        prod = 2.0 * (np.conj(spec[2]) * spec[0]).real - 2.0 * np.abs(spec[1]) ** 2
        at = [np.arange(1 - n, n) % size for n, size in zip(v.shape, lengths)]
    else:
        prod = np.conj(np.fft.rfftn(kernel, s=lengths, axes=axes)) * spec
        # corr(K, g)(t) at t = x - (n-1) is sum_o K(o) g(x+o)
        at = [np.arange(1 - n, 1) % size for n, size in zip(v.shape, lengths)]
    out = np.fft.irfftn(prod, s=lengths, axes=axes)[(Ellipsis,) + np.ix_(*at)]
    if kernel is not None:
        km, kvm, kv2m = out
        out = m * (v * v * km - 2.0 * v * kvm + kv2m)
    return np.maximum(out, 0.0)


def _mask_array(omega: DomainMask | None, grid: Grid):
    if omega is None:
        return None
    if omega.grid != grid:
        raise ValueError("field and mask live on different grids")
    return omega.cells


def _equivalent_radius(n_removed_offsets: int, grid: Grid) -> float:
    """Radius of the ball whose volume matches the removed near-field cells."""
    cells = 2 * n_removed_offsets + 1
    vol = cells * grid.cell_volume
    vball = math.pi ** (grid.dim / 2.0) / math.gamma(grid.dim / 2.0 + 1.0)
    return (vol / vball) ** (1.0 / grid.dim)


def _directional_extent_1d(grid: Grid, mask: np.ndarray | None):
    """Per-cell free distance to the domain boundary in the -/+ axis direction.

    Measured from the cell center to the far face of the last contiguous
    domain cell (the box face when the domain reaches the box edge).
    """
    n = grid.points[0]
    h = grid.cell_size[0]
    if mask is None:
        x = grid.axis_centers(0)
        return x - grid.lo[0], grid.hi[0] - x
    m = mask.astype(bool).ravel()
    idx = np.arange(n)
    # a run of domain cells ends at the nearest cell outside the domain
    behind = idx - np.maximum.accumulate(np.where(m, -1, idx)) - 1
    ahead = np.minimum.accumulate(np.where(m, n, idx)[::-1])[::-1] - idx - 1
    return (np.where(m, behind, 0) + 0.5) * h, (np.where(m, ahead, 0) + 0.5) * h


# ---------------------------------------------------------------------------
# Gagliardo seminorm and the s -> 1 limit
# ---------------------------------------------------------------------------


def _frozen_gradient_term(gradp, s: float, p: float, n: int, r_eq: float):
    """Analytic near-field integral over the removed ball of radius r_eq for a
    frozen gradient: |grad f|^p * moment * r_eq^(p(1-s)) / (p(1-s))."""
    return gradp * sphere_moment(p, n) * r_eq ** (p * (1.0 - s)) / (p * (1.0 - s))


def _scale_exponent(f: SampledField, mask: np.ndarray | None, p: float) -> int:
    """Exponent e of the power of two 2^e just above max |f| on the domain when
    |f|^p or |grad f|^2 could leave the range of floats; 0 (no scaling) inside
    the safe band, so ordinary inputs keep their exact arithmetic."""
    on = f.values if mask is None else f.values[mask]
    e = int(np.frexp(np.max(np.abs(on)))[1])
    return e if abs(e) * max(p, 2.0) > SAFE_EXP2 else 0


def _scaled(f: SampledField, e: int) -> SampledField:
    """f / 2^e with its analytic gradient; f itself when e = 0."""
    if not e:
        return f
    grad = None if f.analytic_gradient is None else np.ldexp(f.analytic_gradient, -e)
    return SampledField(f.grid, np.ldexp(f.values, -e), grad)


def _unscale(x, e: int, p: float = 1.0):
    """x * 2^(e p), with the integer part of the exponent applied exactly."""
    k = math.floor(e * p)
    return np.ldexp(x * 2.0 ** (e * p - k), k)


def gagliardo_seminorm_sweep(f: SampledField, s_values, p: float,
                             omega: DomainMask | None = None,
                             policy: KernelPolicy = DEFAULT_POLICY) -> list[float]:
    """Gagliardo seminorms for several s at once (the pair sums are shared).

    [sum over x != y in Omega of |f(x)-f(y)|^p / |x-y|^(sp+n) vol^2]^(1/p),
    with the near-field handled per policy.  At p = 2 the offsets beyond
    NEAR_CELLS on some axis get their sums from one FFT correlation.
    """
    s_values = [float(s) for s in s_values]
    for s in s_values:
        GagliardoParams(s, p)
    grid = f.grid
    n = grid.dim
    mask = _mask_array(omega, grid)
    e = _scale_exponent(f, mask, p)
    f = _scaled(f, e)
    v = f.values
    eq_ball = policy.diagonal == "equivalent-ball"
    fft = p == 2.0
    removed, walk = _pair_walk(grid, mask, policy, NEAR_CELLS if fft else math.inf)
    dists, sums = [], []
    for _, dist, sa, sb, pm in walk:
        d = np.abs(v[sa] - v[sb]) ** p
        if pm is not None:
            d = d * pm
        dists.append(dist)
        sums.append(float(np.sum(d)))
    dists = np.asarray(dists)
    sums = np.asarray(sums)
    if fft:
        at, far_dists = _far_offsets(grid, policy)
        dists = np.concatenate([dists, far_dists])
        sums = np.concatenate([sums, _fft_pair_terms(v, mask).ravel()[at]])
    vol = grid.cell_volume
    if eq_ball:
        g = gradient_magnitude(f)
        if mask is not None:
            g = np.where(mask, g, 0.0)
        gradp = float(np.sum(g ** p)) * vol
        r_eq = _equivalent_radius(removed, grid)
    out = []
    for s in s_values:
        total = 2.0 * vol * vol * float(np.sum(sums * dists ** (-(s * p + n))))
        if eq_ball:
            total += _frozen_gradient_term(gradp, s, p, n, r_eq)
        out.append(float(_unscale(total ** (1.0 / p), e)))
    return out


def gagliardo_seminorm(f: SampledField, s: float, p: float,
                       omega: DomainMask | None = None,
                       policy: KernelPolicy = DEFAULT_POLICY) -> float:
    return gagliardo_seminorm_sweep(f, [s], p, omega, policy)[0]


def fractional_inner_field(f: SampledField, s: float, p: float,
                           omega: DomainMask | None = None,
                           policy: KernelPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Per-cell inner integral  x -> sum_y |f(x)-f(y)|^p / |x-y|^(n+sp) vol.

    At p = 2 the offsets beyond NEAR_CELLS on some axis come from one FFT
    convolution with their kernel.
    """
    GagliardoParams(s, p)
    grid = f.grid
    n = grid.dim
    mask = _mask_array(omega, grid)
    e = _scale_exponent(f, mask, p)
    f = _scaled(f, e)
    v = f.values
    vol = grid.cell_volume
    inner = np.zeros(grid.shape)
    fft = p == 2.0
    removed, walk = _pair_walk(grid, mask, policy, NEAR_CELLS if fft else math.inf)
    for _, dist, sa, sb, pm in walk:
        d = np.abs(v[sa] - v[sb]) ** p
        if pm is not None:
            d = d * pm
        ker = dist ** (-(s * p + n)) * vol
        inner[sa] += d * ker
        inner[sb] += d * ker
    if fft:
        at, far_dists = _far_offsets(grid, policy)
        box = [2 * k - 1 for k in grid.shape]
        kernel = np.zeros(math.prod(box))
        # offset o sits at flat index i, -o at size - 1 - i
        kernel[at] = kernel[kernel.size - 1 - at] = far_dists ** (-(s * p + n)) * vol
        inner += _fft_pair_terms(v, mask, kernel.reshape(box))
    if policy.diagonal == "equivalent-ball":
        g = gradient_magnitude(f)
        diag = _frozen_gradient_term(g ** p, s, p, n, _equivalent_radius(removed, grid))
        if mask is not None:
            diag = np.where(mask, diag, 0.0)
        inner += diag
    if mask is not None:
        inner = np.where(mask, inner, 0.0)
    return _unscale(inner, e, p)


def bbm_scaled_value(f: SampledField, s: float, p: float, space: SpaceSpec,
                     omega: DomainMask | None = None,
                     policy: KernelPolicy = DEFAULT_POLICY) -> float:
    """(1-s)^(1/p) * || [inner fractional integral]^(1/p) ||_X(Omega)."""
    e = _scale_exponent(f, _mask_array(omega, f.grid), p)
    inner = fractional_inner_field(_scaled(f, e), s, p, omega, policy)
    fld = SampledField(f.grid, inner ** (1.0 / p))
    return float(_unscale((1.0 - s) ** (1.0 / p) * norm(fld, space, omega), e))


def bbm_limit_extrapolate(pairs) -> tuple[float, float]:
    """Affine fit a + b(1-s) through the three largest-s samples; returns (a, residual)."""
    pts = sorted({(float(s), float(v)) for s, v in pairs})
    if len(pts) < 3:
        raise ValueError("need at least 3 distinct s values")
    tail = pts[-3:]
    s = np.array([q[0] for q in tail])
    val = np.array([q[1] for q in tail])
    design = np.vstack([np.ones_like(s), 1.0 - s]).T
    coef, res, *_ = np.linalg.lstsq(design, val, rcond=None)
    residual = float(np.sqrt(res[0])) if res.size else 0.0
    return float(coef[0]), residual


# ---------------------------------------------------------------------------
# level-set functional
# ---------------------------------------------------------------------------


def bsvy_inner_profile(f: SampledField, lams, params: BsvyParams,
                       omega: DomainMask | None = None,
                       policy: KernelPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Level-set kernel integrals for a whole lambda batch.

    Entry [l, x] is  sum over y with |f(x)-f(y)| > lam_l |x-y|^(1+gamma/p)
    of |x-y|^(gamma-n) vol, handled per policy near the diagonal.
    Returns an array of shape (len(lams), *grid.shape).
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1 or np.any(lams <= 0):
        raise ValueError("lambda values must be positive")
    gamma, p = params.gamma, params.p
    grid = f.grid
    if not lams.size:
        return np.zeros((0,) + grid.shape)
    n = grid.dim
    h = np.asarray(grid.cell_size)
    mask = _mask_array(omega, grid)
    v = f.values
    vol = grid.cell_volume
    expo = 1.0 + gamma / p
    model_on = policy.diagonal == "equivalent-ball"
    # near cells outside the analytic window are subsampled: they sit at the
    # membership handoff where whole-cell granularity is worst; oracle mode
    # stays purely discrete
    sub_w = policy.subsample_window * min(grid.cell_size) if model_on and policy.subsample > 1 else 0.0
    k = policy.subsample
    if sub_w > 0:
        axes = [((np.arange(k) + 0.5) / k - 0.5) * h[i] for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        sub_shifts = np.column_stack([m.ravel() for m in mesh])
    # rows in ascending lambda order: the rows on which a pair offset can hold
    # a level-set member are then a prefix, and the walk skips the rest (they
    # would only add exact zeros)
    order = np.argsort(lams, kind="stable")
    lams = lams[order]
    lam_col = lams.reshape((lams.size,) + (1,) * n)
    # no increment |f(x)-f(y)| on the domain exceeds the spread of f there
    on = v if mask is None else v[mask]
    spread = float(np.ptp(on)) if on.size else 0.0
    inner = np.zeros((lams.size,) + grid.shape)
    removed, walk = _pair_walk(grid, mask, policy)
    for off, dist, sa, sb, pm in walk:
        subsampled = sub_w > 0 and dist <= sub_w
        if subsampled:
            dsub = np.linalg.norm(np.asarray(off) * h + sub_shifts, axis=1)
            thr = dsub ** expo
            order_sub = np.argsort(thr)
            thr = thr[order_sub]
            if spread / lams[0] <= thr[0]:
                continue  # the offset holds no member on any row
        else:
            thresh = lams * dist ** expo
            if thresh[0] >= spread:
                continue
        delta = np.abs(v[sa] - v[sb])
        if pm is not None:
            delta = np.where(pm, delta, 0.0)  # a pair outside the domain is in no level set
        dmax = np.maximum.reduce(delta, axis=None)
        if subsampled:
            # a row holds a member only where some delta / lam exceeds thr[0]
            live = int(np.count_nonzero(dmax / lams > thr[0]))
            if not live:
                continue
            kersub = dsub ** (gamma - n) * vol / k ** n
            cumker = np.concatenate(([0.0], np.cumsum(kersub[order_sub])))
            # membership delta > lam * thr_j: prefix of the threshold-sorted
            # subcells; one searchsorted replaces the per-subcell loop
            ratio = delta[None] / lam_col[:live]
            counts = np.searchsorted(thr, ratio.ravel(), side="left").reshape(ratio.shape)
            contrib = cumker[counts]
        else:
            live = int(thresh.searchsorted(dmax))  # the rows with thresh < dmax
            if not live:
                continue
            memb = delta[None] > thresh[:live].reshape(lam_col[:live].shape)
            contrib = memb * (dist ** (gamma - n) * vol)
        inner[(slice(0, live),) + sa] += contrib
        inner[(slice(0, live),) + sb] += contrib
    if model_on:
        # frozen-gradient analytic near-field over the removed ball: the
        # inclusion radius rho(x) = (|grad f(x)| / lam)^(p/gamma) is a ceiling
        # for gamma > 0 and a floor for gamma < 0
        g = gradient_magnitude(f)
        r_cap = _equivalent_radius(removed, grid)
        # where grad f = 0 the power yields the right inclusion sentinel for
        # either sign of gamma: ceiling 0 (gamma > 0) or floor inf (gamma < 0)
        with np.errstate(divide="ignore", over="ignore"):
            rho = (g[None] / lam_col) ** (p / gamma)

        def radial(cap):
            # integral of z^(gamma-1) over the included part of (0, cap]:
            # (0, min(rho, cap)] when gamma > 0, (min(rho, cap), cap] otherwise
            a = np.minimum(rho, cap)
            if gamma > 0:
                return a ** gamma / gamma
            return (cap ** gamma - a ** gamma) / gamma

        if n == 1:
            lo_ext, hi_ext = _directional_extent_1d(grid, mask)
            caps_up = np.minimum(r_cap, hi_ext)[None] * np.ones_like(rho)
            caps_dn = np.minimum(r_cap, lo_ext)[None] * np.ones_like(rho)
            diag = radial(caps_up) + radial(caps_dn)
        else:
            diag = sphere_area(n) * radial(np.full_like(rho, r_cap))
        if mask is not None:
            diag = np.where(mask[None], diag, 0.0)
        inner += diag
    if mask is not None:
        inner = np.where(mask[None], inner, 0.0)
    return inner[np.argsort(order)]  # back to the caller's lambda order


def bsvy_inner(f: SampledField, lam: float, params: BsvyParams,
               omega: DomainMask | None = None,
               policy: KernelPolicy = DEFAULT_POLICY) -> SampledField:
    """Level-set kernel integral field at a single lambda."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    return SampledField(f.grid, bsvy_inner_profile(f, [lam], params, omega, policy)[0])


def bsvy_values(f: SampledField, lams, params: BsvyParams, space: SpaceSpec,
                omega: DomainMask | None = None,
                policy: KernelPolicy = DEFAULT_POLICY) -> np.ndarray:
    """lam * || (level-set inner integral)^(1/p) ||_X(Omega) per lam, from one pair
    walk and one batched norm."""
    inner = bsvy_inner_profile(f, lams, params, omega, policy)
    lams = np.asarray(lams, dtype=float)
    return lams * norm_many(inner ** (1.0 / params.p), f.grid, space, omega)


def bsvy_functional(f: SampledField, lam: float, params: BsvyParams, space: SpaceSpec,
                    omega: DomainMask | None = None,
                    policy: KernelPolicy = DEFAULT_POLICY) -> float:
    """lam * || (level-set inner integral)^(1/p) ||_X(Omega)."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    return float(bsvy_values(f, [lam], params, space, omega, policy)[0])


def default_lambda_grid(f: SampledField, omega: DomainMask | None = None) -> np.ndarray:
    """Log-spaced lambdas over LAMBDA_DECADES * max |grad f| (the natural slope scale)."""
    g = gradient_magnitude(f)
    if omega is not None:
        g = np.where(omega.cells, g, 0.0)
    scale = float(np.max(g)) or 1.0
    return np.geomspace(LAMBDA_DECADES[0] * scale, LAMBDA_DECADES[1] * scale, LAMBDA_POINTS)


@dataclass
class FunctionalReport:
    """One experiment row with its sweep provenance."""

    kind: str
    inputs: dict
    lam_grid: list[float] = field(default_factory=list)
    profile: list[float] = field(default_factory=list)
    sup: float = 0.0
    argmax_lam: float = 0.0
    endpoint: bool = False
    extended: bool = False
    flags: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FunctionalReport":
        return cls(**json.loads(text))


def _first_max(vals: np.ndarray) -> int:
    """Index of the first value within a relative 1e-12 of the maximum, so that a
    profile flat up to rounding does not pick its argmax by a last bit."""
    return int(np.argmax(vals >= np.max(vals) * (1.0 - 1e-12)))


def bsvy_sup(f: SampledField, params: BsvyParams, space: SpaceSpec,
             omega: DomainMask | None = None,
             policy: KernelPolicy = DEFAULT_POLICY,
             lam_grid=None) -> FunctionalReport:
    """Supremum over the lambda grid of the level-set functional.

    The default grid spans seven decades around the gradient scale; an
    endpoint argmax triggers one automatic two-decade extension, and one
    refinement pass localizes the maximum between its grid neighbors.
    """
    lam = np.asarray(default_lambda_grid(f, omega) if lam_grid is None else lam_grid, dtype=float)
    if lam.size < 25 or lam[-1] / lam[0] < 10 ** 6:
        raise ValueError("lambda grid must span >= 6 decades with >= 25 points")
    report = FunctionalReport(
        kind="level-set-sup",
        inputs={"space": space.canonical(), "gamma": params.gamma, "p": params.p},
        extra={"grid": f.grid.describe(), "policy": policy.canonical()},
    )
    if params.theorem_conditional:
        report.flags.append("theorem-conditional")

    def merge(lams, vals, extra):
        lams = np.concatenate([lams, extra])
        vals = np.concatenate([vals, bsvy_values(f, extra, params, space, omega, policy)])
        order = np.argsort(lams)
        return lams[order], vals[order], _first_max(vals[order])

    vals = bsvy_values(f, lam, params, space, omega, policy)
    if not np.any(vals > 0):
        report.lam_grid, report.profile = lam.tolist(), vals.tolist()
        report.flags.append("degenerate")
        return report
    k = _first_max(vals)
    if k in (0, lam.size - 1):
        report.extended = True
        ext = (np.geomspace(lam[0] / 100.0, lam[0], REFINE_POINTS, endpoint=False) if k == 0
               else np.geomspace(lam[-1], lam[-1] * 100.0, REFINE_POINTS + 1)[1:])
        lam, vals, k = merge(lam, vals, ext)
    lo, hi = lam[max(k - 1, 0)], lam[min(k + 1, lam.size - 1)]
    if hi > lo:
        fine = np.geomspace(lo, hi, REFINE_POINTS + 2)[1:-1]
        lam, vals, k = merge(lam, vals, fine)
    report.lam_grid, report.profile = lam.tolist(), vals.tolist()
    report.sup = float(vals[k])
    report.argmax_lam = float(lam[k])
    report.endpoint = k in (0, lam.size - 1)
    if report.endpoint:
        report.flags.append("endpoint-argmax")
    return report


# ---------------------------------------------------------------------------
# pair measures and the weak Hoelder inequality
# ---------------------------------------------------------------------------


def weak_product_quasinorm(f: SampledField, params: BsvyParams,
                           omega: DomainMask | None = None,
                           lam_grid=None) -> float:
    """sup over lambda of lam * [pair measure of the level set]^(1/p).

    The pair measure integrates |x-y|^(gamma-n) over ordered pairs x != y of
    the level set; no diagonal model is applied, matching the exclude-policy
    inner field summed over the domain.
    """
    lam = np.asarray(default_lambda_grid(f, omega) if lam_grid is None else lam_grid, dtype=float)
    gamma, p = params.gamma, params.p
    grid = f.grid
    n = grid.dim
    v = f.values
    vol = grid.cell_volume
    expo = 1.0 + gamma / p
    measures = np.zeros(lam.size)
    for _, dist, sa, sb, pm in _pair_walk(grid, _mask_array(omega, grid))[1]:
        delta = np.abs(v[sa] - v[sb])
        if pm is not None:
            delta = np.where(pm, delta, 0.0)
        thresh = lam * dist ** expo
        ordered = np.sort(delta.ravel())
        counts = ordered.size - np.searchsorted(ordered, thresh, side="right")
        measures += 2.0 * counts * dist ** (gamma - n) * vol * vol
    vals = lam * measures ** (1.0 / p)
    return float(np.max(vals))


def weighted_mu_measure(predicate, gamma: float, weight: np.ndarray,
                        omega: DomainMask | None, grid: Grid) -> float:
    """Pair measure sum_{x != y in E} |x-y|^(gamma-n) w(x) vol^2.

    ``predicate(x_points, y_points)`` receives (M, dim) coordinate blocks and
    returns a boolean membership array.
    """
    w = np.asarray(weight, dtype=float)
    if w.shape != grid.shape:
        raise ValueError("weight must match the grid shape")
    mesh = grid.meshgrid()
    vol = grid.cell_volume
    n = grid.dim
    total = 0.0
    for _, dist, sa, sb, pm in _pair_walk(grid, _mask_array(omega, grid))[1]:
        xa = np.column_stack([m[sa].ravel() for m in mesh])
        xb = np.column_stack([m[sb].ravel() for m in mesh])
        ker = dist ** (gamma - n) * vol * vol
        for first, second, wslice in ((xa, xb, w[sa]), (xb, xa, w[sb])):
            memb = np.asarray(predicate(first, second), dtype=bool)
            if pm is not None:
                memb = memb & pm.ravel()
            total += ker * float(np.sum(wslice.ravel()[memb]))
    return total


@dataclass(frozen=True)
class WeakHolderResult:
    lhs: float
    rhs: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else 0.0


def _upper_level_measures(levels: np.ndarray, weights: np.ndarray):
    """Distinct levels, descending, each with the summed weight of the entries at or above it."""
    order = np.argsort(-levels, kind="stable")
    lv = levels[order]
    last = np.append(lv[1:] != lv[:-1], True)
    return lv[last], np.cumsum(weights[order])[last]


def weak_holder_check(F: np.ndarray, G: np.ndarray, gamma: float, weight: np.ndarray,
                      p: float, omega: DomainMask | None, grid: Grid) -> WeakHolderResult:
    """Weak-type Hoelder inequality for pair fields against the pair measure.

    F, G are (total_cells, total_cells) pair fields (flat C order).  Verifies

      sum |F G| dmu <= p' * sup_l l mu(|F|>l)^(1/p) * int_0^inf mu(|G|>s)^(1/p') ds

    with the sup and the integral evaluated exactly on the level breakpoints
    of the discrete pair fields.  The weight must be nonnegative.
    """
    if not (1 < p < math.inf):
        raise ValueError("p must lie in (1, inf)")
    total = grid.total_cells
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    if F.shape != (total, total) or G.shape != (total, total):
        raise ValueError("pair fields must have shape (total_cells, total_cells)")
    pts = grid.coords()
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff ** 2, axis=2))
    w = np.asarray(weight, dtype=float).ravel()
    with np.errstate(divide="ignore"):
        kern = dist ** (gamma - grid.dim)
    np.fill_diagonal(kern, 0.0)
    kern = kern * w[:, None] * grid.cell_volume ** 2
    if omega is not None:
        m = omega.cells.ravel()
        kern = kern * (m[:, None] & m[None, :])
    absF = np.abs(F)
    absG = np.abs(G)
    lhs = float(np.sum(absF * absG * kern))
    if not (math.isfinite(lhs)):
        raise FloatingPointError("non-finite left-hand side")
    pp = p / (p - 1.0)
    pos = kern > 0
    fv, fmu = _upper_level_measures(absF[pos], kern[pos])
    sup = float(np.max(fv * fmu ** (1.0 / p), initial=0.0))
    gv, gmu = _upper_level_measures(absG[pos], kern[pos])
    integral = float(np.sum((gv - np.append(gv[1:], 0.0)) * gmu ** (1.0 / pp)))
    rhs = pp * sup * integral
    return WeakHolderResult(lhs, rhs, lhs <= rhs * (1.0 + 1e-12) + 1e-300)


def sobolev_norm(f: SampledField, space: SpaceSpec, omega: DomainMask | None = None) -> float:
    """|| |grad f| ||_X(Omega); analytic gradient preferred, finite differences otherwise."""
    g = gradient_magnitude(f)
    return norm(SampledField(f.grid, g), space, omega)
