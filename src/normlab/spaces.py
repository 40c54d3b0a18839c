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
from itertools import product

import numpy as np

from .grid import DomainMask, Grid, SampledField, restrict_values, split_params

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
    "parse_space",
    "weighted_lebesgue_norm",
    "decreasing_rearrangement",
    "lorentz_norm",
    "luxemburg_norm",
    "orlicz_slice_norm",
    "morrey_norm",
    "default_ball_family",
    "default_radii",
    "dyadic_cubes",
    "dyadic_cover",
    "bbm_morrey_norm",
    "herz_local_norm",
    "herz_global_norm",
    "mixed_norm",
    "variable_lebesgue_norm",
    "convexify",
    "mo_indices",
    "herz_exponent_admissible",
    "restriction_norm",
    "zero_extend",
    "associate_norm_empirical",
]


# ---------------------------------------------------------------------------
# auxiliary parameter objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrliczFunction:
    """Orlicz function: ``power`` means s^p, ``two-power`` means max(s^p1, s^p2)."""

    kind: str
    p1: float
    p2: float | None = None

    def __post_init__(self):
        if self.kind == "power":
            if not self.p1 > 1:
                raise ValueError("power Orlicz function needs p > 1")
        elif self.kind == "two-power":
            if self.p2 is None or not (1 < self.p1 <= self.p2 < math.inf):
                raise ValueError("two-power needs 1 < p1 <= p2 < inf")
        else:
            raise ValueError(f"unknown Orlicz kind {self.kind!r}")

    def __call__(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.kind == "power":
            return s ** self.p1
        return np.maximum(s ** self.p1, s ** self.p2)

    @property
    def lower_type(self) -> float:
        return self.p1

    @property
    def upper_type(self) -> float:
        return self.p1 if self.kind == "power" else float(self.p2)

    def scaled(self, factor: float) -> "OrliczFunction":
        """Orlicz function of ``t -> Phi(t^factor)``; used by convexification."""
        if self.kind == "power":
            return OrliczFunction("power", self.p1 * factor)
        return OrliczFunction("two-power", self.p1 * factor, self.p2 * factor)

    def canonical(self) -> str:
        if self.kind == "power":
            return f"p={self.p1!r}"
        return f"p1={self.p1!r},p2={self.p2!r}"


@dataclass(frozen=True)
class HerzWeight:
    """Power-type radial weight ``omega(s) = s^a`` on (0, inf)."""

    a: float

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError("weight exponent must be finite")

    def __call__(self, s):
        return np.asarray(s, dtype=float) ** self.a


def mo_indices(weight: HerzWeight) -> tuple[float, float, float, float]:
    """Growth indices (m0, M0, m_inf, M_inf); all equal the exponent for s^a."""
    return (weight.a, weight.a, weight.a, weight.a)


def herz_exponent_admissible(a: float, n: int, p: float, s: float) -> bool:
    """Local-Herz hypothesis: -n/p < a and a < n(1/s - 1/p)."""
    return -n / p < a < n * (1.0 / s - 1.0 / p)


# ---------------------------------------------------------------------------
# space specifications
# ---------------------------------------------------------------------------


class SpaceSpec:
    """Base class for catalog space descriptions (grid-independent)."""

    tag: str = ""

    def canonical(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.canonical()!r})"

    def __eq__(self, other):
        return isinstance(other, SpaceSpec) and self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())


class Lebesgue(SpaceSpec):
    tag = "lebesgue"

    def __init__(self, p: float):
        if not (1 <= p < math.inf):
            raise ValueError("Lebesgue exponent must lie in [1, inf)")
        self.p = float(p)

    def canonical(self) -> str:
        return f"lebesgue:p={self.p!r}"


class WeightedLebesgue(SpaceSpec):
    """L^r with weight |x - c|^a (parametric) or explicit nonnegative samples."""

    tag = "weighted"

    def __init__(self, r: float, a: float | None = None, center=0.0, samples: np.ndarray | None = None):
        if not (0 < r < math.inf):
            raise ValueError("weighted Lebesgue exponent must be positive and finite")
        self.r = float(r)
        self.a = None if a is None else float(a)
        self.center = center
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

    def canonical(self) -> str:
        if self.samples is not None:
            return f"weighted:r={self.r!r},weight=explicit"
        c = self.center
        ctxt = ";".join(repr(float(x)) for x in c) if not np.isscalar(c) else repr(float(c))
        return f"weighted:a={self.a!r},center={ctxt},r={self.r!r}"


def _power_samples(grid: Grid, a: float, center) -> tuple[np.ndarray, np.ndarray]:
    """The center as a point of the grid's dimension and |x - c|^a at the cell centers."""
    c = np.asarray(center if not np.isscalar(center) else [center] * grid.dim, dtype=float)
    d = np.linalg.norm(grid.coords() - c, axis=1)
    if a < 0 and np.any(d == 0):
        raise ValueError("singular power weight hits a cell center exactly")
    return c, (d ** a).reshape(grid.shape)


class Lorentz(SpaceSpec):
    tag = "lorentz"

    def __init__(self, r: float, tau: float):
        if not (1 < r < math.inf and 1 < tau < math.inf):
            raise ValueError("Lorentz exponents must lie in (1, inf)")
        self.r = float(r)
        self.tau = float(tau)

    def canonical(self) -> str:
        return f"lorentz:r={self.r!r},tau={self.tau!r}"


class Orlicz(SpaceSpec):
    tag = "orlicz"

    def __init__(self, phi: OrliczFunction):
        self.phi = phi

    def canonical(self) -> str:
        return f"orlicz:{self.phi.canonical()}"


class OrliczSlice(SpaceSpec):
    tag = "orliczslice"

    def __init__(self, phi: OrliczFunction, r: float, t: float):
        if not (1 < r < math.inf):
            raise ValueError("slice outer exponent must lie in (1, inf)")
        if not t > 0:
            raise ValueError("slice radius must be positive")
        self.phi = phi
        self.r = float(r)
        self.t = float(t)

    def canonical(self) -> str:
        return f"orliczslice:{self.phi.canonical()},r={self.r!r},t={self.t!r}"


class Morrey(SpaceSpec):
    tag = "morrey"

    def __init__(self, r: float, alpha: float):
        if not (1 <= r <= alpha < math.inf):
            raise ValueError("Morrey exponents must satisfy 1 <= r <= alpha < inf")
        self.r = float(r)
        self.alpha = float(alpha)

    def canonical(self) -> str:
        return f"morrey:alpha={self.alpha!r},r={self.r!r}"


class BesovBourgainMorrey(SpaceSpec):
    """Dyadic-cube space with inner L^q per cube, l^r in position, l^tau in scale."""

    tag = "bbmorrey"

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

    def canonical(self) -> str:
        return f"bbmorrey:p={self.p!r},q={self.q!r},r={self.r!r},tau={self.tau!r}"


class HerzLocal(SpaceSpec):
    tag = "herzlocal"

    def __init__(self, p: float, q: float, a: float, xi=0.0):
        if not (1 < p < math.inf and 1 < q < math.inf):
            raise ValueError("Herz exponents must lie in (1, inf)")
        self.p = float(p)
        self.q = float(q)
        self.weight = HerzWeight(a)
        self.xi = xi

    def canonical(self) -> str:
        x = self.xi
        xtxt = ";".join(repr(float(v)) for v in x) if not np.isscalar(x) else repr(float(x))
        return f"herzlocal:a={self.weight.a!r},p={self.p!r},q={self.q!r},xi={xtxt}"


class HerzGlobal(SpaceSpec):
    tag = "herzglobal"

    def __init__(self, p: float, q: float, a: float):
        if not (1 < p < math.inf and 1 < q < math.inf):
            raise ValueError("Herz exponents must lie in (1, inf)")
        self.p = float(p)
        self.q = float(q)
        self.weight = HerzWeight(a)

    def canonical(self) -> str:
        return f"herzglobal:a={self.weight.a!r},p={self.p!r},q={self.q!r}"


class MixedNorm(SpaceSpec):
    tag = "mixed"

    def __init__(self, rs):
        rs = tuple(float(r) for r in rs)
        if not rs:
            raise ValueError("mixed norm needs at least one exponent")
        for r in rs:
            if not (1 < r < math.inf):
                raise ValueError("mixed exponents must lie in (1, inf)")
        self.rs = rs

    def canonical(self) -> str:
        return "mixed:r=" + ";".join(repr(r) for r in self.rs)


class VariableLebesgue(SpaceSpec):
    """Exponent field r(x); parametric affine ramp or explicit samples."""

    tag = "varleb"

    def __init__(self, base: float | None = None, slope: float = 0.0, axis: int = 0,
                 samples: np.ndarray | None = None):
        self.base = base
        self.slope = float(slope)
        self.axis = int(axis)
        self.samples = None if samples is None else np.asarray(samples, dtype=float)
        if self.samples is None and base is None:
            raise ValueError("give either a parametric exponent or explicit samples")

    def exponent_on(self, grid: Grid) -> np.ndarray:
        if self.samples is not None:
            if self.samples.shape != grid.shape:
                raise ValueError("exponent samples do not match the grid")
            ex = self.samples
        else:
            x = grid.meshgrid()[self.axis]
            ex = self.base + self.slope * x
        lo, hi = float(np.min(ex)), float(np.max(ex))
        if not (1 < lo <= hi < math.inf):
            raise ValueError(f"variable exponent must satisfy 1 < min <= max < inf, got [{lo}, {hi}]")
        return ex

    def canonical(self) -> str:
        if self.samples is not None:
            return "varleb:exponent=explicit"
        return f"varleb:axis={self.axis},base={self.base!r},slope={self.slope!r}"


def parse_space(text: str) -> SpaceSpec:
    """Parse the canonical textual form ``tag:key=value,...``."""
    tag, _, body = text.strip().partition(":")
    kv = split_params(body, text)

    def num(key, default=None):
        if key not in kv:
            if default is None:
                raise ValueError(f"space {tag!r} needs parameter {key!r}")
            return default
        v = kv[key]
        return math.inf if v in ("inf", "Inf") else float(v)

    tag = tag.strip()
    if tag == "lebesgue":
        return Lebesgue(num("p"))
    if tag == "weighted":
        center = kv.get("center", "0.0")
        c = tuple(float(x) for x in center.split(";")) if ";" in center else float(center)
        return WeightedLebesgue(num("r"), a=num("a"), center=c)
    if tag == "lorentz":
        return Lorentz(num("r"), num("tau"))
    if tag == "orlicz":
        if "p" in kv:
            return Orlicz(OrliczFunction("power", num("p")))
        return Orlicz(OrliczFunction("two-power", num("p1"), num("p2")))
    if tag == "orliczslice":
        phi = OrliczFunction("power", num("p")) if "p" in kv else OrliczFunction("two-power", num("p1"), num("p2"))
        return OrliczSlice(phi, num("r"), num("t"))
    if tag == "morrey":
        return Morrey(num("r"), num("alpha"))
    if tag == "bbmorrey":
        return BesovBourgainMorrey(num("q"), num("p"), num("r"), num("tau"))
    if tag == "herzlocal":
        xi = kv.get("xi", "0.0")
        x = tuple(float(v) for v in xi.split(";")) if ";" in xi else float(xi)
        return HerzLocal(num("p"), num("q"), num("a"), xi=x)
    if tag == "herzglobal":
        return HerzGlobal(num("p"), num("q"), num("a"))
    if tag == "mixed":
        return MixedNorm(tuple(float(x) for x in kv["r"].split(";")))
    if tag == "varleb":
        return VariableLebesgue(base=num("base"), slope=num("slope", 0.0), axis=int(num("axis", 0)))
    raise ValueError(f"unknown space tag {tag!r}")


# ---------------------------------------------------------------------------
# elementary evaluators
# ---------------------------------------------------------------------------


def _lebesgue(values: np.ndarray, vol: float, p: float) -> float:
    return float(np.sum(np.abs(values) ** p) * vol) ** (1.0 / p)


def weighted_lebesgue_norm(f: SampledField, r: float, weight: np.ndarray,
                           omega: DomainMask | None = None) -> float:
    """(sum |f|^r * weight * cellvol)^(1/r) over the domain."""
    w = np.asarray(weight, dtype=float)
    if w.shape != f.grid.shape:
        raise ValueError("weight samples must match the grid")
    if np.any(w < 0):
        raise ValueError("weight must be nonnegative")
    v = restrict_values(f, omega)
    return float(np.sum(np.abs(v) ** r * w) * f.grid.cell_volume) ** (1.0 / r)


def decreasing_rearrangement(f: SampledField, omega: DomainMask | None = None):
    """Step-function rearrangement: values sorted descending, cumulative measures.

    Returns ``(cum_measure, values)`` where the rearrangement equals
    ``values[k]`` on ``[cum_measure[k-1], cum_measure[k])``.
    """
    v = np.sort(np.abs(restrict_values(f, omega)).ravel())[::-1]
    t = np.cumsum(np.full(v.size, f.grid.cell_volume))
    return t, v


def lorentz_norm(f: SampledField, r: float, tau: float, omega: DomainMask | None = None) -> float:
    """Exact closed-form Lorentz quasi-norm of the step-function rearrangement."""
    t, v = decreasing_rearrangement(f, omega)
    if not np.any(v > 0):
        return 0.0
    e = tau / r
    tprev = np.concatenate(([0.0], t[:-1]))
    terms = v ** tau * (r / tau) * (t ** e - tprev ** e)
    return float(np.sum(terms)) ** (1.0 / tau)


def _luxemburg_scalarized(absvals: np.ndarray, weights: np.ndarray, phi, rel_tol=1e-14) -> float:
    """Solve modular(lam) = sum(phi(v/lam) * w) = 1 by bisection.

    The modular is nonincreasing in lam, so bracketing by doubling is safe.
    """
    vmax = float(np.max(absvals)) if absvals.size else 0.0
    if vmax == 0.0:
        return 0.0

    def modular(lam):
        return float(np.sum(phi(absvals / lam) * weights))

    lam = vmax
    m = modular(lam)
    if m > 1.0:
        lo, hi = lam, lam
        while modular(hi) > 1.0:
            hi *= 2.0
            if not math.isfinite(hi):
                raise FloatingPointError("Luxemburg bracket failure (non-finite)")
    else:
        lo, hi = lam, lam
        while modular(lo) <= 1.0:
            lo /= 2.0
            if lo < vmax * 1e-300:
                # modular never reaches 1: norm is 0 only for the zero function
                return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if modular(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if (hi - lo) <= rel_tol * hi:
            break
    return 0.5 * (lo + hi)


def luxemburg_norm(f: SampledField, phi: OrliczFunction, omega: DomainMask | None = None) -> float:
    v = np.abs(restrict_values(f, omega)).ravel()
    w = np.full(v.size, f.grid.cell_volume)
    return _luxemburg_scalarized(v, w, phi)


def variable_lebesgue_norm(f: SampledField, exponent: np.ndarray,
                           omega: DomainMask | None = None) -> float:
    """Luxemburg-type norm with pointwise exponent field r(x)."""
    ex = np.asarray(exponent, dtype=float)
    if ex.shape != f.grid.shape:
        raise ValueError("exponent field must match the grid")
    lo, hi = float(np.min(ex)), float(np.max(ex))
    if not (1 < lo <= hi < math.inf):
        raise ValueError("variable exponent must satisfy 1 < min <= max < inf")
    v = np.abs(restrict_values(f, omega)).ravel()
    exf = ex.ravel()
    return _luxemburg_scalarized(v, np.full(v.size, f.grid.cell_volume), lambda s: s ** exf)


def orlicz_slice_norm(f: SampledField, phi: OrliczFunction, r: float, t: float,
                      omega: DomainMask | None = None) -> float:
    """Outer L^r over the box of the slice ratio |f 1_B(x,t)|_Phi / |1_B(x,t)|_Phi."""
    grid = f.grid
    h = grid.cell_size
    if t < min(h) / 2.0:
        raise ValueError("slice radius is below half a cell; ball degenerates")
    v = np.abs(restrict_values(f, omega))
    # integer offsets within the ball, shared stencil slid over the grid
    ranges = [np.arange(-int(t // h[i]) - 1, int(t // h[i]) + 2) for i in range(grid.dim)]
    mesh = np.meshgrid(*ranges, indexing="ij")
    offs = np.column_stack([m.ravel() for m in mesh])
    dist = np.sqrt(np.sum((offs * np.array(h)) ** 2, axis=1))
    offs = offs[dist <= t]
    vol = grid.cell_volume
    shape = grid.shape
    ratios = np.zeros(shape)
    idx_grids = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij")
    flat_idx = np.column_stack([g.ravel() for g in idx_grids])
    for pos in flat_idx:
        cells = pos + offs
        ok = np.all((cells >= 0) & (cells < np.array(shape)), axis=1)
        cells = cells[ok]
        ball_vals = v[tuple(cells.T)]
        w = np.full(ball_vals.size, vol)
        num = _luxemburg_scalarized(ball_vals, w, phi)
        den = _luxemburg_scalarized(np.ones(ball_vals.size), w, phi)
        ratios[tuple(pos)] = num / den
    return _lebesgue(ratios, vol, r)


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


def default_ball_family(grid: Grid) -> BallFamily:
    """Balls at every cell center with the dyadic radii, the last one clipped
    to the box diameter."""
    radii = default_radii(grid)
    radii[-1] = grid.diameter()
    return BallFamily(grid.coords(), radii)


def _unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def morrey_norm(f: SampledField, r: float, alpha: float, omega: DomainMask | None = None,
                ball_family: BallFamily | None = None, return_witness: bool = False):
    """max over balls B of |B|^(1/alpha - 1/r) * ||f||_{L^r(B)}.

    |B| is the geometric ball volume; cells belong to B by center distance.
    The supremum over all balls is approached from below by the finite family.
    """
    fam = ball_family if ball_family is not None else default_ball_family(f.grid)
    if fam.centers.size == 0 or fam.radii.size == 0:
        raise ValueError("ball family is empty")
    v = restrict_values(f, omega)
    mass = (np.abs(v) ** r).ravel() * f.grid.cell_volume
    pts = f.grid.coords()
    n = f.grid.dim
    vball = _unit_ball_volume(n)
    best = 0.0
    witness = (tuple(fam.centers[0]), float(fam.radii[0]))
    chunk = max(1, int(2**22 / max(1, pts.shape[0])))
    for start in range(0, fam.centers.shape[0], chunk):
        cs = fam.centers[start:start + chunk]
        d = np.linalg.norm(pts[None, :, :] - cs[:, None, :], axis=2)
        for rad in fam.radii:
            inside = d <= rad
            sums = inside @ mass
            vals = (vball * rad ** n) ** (1.0 / alpha - 1.0 / r) * sums ** (1.0 / r)
            k = int(np.argmax(vals))
            if vals[k] > best:
                best = float(vals[k])
                witness = (tuple(cs[k]), float(rad))
    if return_witness:
        return best, witness
    return best


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


def dyadic_cubes(system: DyadicSystem, lo, hi) -> list[DyadicCube]:
    """All cubes of the system intersecting the box [lo, hi], levels in range."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    n = lo.size
    shift = np.asarray(system.shift)
    if shift.size != n:
        raise ValueError("shift dimension mismatch")
    cubes = []
    for nu in range(system.nu_min, system.nu_max + 1):
        side = 2.0 ** nu
        sgn = -1.0 if (nu % 2) else 1.0
        # cube i-extent: side*(m + sgn*shift) < x <= side*(m + 1 + sgn*shift)
        m_lo = [math.floor(lo[i] / side - sgn * shift[i]) for i in range(n)]
        m_hi = [math.ceil(hi[i] / side - sgn * shift[i]) - 1 for i in range(n)]
        ranges = [range(a, b + 1) for a, b in zip(m_lo, m_hi)]
        idx = np.stack(np.meshgrid(*[np.array(list(r)) for r in ranges], indexing="ij"), axis=-1).reshape(-1, n)
        for m in idx:
            clo = side * (m + sgn * shift)
            chi = clo + side
            if np.all(chi > lo) and np.all(clo < hi):
                cubes.append(DyadicCube(nu, tuple(int(v) for v in m), tuple(clo), tuple(chi)))
    return cubes


def dyadic_cover(center, radius: float, max_level_pad: int = 4):
    """Smallest cube among the 3^n shifted systems containing the ball.

    Returns ``(shift, DyadicCube)`` or None when no candidate contains the ball
    within the searched levels.
    """
    c = np.atleast_1d(np.asarray(center, dtype=float))
    n = c.size
    nu0 = math.ceil(math.log2(2.0 * radius))
    best = None
    for shift in product((0.0, 1.0 / 3.0, 2.0 / 3.0), repeat=n):
        for nu in range(nu0, nu0 + max_level_pad + 1):
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


def _prefix(arr: np.ndarray) -> np.ndarray:
    """Cumulative sum along every axis, padded with a leading zero per axis."""
    pre = arr
    for ax in range(arr.ndim):
        pre = np.cumsum(pre, axis=ax)
    return np.pad(pre, [(1, 0)] * arr.ndim)


def _box_indices(grid: Grid, lo, hi, lo_side: str):
    """Per-axis index ranges [a, b) of the cells whose centers lie in the box,
    or None when it holds no cell center.  The upper face is closed; the lower
    face is closed for ``lo_side="left"`` and open for ``lo_side="right"``."""
    rngs = []
    for i in range(grid.dim):
        centers = grid.axis_centers(i)
        a = int(np.searchsorted(centers, lo[i], side=lo_side))
        b = int(np.searchsorted(centers, hi[i], side="right"))
        if b <= a:
            return None
        rngs.append((a, b))
    return rngs


def _box_sum(prefix: np.ndarray, rngs) -> float:
    """Sum over an index box from the padded prefix array, by inclusion-exclusion."""
    dim = len(rngs)
    total = 0.0
    for corner in product((0, 1), repeat=dim):
        sel = tuple(rngs[i][corner[i]] for i in range(dim))
        total += (-1) ** (dim - sum(corner)) * prefix[sel]
    return float(total)


def bbm_morrey_norm(f: SampledField, q: float, p: float, r: float, tau: float,
                    omega: DomainMask | None = None,
                    nu_range: tuple[int, int] | None = None) -> float:
    """Triple dyadic assembly: per-cube L^q, prefactor |Q|^(1/p-1/q), l^r, l^tau.

    Uses the unshifted dyadic system over the grid box.  Sampled fields are
    piecewise constant, so one sub-grid level suffices; levels below that see
    constant values per cube and contribute nothing new.
    """
    grid = f.grid
    if nu_range is None:
        nu_min = math.floor(math.log2(min(grid.cell_size))) - 1
        nu_max = math.ceil(math.log2(grid.diameter())) + 1
    else:
        nu_min, nu_max = nu_range
    v = restrict_values(f, omega)
    prefix = _prefix(np.abs(v) ** q * grid.cell_volume)
    system = DyadicSystem((0.0,) * grid.dim, nu_min, nu_max)
    level_terms = []
    for nu in range(nu_min, nu_max + 1):
        cubes = dyadic_cubes(DyadicSystem(system.shift, nu, nu), grid.lo, grid.hi)
        vals = []
        for cube in cubes:
            # dyadic cubes are half-open, (lo, hi]
            rngs = _box_indices(grid, cube.lo, cube.hi, "right")
            s = 0.0 if rngs is None else _box_sum(prefix, rngs)
            if s == 0.0:
                continue
            vals.append(cube.volume ** (1.0 / p - 1.0 / q) * s ** (1.0 / q))
        if not vals:
            level_terms.append(0.0)
            continue
        vals = np.asarray(vals)
        if math.isinf(r):
            level_terms.append(float(np.max(vals)))
        else:
            level_terms.append(float(np.sum(vals ** r)) ** (1.0 / r))
    terms = np.asarray(level_terms)
    if math.isinf(tau):
        return float(np.max(terms)) if terms.size else 0.0
    return float(np.sum(terms ** tau)) ** (1.0 / tau)


# ---------------------------------------------------------------------------
# Herz
# ---------------------------------------------------------------------------


def herz_local_norm(f: SampledField, p: float, q: float, weight: HerzWeight, xi,
                    omega: DomainMask | None = None) -> float:
    """{sum_k [w(2^k)]^q ||f||^q_{L^p(annulus k)}}^(1/q) with annuli around xi.

    Annulus k holds cells with 2^(k-1) <= |x - xi| < 2^k.  A cell center
    coinciding with xi (distance zero) belongs to no annulus and is skipped,
    matching the puncture at xi in the continuum definition.
    """
    grid = f.grid
    c = np.asarray(xi if not np.isscalar(xi) else [xi] * grid.dim, dtype=float)
    d = np.linalg.norm(grid.coords() - c, axis=1)
    v = np.abs(restrict_values(f, omega)).ravel()
    pos = d > 0
    if not np.any(pos & (v > 0)):
        return 0.0
    k = np.floor(np.log2(d[pos])).astype(int) + 1
    mass = (v[pos] ** p) * grid.cell_volume
    k0 = k.min()
    sums = np.bincount(k - k0, weights=mass)
    ks = np.arange(k0, k0 + sums.size)
    lp = sums ** (1.0 / p)
    wq = (2.0 ** ks) ** weight.a
    return float(np.sum((wq * lp) ** q)) ** (1.0 / q)


def default_xi_grid(grid: Grid, stride: int = 4) -> np.ndarray:
    """Coarse sub-lattice of cell centers (every ``stride``-th per axis) plus the origin."""
    sel = [grid.axis_centers(i)[::stride] for i in range(grid.dim)]
    mesh = np.meshgrid(*sel, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    return np.vstack([pts, np.zeros((1, grid.dim))])


def herz_global_norm(f: SampledField, p: float, q: float, weight: HerzWeight,
                     omega: DomainMask | None = None,
                     xi_grid: np.ndarray | None = None):
    """max over sampled centers of the local Herz norm; returns (value, best xi)."""
    if xi_grid is None:
        xi_grid = default_xi_grid(f.grid)
    xi_grid = np.atleast_2d(np.asarray(xi_grid, dtype=float))
    if xi_grid.shape[0] == 0:
        raise ValueError("xi grid is empty")
    best, best_xi = -math.inf, None
    for xi in xi_grid:
        val = herz_local_norm(f, p, q, weight, xi, omega)
        if val > best:
            best, best_xi = val, tuple(float(x) for x in xi)
    return best, best_xi


# ---------------------------------------------------------------------------
# mixed norm
# ---------------------------------------------------------------------------


def mixed_norm(f: SampledField, rs, omega: DomainMask | None = None) -> float:
    """Iterated midpoint sums, innermost axis first with exponent rs[0]."""
    rs = tuple(float(r) for r in rs)
    if len(rs) != f.grid.dim:
        raise ValueError(f"need {f.grid.dim} exponents, got {len(rs)}")
    t = np.abs(restrict_values(f, omega))
    for i, r in enumerate(rs):
        h = f.grid.cell_size[i]
        t = (np.sum(t ** r, axis=0) * h) ** (1.0 / r)
    return float(t)


# ---------------------------------------------------------------------------
# dispatcher, convexification, restriction, associate norm
# ---------------------------------------------------------------------------


def norm(f: SampledField, space: SpaceSpec, omega: DomainMask | None = None) -> float:
    """Evaluate ||f||_{X(Omega)} for any catalog space (zero-extension outside).

    Every catalog norm is 1-homogeneous, so f is first divided by the power of
    two 2^e just above max |f| on the domain, which is exact, and the result is
    multiplied back; powers |f|^p then neither overflow nor underflow.
    """
    v = restrict_values(f, omega)
    e = math.frexp(float(np.abs(v).max()))[1]
    return math.ldexp(_evaluate(SampledField(f.grid, np.ldexp(v, -e)), space, omega), e)


def _evaluate(f: SampledField, space: SpaceSpec, omega: DomainMask | None) -> float:
    if isinstance(space, Lebesgue):
        return _lebesgue(restrict_values(f, omega), f.grid.cell_volume, space.p)
    if isinstance(space, WeightedLebesgue):
        return weighted_lebesgue_norm(f, space.r, space.weight_on(f.grid), omega)
    if isinstance(space, Lorentz):
        return lorentz_norm(f, space.r, space.tau, omega)
    if isinstance(space, Orlicz):
        return luxemburg_norm(f, space.phi, omega)
    if isinstance(space, OrliczSlice):
        return orlicz_slice_norm(f, space.phi, space.r, space.t, omega)
    if isinstance(space, Morrey):
        return morrey_norm(f, space.r, space.alpha, omega)
    if isinstance(space, BesovBourgainMorrey):
        return bbm_morrey_norm(f, space.q, space.p, space.r, space.tau, omega)
    if isinstance(space, HerzLocal):
        return herz_local_norm(f, space.p, space.q, space.weight, space.xi, omega)
    if isinstance(space, HerzGlobal):
        return herz_global_norm(f, space.p, space.q, space.weight, omega)[0]
    if isinstance(space, MixedNorm):
        return mixed_norm(f, space.rs, omega)
    if isinstance(space, VariableLebesgue):
        return variable_lebesgue_norm(f, space.exponent_on(f.grid), omega)
    raise TypeError(f"unsupported space spec {space!r}")


def convexify(space: SpaceSpec, p: float) -> SpaceSpec:
    """Catalog member X^(1/p): parameters scaled so that

        norm(|f|^p, convexify(X, p)) ** (1/p) == norm(f, X).
    """
    if not p > 0:
        raise ValueError("convexification exponent must be positive")
    if isinstance(space, Lebesgue):
        return Lebesgue(space.p / p)
    if isinstance(space, WeightedLebesgue):
        return WeightedLebesgue(space.r / p, a=space.a, center=space.center, samples=space.samples)
    if isinstance(space, Lorentz):
        return Lorentz(space.r / p, space.tau / p)
    if isinstance(space, Orlicz):
        return Orlicz(space.phi.scaled(1.0 / p))
    if isinstance(space, OrliczSlice):
        return OrliczSlice(space.phi.scaled(1.0 / p), space.r / p, space.t)
    if isinstance(space, Morrey):
        return Morrey(space.r / p, space.alpha / p)
    if isinstance(space, BesovBourgainMorrey):
        return BesovBourgainMorrey(space.q / p, space.p / p, space.r / p, space.tau / p)
    if isinstance(space, HerzLocal):
        return HerzLocal(space.p / p, space.q / p, space.weight.a * p, xi=space.xi)
    if isinstance(space, HerzGlobal):
        return HerzGlobal(space.p / p, space.q / p, space.weight.a * p)
    if isinstance(space, MixedNorm):
        return MixedNorm(tuple(r / p for r in space.rs))
    if isinstance(space, VariableLebesgue):
        if space.samples is not None:
            return VariableLebesgue(samples=space.samples / p)
        return VariableLebesgue(base=space.base / p, slope=space.slope / p, axis=space.axis)
    raise TypeError(f"unsupported space spec {space!r}")


def zero_extend(values_on_omega: np.ndarray, omega: DomainMask) -> SampledField:
    """Fill domain cells (canonical C order) with the given values, zero outside."""
    vals = np.asarray(values_on_omega, dtype=float).ravel()
    idx = np.flatnonzero(omega.cells.ravel())
    if vals.size != idx.size:
        raise ValueError(f"expected {idx.size} domain-cell values, got {vals.size}")
    full = np.zeros(omega.grid.total_cells)
    full[idx] = vals
    return SampledField(omega.grid, full.reshape(omega.grid.shape))


def restriction_norm(values_on_omega: np.ndarray, space: SpaceSpec, omega: DomainMask) -> float:
    """Norm of the zero extension on the full grid; equals the restriction norm."""
    return norm(zero_extend(values_on_omega, omega), space, None)


@dataclass(frozen=True)
class AssociateEstimate:
    lower: float          # certified lower bound from the witness family
    exact: float | None   # closed-form dual value when available
    witness_count: int


def associate_norm_empirical(f: SampledField, space: SpaceSpec,
                             omega: DomainMask | None = None,
                             witness_count: int = 32, seed: int = 0) -> AssociateEstimate:
    """Lower bound on the associate (Koethe dual) norm by pairing against
    random unit-norm witnesses; exact dual value for (weighted) Lebesgue r > 1.
    """
    if witness_count < 1:
        raise ValueError("need at least one witness")
    rng = np.random.default_rng(seed)
    grid = f.grid
    vol = grid.cell_volume
    fv = restrict_values(f, omega)
    best = 0.0
    candidates = [fv.copy()]
    for _ in range(witness_count - 1):
        candidates.append(rng.standard_normal(grid.shape))
    for g in candidates:
        gf = SampledField(grid, np.where(omega.cells, g, 0.0) if omega is not None else g)
        gn = norm(gf, space, omega)
        if gn == 0.0:
            continue
        pairing = float(np.sum(np.abs(fv * gf.values)) * vol) / gn
        best = max(best, pairing)
    exact = None
    if isinstance(space, Lebesgue) and space.p > 1:
        rp = space.p / (space.p - 1.0)
        exact = _lebesgue(fv, vol, rp)
    elif isinstance(space, WeightedLebesgue) and space.r > 1:
        rp = space.r / (space.r - 1.0)
        w = space.weight_on(grid)
        if np.any(w == 0):
            raise ValueError("dual weight undefined where the weight vanishes")
        exact = float(np.sum(np.abs(fv) ** rp * w ** (1.0 - rp)) * vol) ** (1.0 / rp)
    return AssociateEstimate(best, exact, witness_count)
