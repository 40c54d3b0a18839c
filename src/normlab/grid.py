"""Uniform cell-centered grids, sampled fields, and the test-function catalog.

Every quantity in this package lives on a uniform tensor grid over a box:
cell centers sit at ``lo + (k + 1/2) h`` and all integrals are midpoint-rule
sums ``sum(value) * prod(h)``.  Fields carry an optional closed-form gradient
so that downstream functionals can prefer analytic derivatives over finite
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "SampledField",
    "DomainMask",
    "Spec",
    "TestFunctionSpec",
    "make_grid",
    "sample",
    "gradient_fd",
    "gradient_magnitude",
    "parse_function",
    "split_params",
    "parse_params",
    "format_params",
    "check_params",
    "as_int",
    "check_axis",
    "restrict_values",
    "mask_cells",
    "safe_exponent",
]

# |f|^p and |grad f|^2 stay inside 2^(+-SAFE_EXP2) times the kernel factors; outside,
# gradient_magnitude and the functionals' entry points divide by a power of two
SAFE_EXP2 = 512


def _as_tuple(x, dim: int, cast=float) -> tuple:
    """Broadcast a scalar or sequence to a length-``dim`` tuple."""
    if np.isscalar(x):
        return tuple(cast(x) for _ in range(dim))
    seq = tuple(cast(v) for v in x)
    if len(seq) != dim:
        raise ValueError(f"expected {dim} entries (one per axis), got {len(seq)}")
    return seq


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid over the box ``prod_i [lo_i, hi_i]``."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    points: tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or len(self.lo) != len(self.points):
            raise ValueError("lo, hi, points must have equal length")
        for a, b in zip(self.lo, self.hi):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError("grid bounds must be finite")
            if not b > a:
                raise ValueError(f"grid bounds must satisfy hi > lo, got [{a}, {b}]")
        for n in self.points:
            if int(n) != n or n < 2:
                raise ValueError(f"need at least 2 cells per axis, got {n}")

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def cell_size(self) -> tuple[float, ...]:
        return tuple((b - a) / n for a, b, n in zip(self.lo, self.hi, self.points))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.cell_size))

    @property
    def total_cells(self) -> int:
        return int(np.prod(self.points))

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.cell_size[axis]
        return self.lo[axis] + (np.arange(self.points[axis]) + 0.5) * h

    def meshgrid(self) -> list[np.ndarray]:
        """Coordinate arrays of shape ``self.shape``, one per axis."""
        return list(np.meshgrid(*[self.axis_centers(i) for i in range(self.dim)], indexing="ij"))

    def coords(self) -> np.ndarray:
        """All cell centers as a flat ``(total_cells, dim)`` array in C order."""
        mesh = self.meshgrid()
        return np.column_stack([m.ravel() for m in mesh])

    def diameter(self) -> float:
        return float(np.hypot.reduce([b - a for a, b in zip(self.lo, self.hi)]))

    def refine(self, factor: int = 2) -> "Grid":
        return Grid(self.lo, self.hi, tuple(n * factor for n in self.points))

    def describe(self) -> str:
        lo = ",".join(repr(v) for v in self.lo)
        hi = ",".join(repr(v) for v in self.hi)
        pts = ",".join(str(n) for n in self.points)
        return f"box=[{lo}]..[{hi}] N=[{pts}]"


def make_grid(dim: int, lo, hi, points) -> Grid:
    """Build a grid; ``lo``/``hi``/``points`` may be scalars or per-axis sequences."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return Grid(_as_tuple(lo, dim), _as_tuple(hi, dim), _as_tuple(points, dim, cast=int))


@dataclass(frozen=True)
class SampledField:
    """Function values on a grid, with an optional closed-form gradient.

    ``analytic_gradient`` has shape ``(dim, *grid.shape)`` when present.
    """

    grid: Grid
    values: np.ndarray
    analytic_gradient: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)
        if self.analytic_gradient is not None:
            g = np.asarray(self.analytic_gradient, dtype=float)
            if g.shape != (self.grid.dim,) + self.grid.shape:
                raise ValueError("analytic_gradient must have shape (dim, *grid.shape)")
            object.__setattr__(self, "analytic_gradient", g)


@dataclass(frozen=True)
class DomainMask:
    """Per-cell membership of a domain inside the ambient grid box."""

    grid: Grid
    cells: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.cells, dtype=bool)
        if c.shape != self.grid.shape:
            raise ValueError("mask shape must match grid shape")
        if not c.any():
            raise ValueError("domain mask is empty")
        object.__setattr__(self, "cells", c)

    @property
    def measure(self) -> float:
        return float(np.count_nonzero(self.cells)) * self.grid.cell_volume


def mask_cells(omega: DomainMask | None, grid: Grid) -> np.ndarray | None:
    """The cells of ``omega`` (None for the whole box), checked to lie on ``grid``."""
    if omega is None:
        return None
    if omega.grid != grid:
        raise ValueError("field and mask live on different grids")
    return omega.cells


def restrict_values(f: SampledField, omega: DomainMask | None) -> np.ndarray:
    """Values of ``f`` zero-extended outside ``omega`` (identity when omega is None)."""
    cells = mask_cells(omega, f.grid)
    return f.values if cells is None else np.where(cells, f.values, 0.0)


def safe_exponent(values: np.ndarray, p: float) -> int:
    """Exponent e of the power of two 2^e just above max |values| when |values|^p
    could leave the range of floats; 0 inside the safe band, which keeps the bits."""
    e = int(np.frexp(np.max(np.abs(values)))[1])
    return e if abs(e) * p > SAFE_EXP2 else 0


# ---------------------------------------------------------------------------
# spec text and the spec base
# ---------------------------------------------------------------------------


def split_params(body: str, text: str) -> dict[str, str]:
    """Split ``key=value,...`` into a dict of whitespace-stripped strings.

    ``text`` is the whole spec, quoted in the error for an item with no ``=``.
    """
    kv: dict[str, str] = {}
    if body.strip():
        for item in body.split(","):
            k, sep, v = item.partition("=")
            if not sep:
                raise ValueError(f"bad parameter {item!r} in {text!r}")
            kv[k.strip()] = v.strip()
    return kv


def parse_params(text: str) -> tuple[str, dict]:
    """Split ``kind:key=value,...`` into the kind and its values: a float for
    each value (``inf`` allowed), a tuple of floats for a ``;``-separated
    vector.  The inverse of :func:`format_params`."""
    kind, _, body = text.strip().partition(":")
    values = {k: tuple(float(x) for x in v.split(";")) if ";" in v else float(v)
              for k, v in split_params(body, text).items()}
    return kind.strip(), values


def format_params(kind: str, params: dict) -> str:
    """Canonical ``kind:key=value,...`` with sorted keys: floats as ``repr``,
    integers as digits, sequences joined by ``;``, strings as they are."""
    def fmt(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (tuple, list, np.ndarray)):
            return ";".join(repr(float(x)) for x in v)
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return repr(float(v))

    body = ",".join(f"{k}={fmt(v)}" for k, v in sorted(params.items()))
    return f"{kind}:{body}" if body else kind


def check_params(what: str, values: dict, required=(), optional=(), vectors=()) -> None:
    """Reject spec ``values`` that lack a ``required`` key, hold a key outside
    ``required`` and ``optional``, or give a ``;``-vector (a tuple) for a key
    outside ``vectors``; ``what`` names the spec in the message."""
    for key in required:
        if key not in values:
            raise ValueError(f"{what} needs parameter {key!r}")
    known = (*required, *optional)
    for key, v in values.items():
        if key not in known:
            raise ValueError(f"unknown {what} parameter {key!r}; known: {', '.join(known)}")
        if isinstance(v, tuple) and key not in vectors:
            raise ValueError(f"{what} parameter {key!r} takes one number, not a vector")


def as_int(value, what: str) -> int:
    """``value`` as an int; anything but a whole number >= 0 is a ValueError naming ``what``."""
    if not (float(value).is_integer() and value >= 0):
        raise ValueError(f"{what} must be a whole number >= 0, got {value!r}")
    return int(value)


def check_axis(axis: int, dim: int, what: str) -> int:
    """``axis`` if ``dim``-dimensional points have it; a ValueError naming ``what`` otherwise."""
    if not 0 <= axis < dim:
        raise ValueError(f"{what} {axis} is not an axis of a {dim}D grid")
    return axis


class Spec:
    """One kind of a spec family, written ``tag:key=value,...``.

    A family (functions, domains, spaces) is a subclass that sets ``family``
    and gets a ``kinds`` registry; each subclass with a ``tag`` is a kind
    there, and ``Family(tag, **params)`` builds it.  The text form needs
    ``keys`` and may hold ``optional`` ones (attributes, unless :meth:`params`
    says otherwise); only ``vectors`` take ``;``-separated values.  Kinds that
    declare ``defaults`` for their optional keys use the constructor here:
    whole numbers for ``integers``, float tuples for sequences, floats else,
    all finite, ``positive`` keys > 0.  Space kinds define their own.
    """

    tag = ""
    keys: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    vectors: tuple[str, ...] = ()
    defaults: dict = {}
    integers: tuple[str, ...] = ()
    positive: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "family" in cls.__dict__:
            cls.kinds = {}
        if "defaults" in cls.__dict__:
            cls.optional = tuple(cls.defaults)
        if "tag" in cls.__dict__:
            cls.kinds[cls.tag] = cls

    def __new__(cls, *args, **params):
        # a family called as Family(tag, **params) builds its kind ``tag``
        return super().__new__(cls if cls.tag else cls.kind(args[0] if args else params.get("kind")))

    def __init__(self, kind: str | None = None, **params):
        check_params(f"{self.family} {self.tag!r}", params, self.keys, self.optional, self.vectors)
        for key in self.keys + self.optional:
            value = params.get(key, self.defaults.get(key))
            if key in self.integers:
                value = as_int(value, f"{self.tag} {key}")
            elif np.isscalar(value):
                value = float(value)
                if key in self.positive and not value > 0:
                    raise ValueError(f"{self.tag} {key} must be > 0")
            else:
                value = tuple(float(v) for v in value)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{self.tag} {key} must be finite, got {value!r}")
            setattr(self, key, value)

    @classmethod
    def kind(cls, tag) -> type:
        """The class of the family's kind ``tag``."""
        if tag not in cls.kinds:
            raise ValueError(f"unknown {cls.family} kind {tag!r}; known: {', '.join(cls.kinds)}")
        return cls.kinds[tag]

    @classmethod
    def parse(cls, text: str, **context) -> "Spec":
        """The family's spec of the text form ``tag:key=value,...``."""
        tag, values = parse_params(text)
        return cls.kind(tag).from_params(values, **context)

    @classmethod
    def from_params(cls, values: dict, **context) -> "Spec":
        """The spec of the text-form ``values``; rejects missing and unknown keys."""
        check_params(f"{cls.family} {cls.tag!r}", values, cls.keys, cls.optional, cls.vectors)
        return cls(**context, **values)

    def params(self) -> dict:
        """The text-form parameters, key -> value."""
        return {k: getattr(self, k) for k in self.keys + self.optional}

    def canonical(self) -> str:
        """Textual form ``tag:key=value,...`` with sorted keys."""
        return format_params(self.tag, self.params())

    def __repr__(self):
        return f"{type(self).__name__}({self.canonical()!r})"

    def __eq__(self, other):
        """Equal when of one kind and printed alike (the text form, and a domain's box)."""
        return type(other) is type(self) and repr(self) == repr(other)

    def __hash__(self):
        return hash(repr(self))


# ---------------------------------------------------------------------------
# test-function catalog
# ---------------------------------------------------------------------------


class TestFunctionSpec(Spec):
    """One member of the closed-form test family.

    (Not a test case; the ``__test__`` flag keeps pytest from collecting it.)

    Kinds and parameters:
      gaussian    sigma > 0, center          exp(-|x-c|^2 / sigma^2)
      tent        width > 0, center          max(0, 1 - |x-c| / (width/2))
      coordinate  axis                       x_axis
      bump        radius > 0, center         exp(1 - 1/(1 - (|x-c|/R)^2)) inside R
      polygauss   degree >= 0, sigma, center (x_0-c_0)^degree * gaussian

    All kinds have closed-form gradients.  A kind implements ``_value`` and
    ``_gradient`` on an (M, dim) point array.
    """

    __test__ = False
    family = "function"
    vectors = ("center",)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Values at ``points`` of shape (M, dim)."""
        return self._value(np.atleast_2d(np.asarray(points, dtype=float)))

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """Closed-form gradient at ``points``; shape (M, dim)."""
        return self._gradient(np.atleast_2d(np.asarray(points, dtype=float)))

    def _rel(self, pts: np.ndarray) -> np.ndarray:
        return pts - np.asarray(_as_tuple(self.center, pts.shape[1]))


class Tent(TestFunctionSpec):
    tag = "tent"
    defaults = {"width": 2.0, "center": 0.0}
    positive = ("width",)

    def _value(self, pts):
        return np.maximum(0.0, 1.0 - np.linalg.norm(self._rel(pts), axis=1) / (self.width / 2.0))

    def _gradient(self, pts):
        rel = self._rel(pts)
        r = np.linalg.norm(rel, axis=1)
        half = self.width / 2.0
        out = np.zeros_like(pts)
        on = (r > 0) & (r < half)
        out[on] = -rel[on] / (r[on, None] * half)
        return out


class Coordinate(TestFunctionSpec):
    tag = "coordinate"
    defaults = {"axis": 0}
    integers = ("axis",)

    def _value(self, pts):
        return pts[:, check_axis(self.axis, pts.shape[1], "coordinate axis")].copy()

    def _gradient(self, pts):
        out = np.zeros_like(pts)
        out[:, check_axis(self.axis, pts.shape[1], "coordinate axis")] = 1.0
        return out


class Bump(TestFunctionSpec):
    tag = "bump"
    defaults = {"radius": 1.0, "center": 0.0}
    positive = ("radius",)

    def _value(self, pts):
        u2 = np.sum(self._rel(pts) ** 2, axis=1) / self.radius ** 2
        out = np.zeros(len(pts))
        inside = u2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u2[inside]))
        return out

    def _gradient(self, pts):
        R = self.radius
        rel = self._rel(pts)
        u2 = np.sum(rel ** 2, axis=1) / R ** 2
        out = np.zeros_like(pts)
        inside = u2 < 1.0
        v = np.exp(1.0 - 1.0 / (1.0 - u2[inside]))
        out[inside] = v[:, None] * (-2.0 * rel[inside] / R ** 2) / (1.0 - u2[inside])[:, None] ** 2
        return out


class Polygauss(TestFunctionSpec):
    tag = "polygauss"
    defaults = {"degree": 1, "sigma": 1.0, "center": 0.0}
    integers = ("degree",)
    positive = ("sigma",)

    def _value(self, pts):
        rel = self._rel(pts)
        return rel[:, 0] ** self.degree * np.exp(-np.sum(rel ** 2, axis=1) / self.sigma ** 2)

    def _gradient(self, pts):
        d = self.degree
        rel = self._rel(pts)
        g = np.exp(-np.sum(rel ** 2, axis=1) / self.sigma ** 2)
        out = (rel[:, 0] ** d)[:, None] * (-2.0 * rel / self.sigma ** 2) * g[:, None]
        if d > 0:
            out[:, 0] += d * rel[:, 0] ** (d - 1) * g
        return out


class Gaussian(Polygauss):
    """The polygauss of degree 0."""

    tag = "gaussian"
    defaults = {"sigma": 1.0, "center": 0.0}
    degree = 0


parse_function = TestFunctionSpec.parse


def sample(spec: TestFunctionSpec, grid: Grid) -> SampledField:
    """Evaluate a test function and its closed-form gradient at cell centers.
    A spec whose values or gradient are not finite there (a width so small
    that 1/sigma^2 overflows) is refused."""
    pts = grid.coords()
    with np.errstate(all="ignore"):  # an overflow shows in the check below
        values = spec.evaluate(pts).reshape(grid.shape)
        grad = spec.gradient(pts).T.reshape((grid.dim,) + grid.shape)
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(grad))):
        raise ValueError(f"function {spec.canonical()} is out of range: its values or gradient"
                         " on the grid are not finite")
    return SampledField(grid, values, grad)


def gradient_fd(f: SampledField) -> np.ndarray:
    """Finite-difference gradient: second-order central, one-sided at boundaries.

    Returns an array of shape ``(dim, *grid.shape)``.
    """
    for npts in f.grid.points:
        if npts < 3:
            raise ValueError("finite-difference gradient needs >= 3 points per axis")
    return np.stack(
        [
            np.gradient(f.values, f.grid.cell_size[i], axis=i, edge_order=2)
            for i in range(f.grid.dim)
        ]
    )


def gradient_magnitude(f: SampledField) -> np.ndarray:
    """Euclidean magnitude |grad f| per cell; analytic gradient preferred.  Outside
    the safe band the gradient is divided by a power of two before squaring."""
    g = f.analytic_gradient if f.analytic_gradient is not None else gradient_fd(f)
    e = safe_exponent(g, 2.0)
    g = np.ldexp(g, -e)
    return np.ldexp(np.sqrt(np.sum(g * g, axis=0)), e)
