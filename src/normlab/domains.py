"""Domain shapes as masks on the ambient grid, zero extension, and a
Monte Carlo falsifier for the curve conditions defining uniform domains.

The falsifier can refute (with a concrete witness pair and a curve audit) but
never proves: the conditions quantify over all rectifiable curves, so a clean
run only reports "not refuted".  For convex shapes the candidate family is
exhaustive enough that a failure is a true refutation; elsewhere the verdict
is advisory and flagged as such.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import DomainMask, Grid, Spec, _as_tuple, check_axis
from .spaces import zero_extend as zero_extend_field

__all__ = [
    "DomainSpec",
    "parse_domain",
    "mask",
    "zero_extend_field",
    "EpsilonCertificate",
    "epsilon_falsifier",
]


def _boxes_minus_box(lo, hi, blo, bhi):
    """Axis-aligned set difference [lo,hi] \\ (blo,bhi) as a list of boxes."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    blo = np.asarray(blo, dtype=float)
    bhi = np.asarray(bhi, dtype=float)
    if np.any(bhi <= lo) or np.any(blo >= hi):
        return [(lo.copy(), hi.copy())]
    out = []
    for ax in range(lo.size):
        if blo[ax] > lo[ax]:
            nlo, nhi = lo.copy(), hi.copy()
            nhi[ax] = blo[ax]
            out.append((nlo, nhi))
            lo[ax] = blo[ax]
        if bhi[ax] < hi[ax]:
            nlo, nhi = lo.copy(), hi.copy()
            nlo[ax] = bhi[ax]
            out.append((nlo, nhi))
            hi[ax] = bhi[ax]
    return out


def _segment_point_distance(a, b, p) -> float:
    a, b, p = (np.asarray(v, dtype=float) for v in (a, b, p))
    d = b - a
    L2 = float(np.dot(d, d))
    t = 0.0 if L2 == 0 else float(np.clip(np.dot(p - a, d) / L2, 0.0, 1.0))
    return float(np.linalg.norm(a + t * d - p))


def _segments_cross_2d(a, b, c, d) -> bool:
    """Proper or touching intersection of segments ab and cd in the plane."""
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    if ((o1 > 0) != (o2 > 0) or o1 == 0 or o2 == 0) and ((o3 > 0) != (o4 > 0) or o3 == 0 or o4 == 0):
        # conservative: also covers collinear touching
        return max(min(a[0], b[0]), min(c[0], d[0])) <= min(max(a[0], b[0]), max(c[0], d[0])) + 1e-30
    return False


class DomainSpec(Spec):
    """Shape catalog: full, ball, halfspace, lshape, annulus, slitbox.

    ``box`` (ambient bounds) is required for the kinds that set ``needs_box``
    (full, halfspace, slitbox); the others give their own ``_bounds``.  It
    doubles as the sampling box of the falsifier for every kind.  A kind's
    ``_inside`` and ``_distance`` act on an (M, dim) point array (those of
    the open box unless it overrides them); it overrides the falsifier's
    hooks where its shape needs it, and ``convex`` shapes make refutations
    certified.
    """

    family = "domain"
    vectors = ("center",)
    convex = False
    needs_box = False

    def __init__(self, kind: str | None = None, box=None, **params):
        self.box = None if box is None else (tuple(map(float, box[0])), tuple(map(float, box[1])))
        if self.needs_box and self.box is None:
            raise ValueError(f"{self.tag} domain needs the ambient box")
        super().__init__(**params)
        for key in self.integers:  # a domain's whole-number keys are axes of its box
            check_axis(getattr(self, key), len(self.box[0]), f"{self.tag} {key}")

    def __repr__(self):
        return f"{type(self).__name__}({self.canonical()!r}, box={self.box})"

    def sampling_box(self, dim: int):
        """The ambient box if given, else the shape's bounding box."""
        if self.box is None:
            return self._bounds(dim)
        return np.asarray(self.box[0]), np.asarray(self.box[1])

    def predicate(self, points: np.ndarray) -> np.ndarray:
        """Open-set membership of continuum points, shape (M,)."""
        return self._inside(np.atleast_2d(np.asarray(points, dtype=float)))

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Closed-form distance to the boundary for points inside the domain."""
        return self._distance(np.atleast_2d(np.asarray(points, dtype=float)))

    def segment_blocked(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Certified check that the open segment (a, b) leaves the domain
        (never, for a convex shape)."""
        return False

    def interior_anchor(self, dim: int) -> np.ndarray:
        """A point inside the shape that bent candidate curves lean towards."""
        lo, hi = self.sampling_box(dim)
        return 0.5 * (lo + hi)

    def stress_pairs(self, dim: int, rng) -> list[tuple[np.ndarray, np.ndarray]]:
        """Shape-aware point pairs the falsifier tries besides the random sample."""
        return []

    def _inside(self, pts):
        lo, hi = self.sampling_box(pts.shape[1])
        return np.all((pts > lo) & (pts < hi), axis=1)

    def _distance(self, pts):
        lo, hi = self.sampling_box(pts.shape[1])
        return np.min(np.minimum(pts - lo, hi - pts), axis=1)


def _radii(pts: np.ndarray, center) -> np.ndarray:
    return np.linalg.norm(pts - np.asarray(_as_tuple(center, pts.shape[1])), axis=1)


class Full(DomainSpec):
    tag = "full"
    convex = needs_box = True


class Ball(DomainSpec):
    tag = "ball"
    keys = ("radius",)
    defaults = {"center": 0.0}
    positive = ("radius",)
    convex = True

    def _bounds(self, dim):
        c = np.asarray(_as_tuple(self.center, dim))
        return c - self.radius, c + self.radius

    def _inside(self, pts):
        return _radii(pts, self.center) < self.radius

    def _distance(self, pts):
        return self.radius - _radii(pts, self.center)

    def interior_anchor(self, dim):
        return np.asarray(_as_tuple(self.center, dim))

    def stress_pairs(self, dim, rng):
        # near-boundary pairs a short arc apart; a 1D ball has no arcs
        if dim < 2:
            return []
        c = np.asarray(_as_tuple(self.center, dim))
        R = self.radius
        pairs = []
        for frac in (0.9, 0.99):
            for ang in (0.05, 0.3):
                u = rng.standard_normal(dim)
                u /= np.linalg.norm(u)
                v = rng.standard_normal(dim)
                v = v - u * np.dot(v, u)
                v /= np.linalg.norm(v)
                a = c + frac * R * u
                b = c + frac * R * (math.cos(ang) * u + math.sin(ang) * v)
                pairs.append((a, b))
        return pairs


class Halfspace(DomainSpec):
    """The half-space x_axis > offset, clipped to the box; the boundary
    distance is that of the ideal half-space, the shape the curve
    conditions refer to."""

    tag = "halfspace"
    defaults = {"axis": 0, "offset": 0.0}
    integers = ("axis",)
    convex = needs_box = True

    def _inside(self, pts):
        return super()._inside(pts) & (pts[:, self.axis] > self.offset)

    def _distance(self, pts):
        return pts[:, self.axis] - self.offset

    def interior_anchor(self, dim):
        mid = super().interior_anchor(dim)
        mid[self.axis] = 0.5 * (self.offset + self.sampling_box(dim)[1][self.axis])
        return mid

    def stress_pairs(self, dim, rng):
        # pairs just above the cut, parallel to it
        lo, hi = self.sampling_box(dim)
        ax = self.axis
        span = float(np.max(hi - lo))
        pairs = []
        for height in (1e-3 * span, 1e-2 * span):
            for sep in (0.1 * span, 0.4 * span):
                a = 0.5 * (lo + hi)
                a[ax] = self.offset + height
                b = a.copy()
                other = (ax + 1) % dim
                a[other] -= sep / 2
                b[other] += sep / 2
                pairs.append((a, b))
        return pairs


class Lshape(DomainSpec):
    """Union of the open boxes (lo1, hi1) and (lo2, hi2)."""

    tag = "lshape"
    keys = vectors = ("lo1", "hi1", "lo2", "hi2")

    def __init__(self, *args, **params):
        super().__init__(*args, **params)
        dim = max(np.size(getattr(self, k)) for k in self.keys)
        if any(np.any(lo >= hi) for lo, hi in self._boxes(dim)):
            raise ValueError("lshape needs lo < hi on every axis of both boxes")

    def _boxes(self, dim):
        lo1, hi1, lo2, hi2 = (np.asarray(_as_tuple(getattr(self, k), dim)) for k in self.keys)
        return [(lo1, hi1), (lo2, hi2)]

    def _bounds(self, dim):
        (lo1, hi1), (lo2, hi2) = self._boxes(dim)
        return np.minimum(lo1, lo2), np.maximum(hi1, hi2)

    def interior_anchor(self, dim):
        # the bounding box's centre can be the reentrant corner
        lo, hi = max(self._boxes(dim), key=lambda box: np.prod(box[1] - box[0]))
        return 0.5 * (lo + hi)

    def _inside(self, pts):
        (lo1, hi1), (lo2, hi2) = self._boxes(pts.shape[1])
        return np.all((pts > lo1) & (pts < hi1), axis=1) | np.all((pts > lo2) & (pts < hi2), axis=1)

    def _distance(self, pts):
        # nearest exposed part of a face: each face of one box minus the other
        # box; the pieces do not depend on the point
        boxes = self._boxes(pts.shape[1])
        pieces = []
        for (lo, hi), (olo, ohi) in (boxes, boxes[::-1]):
            for ax in range(lo.size):
                for side in (lo[ax], hi[ax]):
                    flo, fhi = lo.copy(), hi.copy()
                    flo[ax] = fhi[ax] = side
                    pieces += _boxes_minus_box(flo, fhi, olo, ohi)
        plo, phi = (np.array(ends) for ends in zip(*pieces))
        gap = np.maximum(np.maximum(plo - pts[:, None], pts[:, None] - phi), 0.0)
        return np.min(np.linalg.norm(gap, axis=2), axis=1)

    def segment_blocked(self, a, b):
        # covered-interval test of the segment against the two boxes
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        ivs = []
        for lo, hi in self._boxes(a.size):
            t0, t1 = 0.0, 1.0
            for ax in range(a.size):
                d = b[ax] - a[ax]
                if d == 0:
                    if not (lo[ax] <= a[ax] <= hi[ax]):
                        t0, t1 = 1.0, 0.0
                        break
                    continue
                u0 = (lo[ax] - a[ax]) / d
                u1 = (hi[ax] - a[ax]) / d
                if u0 > u1:
                    u0, u1 = u1, u0
                t0, t1 = max(t0, u0), min(t1, u1)
            if t1 > t0:
                ivs.append((t0, t1))
        ivs.sort()
        covered = 0.0
        for t0, t1 in ivs:
            if t0 > covered + 1e-12:
                return True
            covered = max(covered, t1)
        return covered < 1.0 - 1e-12


class Annulus(DomainSpec):
    tag = "annulus"
    keys = ("r1", "r2")
    defaults = {"center": 0.0}

    def __init__(self, *args, **params):
        super().__init__(*args, **params)
        if not 0 < self.r1 < self.r2:
            raise ValueError("annulus needs 0 < r1 < r2")

    def _bounds(self, dim):
        c = np.asarray(_as_tuple(self.center, dim))
        return c - self.r2, c + self.r2

    def _inside(self, pts):
        d = _radii(pts, self.center)
        return (d > self.r1) & (d < self.r2)

    def _distance(self, pts):
        d = _radii(pts, self.center)
        return np.minimum(d - self.r1, self.r2 - d)

    def segment_blocked(self, a, b):
        a = np.asarray(a, dtype=float)
        return _segment_point_distance(a, b, _as_tuple(self.center, a.size)) <= self.r1

    def interior_anchor(self, dim):
        c = np.asarray(_as_tuple(self.center, dim))
        c[0] += 0.5 * (self.r1 + self.r2)
        return c


class Slitbox(DomainSpec):
    """The box minus the slit {x_axis = pos, x_perp >= start}, where perp is
    the last axis other than ``axis``: the standard non-uniform domain."""

    tag = "slitbox"
    defaults = {"axis": 0, "pos": 0.0, "start": 0.0}
    integers = ("axis",)
    needs_box = True

    def _perp(self, dim: int) -> int:
        return dim - 1 if self.axis != dim - 1 else dim - 2

    def _inside(self, pts):
        perp = self._perp(pts.shape[1])
        on_slit = (pts[:, self.axis] == self.pos) & (pts[:, perp] >= self.start)
        return super()._inside(pts) & ~on_slit

    def interior_anchor(self, dim):
        # the box centre, moved off the slit along the axis when it lies on it
        mid = super().interior_anchor(dim)
        if not self.predicate(mid)[0]:
            mid[self.axis] = 0.5 * (self.pos + self.sampling_box(dim)[1][self.axis])
        return mid

    def _distance(self, pts):
        gap = np.maximum(self.start - pts[:, self._perp(pts.shape[1])], 0.0)
        slit_d = np.sqrt((pts[:, self.axis] - self.pos) ** 2 + gap ** 2)
        return np.minimum(super()._distance(pts), slit_d)

    def segment_blocked(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.size != 2:
            return not bool(self.predicate(0.5 * (a + b))[0])
        perp = self._perp(2)
        s0 = np.empty(2)
        s1 = np.empty(2)
        s0[self.axis], s0[perp] = self.pos, self.start
        s1[self.axis], s1[perp] = self.pos, self.sampling_box(2)[1][perp]
        return _segments_cross_2d(a, b, s0, s1)

    def stress_pairs(self, dim, rng):
        # pairs straddling the slit at three heights and three gaps
        lo, hi = self.sampling_box(dim)
        perp = self._perp(dim)
        span = float(np.max(hi - lo))
        pairs = []
        for frac in (0.35, 0.6, 0.85):
            height = self.start + frac * (hi[perp] - self.start)
            for delta in (2e-3 * span, 8e-3 * span, 3e-2 * span):
                a = 0.5 * (lo + hi)
                b = a.copy()
                a[self.axis], b[self.axis] = self.pos - delta, self.pos + delta
                a[perp] = b[perp] = height
                pairs.append((a, b))
        return pairs


parse_domain = DomainSpec.parse


def mask(domain: DomainSpec, grid: Grid) -> DomainMask:
    """Cells whose centers satisfy the shape predicate."""
    cells = domain.predicate(grid.coords()).reshape(grid.shape)
    if not cells.any():
        raise ValueError(f"domain {domain.canonical()} holds no cell centre of this grid")
    return DomainMask(grid, cells)


# ---------------------------------------------------------------------------
# curve-condition falsifier
# ---------------------------------------------------------------------------


@dataclass
class EpsilonCertificate:
    eps: float
    verdict: str                    # "refuted" | "not-refuted"
    exhaustive: bool                # candidate family certifies convex refutations
    samples: int
    seed: int
    witness: dict | None = None     # pair, failed condition, per-candidate audit
    flags: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


_BEND_DEPTHS = (0.1, 0.2, 0.35, 0.5, 0.75)
CURVE_POINTS = 64  # points per straight curve, half of it per bend leg


def _polyline_ok(domain: DomainSpec, x, y, pts_list, eps, length) -> tuple[bool, str]:
    """Check conditions along a sampled candidate curve; returns (ok, fail reason)."""
    d = float(np.linalg.norm(y - x))
    if length > d / eps * (1.0 + 1e-12):
        return False, "length"
    z = np.vstack(pts_list)
    if not np.all(domain.predicate(z)):
        return False, "outside"
    clearance = domain.boundary_distance(z)
    need = eps * np.linalg.norm(z - x, axis=1) * np.linalg.norm(z - y, axis=1) / d
    if np.any(clearance < need - 1e-12):
        return False, "clearance"
    return True, ""


def _candidate_curves(domain: DomainSpec, x, y, eps, rng):
    """Straight segment plus one-bend polylines through perturbed midpoints."""
    d = float(np.linalg.norm(y - x))
    t = np.linspace(0.0, 1.0, CURVE_POINTS)[:, None]
    yield "segment", [x + t * (y - x)], d, [(x, y)]
    dim = x.size
    seg = (y - x) / d
    dirs = []
    anchor = domain.interior_anchor(dim) - 0.5 * (x + y)
    anchor = anchor - seg * np.dot(anchor, seg)
    na = np.linalg.norm(anchor)
    if na > 1e-12:
        dirs.append(anchor / na)
    for _ in range(4):
        v = rng.standard_normal(dim)
        v = v - seg * np.dot(v, seg)
        nv = np.linalg.norm(v)
        if nv > 1e-9:
            dirs.append(v / nv)
            dirs.append(-v / nv)
    half = np.linspace(0.0, 1.0, CURVE_POINTS // 2)[:, None]
    for depth in _BEND_DEPTHS:
        if math.sqrt(1.0 + 4.0 * depth ** 2) > 1.0 / eps:
            continue  # cannot satisfy the length condition
        for k, u in enumerate(dirs):
            apex = 0.5 * (x + y) + depth * d * u
            length = float(np.linalg.norm(apex - x) + np.linalg.norm(y - apex))
            pts = [x + half * (apex - x), apex + half * (y - apex)]
            yield f"bend{depth}/{k}", pts, length, [(x, apex), (apex, y)]


def epsilon_falsifier(domain: DomainSpec, eps: float, sample_count: int, dim: int | None = None,
                      seed: int = 0) -> EpsilonCertificate:
    """Sample point pairs and hunt for a pair no candidate curve can join.

    A refutation is certified for convex shapes (the family contains the
    optimal straight segment and inward bends); for non-convex shapes the
    refuted verdict is advisory but carries a full curve audit, including
    exact segment-blocking checks against the shape geometry.
    """
    if not (0 < eps <= 1):
        raise ValueError("eps must lie in (0, 1]")
    if sample_count < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    if dim is None:
        dim = len(domain.box[0]) if domain.box is not None else 2
    lo, hi = domain.sampling_box(dim)

    pairs = domain.stress_pairs(dim, rng)
    need = sample_count
    misses = 0
    while need > 0:
        cand = rng.uniform(lo, hi, size=(2 * need + 16, dim))
        keep = cand[domain.predicate(cand)]
        misses = 0 if len(keep) else misses + 1
        if misses == 1000:
            raise ValueError(f"domain {domain.canonical()} holds no sampled point of its sampling box")
        for i in range(0, len(keep) - 1, 2):
            pairs.append((keep[i], keep[i + 1]))
            need -= 1
            if need == 0:
                break

    for x, y in pairs:
        if np.allclose(x, y):
            continue
        audit = []
        ok = False
        for name, pts, length, legs in _candidate_curves(domain, x, y, eps, rng):
            if any(domain.segment_blocked(a, b) for a, b in legs):
                audit.append({"curve": name, "fail": "blocked"})
                continue
            good, reason = _polyline_ok(domain, x, y, pts, eps, length)
            if good:
                ok = True
                break
            audit.append({"curve": name, "fail": reason})
        if not ok:
            reason = audit[0]["fail"] if audit else "unknown"
            index = {"length": "iii", "clearance": "iv",
                     "outside": "i", "blocked": "i"}.get(reason, "?")
            witness = {
                "x": [float(v) for v in x],
                "y": [float(v) for v in y],
                "condition": reason,
                "condition_index": index,
                "audit": audit,
            }
            flags = [] if domain.convex else ["advisory-refutation"]
            return EpsilonCertificate(eps, "refuted", domain.convex, len(pairs), seed,
                                      witness, flags)
    return EpsilonCertificate(eps, "not-refuted", False, len(pairs), seed)
