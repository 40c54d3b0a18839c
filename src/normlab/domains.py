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

from .grid import DomainMask, Grid, as_int, check_params, format_params, parse_params
from .spaces import zero_extend as zero_extend_field

__all__ = [
    "DomainSpec",
    "parse_domain",
    "mask",
    "zero_extend_field",
    "EpsilonCertificate",
    "epsilon_falsifier",
]

_CONVEX_KINDS = {"full", "ball", "halfspace"}
# the parameters of each kind, as ``_validate`` defaults or requires them
_KINDS = {
    "full": (),
    "ball": ("center", "radius"),
    "halfspace": ("axis", "offset"),
    "lshape": ("lo1", "hi1", "lo2", "hi2"),
    "annulus": ("center", "r1", "r2"),
    "slitbox": ("axis", "pos", "start"),
}


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


def _point_box_distance(z, lo, hi) -> float:
    gap = np.maximum(np.maximum(np.asarray(lo) - z, z - np.asarray(hi)), 0.0)
    return float(np.linalg.norm(gap))


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


class DomainSpec:
    """Shape catalog: full, ball, halfspace, lshape, annulus, slitbox.

    ``box`` (ambient bounds) is required for full, halfspace and slitbox; it
    doubles as the sampling box of the falsifier for every kind.
    """

    def __init__(self, kind: str, box=None, **params):
        self.kind = kind
        self.params = dict(params)
        self.box = None if box is None else (tuple(map(float, box[0])), tuple(map(float, box[1])))
        self._validate()

    def _validate(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        p = self.params
        check_params(f"domain {self.kind!r}", p, optional=_KINDS[self.kind],
                     vectors=("center", "lo1", "hi1", "lo2", "hi2"))
        if self.kind == "full":
            if self.box is None:
                raise ValueError("full domain needs the ambient box")
        elif self.kind == "ball":
            p.setdefault("center", 0.0)
            if not p.get("radius", 0) > 0:
                raise ValueError("ball radius must be positive")
        elif self.kind == "halfspace":
            p.setdefault("axis", 0)
            p.setdefault("offset", 0.0)
            p["axis"] = as_int(p["axis"], "halfspace axis")
            if self.box is None:
                raise ValueError("halfspace (clipped) needs the ambient box")
        elif self.kind == "lshape":
            for key in ("lo1", "hi1", "lo2", "hi2"):
                if key not in p:
                    raise ValueError("lshape needs lo1/hi1/lo2/hi2 corner vectors")
                p[key] = tuple(float(v) for v in np.atleast_1d(p[key]))
        elif self.kind == "annulus":
            p.setdefault("center", 0.0)
            r1, r2 = p.get("r1", 0), p.get("r2", 0)
            if not 0 < r1 < r2:
                raise ValueError("annulus needs 0 < r1 < r2")
        elif self.kind == "slitbox":
            p.setdefault("axis", 0)
            p.setdefault("pos", 0.0)
            p.setdefault("start", 0.0)
            p["axis"] = as_int(p["axis"], "slitbox axis")
            if self.box is None:
                raise ValueError("slitbox needs the ambient box")

    @property
    def convex(self) -> bool:
        return self.kind in _CONVEX_KINDS

    def canonical(self) -> str:
        return format_params(self.kind, self.params)

    def __repr__(self):
        return f"DomainSpec({self.canonical()!r})"

    def _center(self, dim: int) -> np.ndarray:
        c = self.params.get("center", 0.0)
        return np.asarray(c if not np.isscalar(c) else [c] * dim, dtype=float)

    def _slit_perp_axis(self, dim: int) -> int:
        ax = self.params["axis"]
        return dim - 1 if ax != dim - 1 else dim - 2

    def sampling_box(self, dim: int):
        if self.box is not None:
            return np.asarray(self.box[0]), np.asarray(self.box[1])
        p = self.params
        if self.kind == "ball":
            c = self._center(dim)
            return c - p["radius"], c + p["radius"]
        if self.kind == "annulus":
            c = self._center(dim)
            return c - p["r2"], c + p["r2"]
        if self.kind == "lshape":
            lo = np.minimum(p["lo1"], p["lo2"])
            hi = np.maximum(p["hi1"], p["hi2"])
            return np.asarray(lo), np.asarray(hi)
        raise ValueError("no box available")

    def predicate(self, points: np.ndarray) -> np.ndarray:
        """Open-set membership of continuum points, shape (M,)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dim = pts.shape[1]
        p = self.params
        if self.kind == "full":
            lo, hi = self.sampling_box(dim)
            return np.all((pts > lo) & (pts < hi), axis=1)
        if self.kind == "ball":
            return np.linalg.norm(pts - self._center(dim), axis=1) < p["radius"]
        if self.kind == "halfspace":
            lo, hi = self.sampling_box(dim)
            inside = np.all((pts > lo) & (pts < hi), axis=1)
            return inside & (pts[:, p["axis"]] > p["offset"])
        if self.kind == "lshape":
            in1 = np.all((pts > np.asarray(p["lo1"])) & (pts < np.asarray(p["hi1"])), axis=1)
            in2 = np.all((pts > np.asarray(p["lo2"])) & (pts < np.asarray(p["hi2"])), axis=1)
            return in1 | in2
        if self.kind == "annulus":
            d = np.linalg.norm(pts - self._center(dim), axis=1)
            return (d > p["r1"]) & (d < p["r2"])
        if self.kind == "slitbox":
            lo, hi = self.sampling_box(dim)
            inside = np.all((pts > lo) & (pts < hi), axis=1)
            perp = self._slit_perp_axis(dim)
            on_slit = (pts[:, p["axis"]] == p["pos"]) & (pts[:, perp] >= p["start"])
            return inside & ~on_slit
        raise AssertionError(self.kind)

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Closed-form distance to the boundary for points inside the domain."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dim = pts.shape[1]
        p = self.params
        if self.kind == "full":
            lo, hi = self.sampling_box(dim)
            return np.min(np.minimum(pts - lo, hi - pts), axis=1)
        if self.kind == "ball":
            return p["radius"] - np.linalg.norm(pts - self._center(dim), axis=1)
        if self.kind == "halfspace":
            # ideal half-space: the catalog shape the curve conditions refer to
            return pts[:, p["axis"]] - p["offset"]
        if self.kind == "annulus":
            d = np.linalg.norm(pts - self._center(dim), axis=1)
            return np.minimum(d - p["r1"], p["r2"] - d)
        if self.kind == "slitbox":
            lo, hi = self.sampling_box(dim)
            box_d = np.min(np.minimum(pts - lo, hi - pts), axis=1)
            perp = self._slit_perp_axis(dim)
            gap = np.maximum(p["start"] - pts[:, perp], 0.0)
            slit_d = np.sqrt((pts[:, p["axis"]] - p["pos"]) ** 2 + gap ** 2)
            return np.minimum(box_d, slit_d)
        if self.kind == "lshape":
            return np.array([self._lshape_distance(z) for z in pts])
        raise AssertionError(self.kind)

    def _lshape_distance(self, z: np.ndarray) -> float:
        p = self.params
        boxes = [(np.asarray(p["lo1"]), np.asarray(p["hi1"])),
                 (np.asarray(p["lo2"]), np.asarray(p["hi2"]))]
        best = math.inf
        for (lo, hi), (olo, ohi) in (boxes, boxes[::-1]):
            for ax in range(z.size):
                for side in (lo[ax], hi[ax]):
                    flo, fhi = lo.copy(), hi.copy()
                    flo[ax] = fhi[ax] = side
                    for plo, phi in _boxes_minus_box(flo, fhi, olo, ohi):
                        best = min(best, _point_box_distance(z, plo, phi))
        return best

    def segment_blocked(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Certified check that the open segment (a, b) leaves the domain."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.convex:
            return False
        p = self.params
        if self.kind == "annulus":
            return _segment_point_distance(a, b, self._center(a.size)) <= p["r1"]
        if self.kind == "slitbox":
            if a.size != 2:
                mid = 0.5 * (a + b)
                return not bool(self.predicate(mid[None])[0])
            perp = self._slit_perp_axis(2)
            ax = p["axis"]
            top = self.sampling_box(2)[1][perp]
            s0 = np.empty(2)
            s1 = np.empty(2)
            s0[ax], s0[perp] = p["pos"], p["start"]
            s1[ax], s1[perp] = p["pos"], top
            return _segments_cross_2d(a, b, s0, s1)
        if self.kind == "lshape":
            # covered-interval test of the segment against the two boxes
            ivs = []
            for lo, hi in ((p["lo1"], p["hi1"]), (p["lo2"], p["hi2"])):
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
        return False

    def interior_anchor(self, dim: int) -> np.ndarray:
        p = self.params
        if self.kind == "ball":
            return self._center(dim)
        if self.kind == "annulus":
            c = self._center(dim)
            c = c.copy()
            c[0] += 0.5 * (p["r1"] + p["r2"])
            return c
        lo, hi = self.sampling_box(dim)
        mid = 0.5 * (np.asarray(lo) + np.asarray(hi))
        if self.kind == "halfspace":
            mid[p["axis"]] = 0.5 * (p["offset"] + hi[p["axis"]])
        return mid


def parse_domain(text: str, box=None) -> DomainSpec:
    """Parse ``kind:key=value,...``; vectors use ``;`` separators."""
    kind, values = parse_params(text)
    return DomainSpec(kind, box=box, **values)


def mask(domain: DomainSpec, grid: Grid) -> DomainMask:
    """Cells whose centers satisfy the shape predicate."""
    dom = domain
    if dom.box is None:
        dom = DomainSpec(domain.kind, box=(grid.lo, grid.hi), **domain.params)
    cells = dom.predicate(grid.coords()).reshape(grid.shape)
    if not cells.any():
        raise ValueError("domain mask is empty on this grid")
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


def _candidate_curves(domain: DomainSpec, x, y, eps, rng, curve_points):
    """Straight segment plus one-bend polylines through perturbed midpoints."""
    d = float(np.linalg.norm(y - x))
    t = np.linspace(0.0, 1.0, curve_points)[:, None]
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
    half = np.linspace(0.0, 1.0, max(curve_points // 2, 2))[:, None]
    for depth in _BEND_DEPTHS:
        if math.sqrt(1.0 + 4.0 * depth ** 2) > 1.0 / eps:
            continue  # cannot satisfy the length condition
        for k, u in enumerate(dirs):
            apex = 0.5 * (x + y) + depth * d * u
            length = float(np.linalg.norm(apex - x) + np.linalg.norm(y - apex))
            pts = [x + half * (apex - x), apex + half * (y - apex)]
            yield f"bend{depth}/{k}", pts, length, [(x, apex), (apex, y)]


def _adversarial_pairs(domain: DomainSpec, dim: int, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shape-aware stress pairs appended to the random sample."""
    p = domain.params
    pairs = []
    if domain.kind == "slitbox":
        lo, hi = domain.sampling_box(dim)
        perp = domain._slit_perp_axis(dim)
        ax = p["axis"]
        span = float(np.max(np.asarray(hi) - np.asarray(lo)))
        top = hi[perp]
        for frac in (0.35, 0.6, 0.85):
            height = p["start"] + frac * (top - p["start"])
            for delta in (2e-3 * span, 8e-3 * span, 3e-2 * span):
                a = 0.5 * (np.asarray(lo) + np.asarray(hi))
                b = a.copy()
                a = a.astype(float); b = b.astype(float)
                a[ax], b[ax] = p["pos"] - delta, p["pos"] + delta
                a[perp] = b[perp] = height
                pairs.append((a, b))
    elif domain.kind == "ball":
        c = domain._center(dim)
        R = p["radius"]
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
    elif domain.kind == "halfspace":
        lo, hi = domain.sampling_box(dim)
        ax = p["axis"]
        span = float(np.max(np.asarray(hi) - np.asarray(lo)))
        for height in (1e-3 * span, 1e-2 * span):
            for sep in (0.1 * span, 0.4 * span):
                a = 0.5 * (np.asarray(lo) + np.asarray(hi)).astype(float)
                a[ax] = p["offset"] + height
                b = a.copy()
                other = (ax + 1) % dim
                a[other] -= sep / 2
                b[other] += sep / 2
                pairs.append((a, b))
    return pairs


def epsilon_falsifier(domain: DomainSpec, eps: float, sample_count: int, dim: int | None = None,
                      seed: int = 0, curve_points: int = 64) -> EpsilonCertificate:
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
        dim = 2 if domain.kind in ("lshape", "slitbox") else (
            len(domain.box[0]) if domain.box is not None else 2)
    lo, hi = domain.sampling_box(dim)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    pairs = _adversarial_pairs(domain, dim, rng)
    need = sample_count
    while need > 0:
        cand = rng.uniform(lo, hi, size=(2 * need + 16, dim))
        keep = cand[domain.predicate(cand)]
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
        for name, pts, length, legs in _candidate_curves(domain, x, y, eps, rng, curve_points):
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
