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

import collections
import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .grid import DomainMask, Grid, SampledField, gradient_magnitude, mask_cells, safe_exponent
from .spaces import SpaceSpec, _unit_ball_volume, norm, norm_many

__all__ = [
    "KernelPolicy",
    "BsvyParams",
    "FunctionalReport",
    "bbm_constant",
    "sphere_area",
    "sphere_moment",
    "gagliardo_seminorm_sweep",
    "fractional_inner_field",
    "bbm_scaled_sweep",
    "bbm_scaled_value",
    "bbm_limit_extrapolate",
    "bsvy_inner_profile",
    "bsvy_values",
    "bsvy_functional",
    "bsvy_sup",
    "bsvy_sups",
    "default_lambda_grid",
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
        if not (float(self.subsample).is_integer() and self.subsample >= 1):
            raise ValueError(f"subsample factor must be a whole number >= 1, got {self.subsample}")
        object.__setattr__(self, "subsample", int(self.subsample))
        if not 0 < self.near_window < math.inf:
            raise ValueError(f"near window must be positive and finite, got {self.near_window}")
        if not 0 <= self.subsample_window < math.inf:
            raise ValueError(f"subsample window must be finite and >= 0, got {self.subsample_window}")

    def canonical(self) -> str:
        return (f"diagonal={self.diagonal},near_window={self.near_window!r},"
                f"subsample={self.subsample},subsample_window={self.subsample_window!r}")


DEFAULT_POLICY = KernelPolicy()
EXCLUDE_POLICY = KernelPolicy(diagonal="exclude")
LAMBDA_POINTS = 40  # default lambda grid: its points, and its span in units of max |grad f|
LAMBDA_DECADES = (1e-3, 1e4)
REFINE_POINTS = 10  # lambdas added by each extension or refinement pass of bsvy_sup
TAIL_TOL = 1e-5  # a gamma < 0 sup stops after the grid when its tail bound is this close
# at p = 2 the Gagliardo kernels sum the offsets with max |o_i| <= NEAR_CELLS
# directly and the rest by FFT correlation, which loses digits to cancellation
# near the diagonal
NEAR_CELLS = 16
# the pair walk's block budget: a block of b > 1 offsets on c cells has
# b * c <= PAIR_BLOCK_CELLS, so one of its float stacks takes at most 256 KB
# (the level-set kernel's boolean stacks hold up to eight times the entries)
PAIR_BLOCK_CELLS = 1 << 15
# the bytes the geometry caches keep, walks and level-set geometries together
# (see _geometry_cache): one pass of perfbench's levelset-bracket workload
# keeps 0.74 MB, of pair-kernel-large 2.5 MB, and a 3D 12^3 geometry under
# criterion 12's policy 10.1 MB with its walk
GEOMETRY_BYTES = 16 << 20


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


class _Walk:
    """The pair walk over the bounding box of the domain cells (the whole grid
    without a mask), cut into :class:`_Block` steps (``blocks``).

    The walk keeps its arrays in one layout: the box, seen as (*outer, rows,
    nb) with rows = 1 in 1D, with its last two axes merged into a flat axis
    that holds ``reach`` zeros, then each row's nb cells followed by
    ``reach`` zeros (a row takes W = nb + reach entries).  An offset (...,
    r, c) with |c| <= reach then shifts the flat axis by r W + c, and a
    partner x + o off its row lands on padding, not on the next row.
    ``on`` is 1 on the domain cells in that layout and 0 elsewhere; a walked
    field is a grid array put in it by :meth:`field`.  Nothing in a walk
    depends on a field, and its arrays are read-only: a cached walk serves
    every field on its domain.
    """

    def __init__(self, first, last, reach: int, mask: np.ndarray | None, offs, dists, index):
        shape = [b + 1 - a for a, b in zip(first, last)]
        self.cut, self.box = tuple(slice(a, b + 1) for a, b in zip(first, last)), shape
        self.outer, self.rows, self.nb = shape[:-2], ([1] + shape)[-2], shape[-1]
        self.reach, self.width = reach, shape[-1] + reach
        self.offs, self.index = offs, index  # the walked offsets, block after block
        # the flat index steps of the outer axes and of a row
        self.strides = tuple(math.prod(self.outer[i + 1:]) * (reach + self.rows * self.width)
                             for i in range(len(self.outer))) + (self.width,)
        self.masked = mask is not None
        self.on = self._pad(mask[self.cut].astype(float) if self.masked else np.ones(shape))
        _read_only(self.on, offs, dists, index)
        self.blocks = list(self._cut(offs, dists, index))

    def _pad(self, a: np.ndarray) -> np.ndarray:
        out = self.zeros(dtype=a.dtype)
        rows = out[..., self.reach:].reshape(self.outer + [self.rows, self.width])
        rows[..., :self.nb] = a.reshape(self.outer + [self.rows, self.nb])
        return out

    @property
    def nbytes(self) -> int:
        """The bytes the walk keeps: its arrays and its blocks' records, each
        record counted from the first one's layout (the record, its views,
        tuples and positions, the header of its list of lengths) plus, per
        walked offset, a float and its list entry."""
        total = self.on.nbytes + self.offs.nbytes + self.index.nbytes + sys.getsizeof(self.blocks)
        if self.blocks:
            b = self.blocks[0]
            record = sum(map(sys.getsizeof, (b, b.offs, b.index, b.edge, b.shape, b._x, b._y, [])))
            total += len(self.blocks) * record + len(self.offs) * _LENGTH_BYTES
        return total

    def field(self, values: np.ndarray) -> np.ndarray:
        """The walked field of a grid array: its values on the domain cells in
        the layout, zero elsewhere."""
        out = self._pad(np.asarray(values)[self.cut])
        return np.where(self.on != 0, out, 0) if self.masked else out

    def zeros(self, lead=(), dtype=float) -> np.ndarray:
        """A zero array of the layout with leading axes ``lead``."""
        return np.zeros(tuple(lead) + tuple(self.outer) + (self.reach + self.rows * self.width,), dtype)

    def unpad(self, acc: np.ndarray, grid_shape) -> np.ndarray:
        """The grid array of an array of the layout (zero off the box)."""
        lead = acc.shape[:acc.ndim - len(self.outer) - 1]
        rows = acc[..., self.reach:].reshape(lead + tuple(self.outer) + (self.rows, self.width))
        out = np.zeros(lead + tuple(grid_shape))
        out[(Ellipsis,) + self.cut] = rows[..., :self.nb].reshape(lead + tuple(self.box))
        return out

    def __iter__(self):
        return iter(self.blocks)

    def _cut(self, offs, dists, index):
        dim = offs.shape[1]
        span = [n - 1 for n in self.box]
        nb, reach, width = self.nb, self.reach, self.width
        # a run ends where the last component skips or the leading ones change,
        # and before it reaches 0: the lengths in a block are then monotone,
        # and the partners of one row of cells x never reach the next row
        new = np.ones(len(offs), dtype=bool)
        new[1:] = ((np.diff(offs[:, -1]) != 1) | (offs[1:, -1] == 0)
                   | np.any(offs[1:, :-1] != offs[:-1, :-1], axis=1))
        starts = np.flatnonzero(new).tolist() + [len(offs)]
        for s, e in zip(starts, starts[1:]):
            lead = offs[s, :-1].tolist()
            r = lead.pop() if dim > 1 else 0
            cells = tuple(n + 1 - abs(o) for o, n in zip(lead, span)) + (self.rows - abs(r),)
            # the flat index of the first row of cells x, and of the same cells one
            # row of the offsets further
            xa = sum(max(0, -o) * t for o, t in zip(lead, self.strides)) + reach + max(0, -r) * width
            ya = sum(max(0, o) * t for o, t in zip(lead, self.strides)) + reach + max(0, r) * width
            while s < e:
                c0 = int(offs[s, -1])
                # a block from c0 covers at most nb - max(c0, 0) cells per row
                # (fewer when c0 < 0)
                cols = nb - max(c0, 0)
                b = min(e - s, max(1, PAIR_BLOCK_CELLS // (math.prod(cells) * cols)))
                x0, x1 = max(0, -(c0 + b - 1)), min(nb, nb - c0)
                # the columns whose partner lies off the row for some offset:
                # the first ones (x + c0 < 0) and the last (x + c0 + b - 1 >= nb)
                edge = max(0, -c0 - x0), max(0, x1 + c0 + b - 1 - nb)
                yield _Block(self, offs[s:s + b], dists[s:s + b].tolist(), index[s:s + b],
                             cells + (x1 - x0,), xa + x0, ya + x0 + c0, edge)
                s += b


class _Block:
    """One step of the pair walk: the offsets o = (lead, c) for c = c0, ...,
    c0 + b - 1, which share every component but the last, on the cells x that
    at least one of them pairs: the shared leading-axis slices by the union
    of their slices along the last axis (``shape`` is (b, *cells)).

    ``offs`` and ``dists`` are the offsets and their lengths (Python floats,
    for scalar powers), ``index`` their rows in the :func:`_half_offsets`
    table.  ``here(field)`` is a walked field (:meth:`_Walk.field`) on the
    cells x and ``there(field)`` the stack of it at x + o, one row per
    offset: a sliding window along the last axis of the walk's layout.  A
    pair of the block joins two domain cells; kernels zero a stack off the
    pairs (the block's ragged edge and the cells off the domain) with
    :meth:`restrict` before they sum it, and :meth:`add` accumulates a stack
    at both ends of its pairs.  The ragged edge, where x + o lies off the
    row, is the first a and the last b columns of the stack, the same on
    every leading cell: ``edge`` is (a, b).
    """

    __slots__ = ("offs", "dists", "index", "edge", "shape", "_walk", "_x", "_y")

    def __init__(self, walk: _Walk, offs, dists, index, cells, x: int, y: int, edge):
        self.offs, self.dists, self.index, self.edge = offs, dists, index, edge
        self.shape = (len(dists),) + cells
        # the layout's flat index of the first cell x and of its partner x + o_0
        self._walk, self._x, self._y = walk, x, y

    def _view(self, arr: np.ndarray, start: int, cols: int, stack: int = 0) -> np.ndarray:
        # the block's cells from flat index start on, cols per row, in an array
        # of the walk's layout after any leading axes; with stack > 0 the
        # sliding window of ``stack`` such views, each one entry further
        k, item = arr.ndim - len(self._walk.strides), arr.itemsize
        shape = arr.shape[:k] + self.shape[1:-1] + (cols,)
        strides = arr.strides[:k] + tuple(t * item for t in self._walk.strides) + (item,)
        if stack:
            shape, strides = (stack,) + shape, (item,) + strides
        return np.ndarray(shape, arr.dtype, arr, start * item, strides)

    def here(self, field: np.ndarray) -> np.ndarray:
        return self._view(field, self._x, self.shape[-1])

    def there(self, field: np.ndarray) -> np.ndarray:
        return self._view(field, self._y, self.shape[-1], self.shape[0])

    def restrict(self, stack: np.ndarray) -> np.ndarray:
        """Zero a stack of finite entries off the block's pairs, in place, by
        multiplying it with the domain indicator at both ends.  Without a mask
        every cell x of the block is a domain cell and so is every partner
        x + o off the ragged edge: only the ``edge`` columns are multiplied,
        the same products on the same entries (the others would be times 1),
        unless they are more than half the columns, where one multiply of the
        whole stack takes less time than the two strided ones."""
        walk, cols = self._walk, self.shape[-1]
        on = self._view(walk.on, self._y, cols, self.shape[0])
        a, b = self.edge
        if walk.masked or 2 * (a + b) > cols:
            stack *= on
            if walk.masked:
                stack *= self._view(walk.on, self._x, cols)
            return stack
        if a:
            stack[..., :a] *= on[..., :a]
        if b:
            stack[..., cols - b:] *= on[..., cols - b:]
        return stack

    def scratch(self, lead=(), count: int | None = None, dtype=float) -> np.ndarray:
        """A zero stack of ``count`` offsets (all b by default) after leading
        axes ``lead``, that :meth:`add` can take: a view into an array with
        count - 1 more zeros along the last axis."""
        b, *cells = self.shape
        b = b if count is None else count
        return np.zeros(list(lead) + [b] + cells[:-1] + [cells[-1] + b - 1], dtype)[..., :cells[-1]]

    def add(self, target: np.ndarray, stack: np.ndarray, weights=None, first: int = 0):
        """target[x] += sum_j w_j stack[j, x] and target[x + o_j] += w_j stack[j, x]
        (w = 1 without weights) for a target of the walk's layout and a stack
        from :meth:`scratch` that is zero off the pairs, whose rows j are the
        offsets first, first + 1, ...  The target and the stack may have the
        same leading axes; or the weights are an (s, b) matrix and the target
        has one leading axis s, whose row s gets the sums with weights w[s].

        The second end reads the padded stack through a skewed view, row j
        shifted by j entries along the last axis, whose sums over j are the
        sums over the pairs ending at each cell.  Both sums run over the
        offsets in order, cell by cell, so a cell's result depends only on the
        block, its stack row and the weights.
        """
        k = stack.ndim - len(self.shape)
        full = stack.base
        st, cols = full.strides, full.shape[-1]
        skew = np.ndarray(full.shape, full.dtype, full, 0, st[:k] + (st[k] - full.itemsize,) + st[k + 1:])
        xs = self._view(target, self._x, self.shape[-1])
        ys = self._view(target, self._y + first, cols)
        if weights is None:
            xs += stack.sum(axis=k)
            ys += skew.sum(axis=k)
        else:
            w = np.asarray(weights, dtype=float)
            subs = "sj,j...->s..." if w.ndim == 2 else "j,ij...->i..." if k else "j,j...->..."
            xs += np.einsum(subs, w, stack)
            ys += np.einsum(subs, w, skew)


def _pair_walk(grid: Grid, mask: np.ndarray | None, half, radius: float = math.inf):
    """Walk the integer offsets of ``half`` (the :func:`_half_offsets` table)
    that are at most ``radius`` on every axis.  Returns ``(removed, walk)``:
    the number of offsets inside the policy's analytic near field (none under
    "exclude"), counted on the whole grid's offset box, and the :class:`_Walk`.

    Each unordered cell pair {x, x+o} appears exactly once; callers accumulate
    contributions at both ends.  A block is a run of consecutive walked
    offsets that differ only in the last component, cut so that it covers at
    most PAIR_BLOCK_CELLS offset-cell entries (or holds one offset).  The cuts
    depend only on the walked box.  With a mask the walk stays in the
    bounding box of its cells: offsets longer than the box on some axis and
    cells outside it hold no pair, so they are skipped (they would only add
    exact zeros).
    """
    offs, dists, keep = half
    walked = keep & (np.abs(offs).max(axis=1, initial=0) <= radius)
    first = [0] * grid.dim
    last = [n - 1 for n in grid.shape]
    if mask is not None:
        cells = np.nonzero(mask)
        first = [int(c.min()) for c in cells]
        last = [int(c.max()) for c in cells]
        walked &= np.all(np.abs(offs) <= np.subtract(last, first), axis=1)
    idx = np.flatnonzero(walked)
    reach = int(min(last[-1] - first[-1], radius))
    return int(np.count_nonzero(~keep)), _Walk(first, last, reach, mask, offs[idx], dists[idx], idx)


# a float in a list of block lengths: the float object and the list's pointer
_LENGTH_BYTES = sys.getsizeof(0.0) + 8


def _read_only(*arrays):
    """Set arrays read-only: a cached geometry is shared by every caller."""
    for a in arrays:
        a.setflags(write=False)


def _cells_key(mask: np.ndarray | None):
    """The domain cells as a cache key: their bytes (None for the whole grid)."""
    return None if mask is None else mask.tobytes()


def _cells_of(key, grid: Grid) -> np.ndarray | None:
    """The domain cells of a :func:`_cells_key`, read-only."""
    return None if key is None else np.frombuffer(key, dtype=bool).reshape(grid.shape)


# (builder, *args) -> (geometry, bytes, keys of the entries it was built on), oldest use first
_GEOMETRIES = collections.OrderedDict()
_BUILDING = []  # per build in progress, innermost last: the keys of the entries it used


def _evict(key) -> int:
    """Drop the entry ``key`` and every entry built on it, which holds it;
    returns the bytes they counted."""
    freed = _GEOMETRIES.pop(key)[1]
    for other in [k for k, (_, _, uses) in _GEOMETRIES.items() if key in uses]:
        if other in _GEOMETRIES:
            freed += _evict(other)
    return freed


def _geometry_cache(nbytes):
    """A least-recently-used cache of a geometry builder by its arguments.
    Every cache made here shares one store: after each build, the entries
    used longest ago go until the bytes the entries keep (``nbytes(geometry)``
    each) fit in GEOMETRY_BYTES.  An entry goes with every entry built on it
    (a geometry holds its walk), so each entry a stored one holds is counted;
    the newest stays with what it was built on."""

    def wrap(build):
        @functools.wraps(build)
        def cached(*args):
            key = (build,) + args
            hit = _GEOMETRIES.get(key)
            if hit is None:
                _BUILDING.append([])
                try:
                    geometry = build(*args)
                finally:
                    uses = frozenset(_BUILDING.pop())
                hit = _GEOMETRIES[key] = geometry, nbytes(geometry), uses
                keep = uses | {key}
                total = sum(size for _, size, _ in _GEOMETRIES.values())
                for old in [k for k in _GEOMETRIES if k not in keep]:
                    if total <= GEOMETRY_BYTES:
                        break
                    if old in _GEOMETRIES:
                        total -= _evict(old)
            if _BUILDING:
                _BUILDING[-1].append(key)
            _GEOMETRIES.move_to_end(key)
            return hit[0]

        cached.cache_clear = _GEOMETRIES.clear  # the shared store
        return cached

    return wrap


@_geometry_cache(lambda geometry: sum(a.nbytes for a in geometry[0]) + geometry[2].nbytes)
def _walk_geometry(grid: Grid, policy: KernelPolicy, cells, radius: float, budget: int):
    """The :func:`_half_offsets` table of ``grid`` and ``policy``, read-only,
    and :func:`_pair_walk`'s (removed, walk) of the domain cells ``cells`` (a
    :func:`_cells_key`) up to ``radius``.  ``budget`` is PAIR_BLOCK_CELLS at
    the call, which the walk's cuts depend on."""
    half = _half_offsets(grid, policy)
    _read_only(*half)
    return (half,) + _pair_walk(grid, _cells_of(cells, grid), half, radius)


def _row_groups(live: np.ndarray, cells: int, scale: int = 1, l0: int = 0):
    """Row groups for a block's stacks from row l0 on, the rows ascending in
    lambda and offset j holding a member on rows below live[j]: consecutive
    rows l0 .. l1 - 1, as a slice, and the span j0 .. j1 - 1 of the offsets
    live on row l0, with at most scale * PAIR_BLOCK_CELLS stack entries (or
    one row)."""
    top = int(live.max(initial=0))
    while l0 < top:
        on = np.flatnonzero(live > l0)
        j0, j1 = int(on[0]), int(on[-1]) + 1
        l1 = min(top, l0 + max(1, scale * PAIR_BLOCK_CELLS // ((j1 - j0) * cells)))
        yield slice(l0, l1), j0, j1
        l0 = l1


def _increments(blk: _Block, field: np.ndarray, p: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """|v(x+o) - v(x)|^p on a block's stack for a walked field v, zero off
    its pairs, in ``out`` or a new array."""
    d = blk.restrict(np.subtract(blk.there(field), blk.here(field),
                                 out=np.empty(blk.shape) if out is None else out))
    if p == 2.0:
        return np.square(d, out=d)  # the same bits as |d|^2
    np.abs(d, out=d)
    return d if p == 1.0 else np.power(d, p, out=d)


def _far_offsets(half) -> np.ndarray:
    """The rows of ``half`` that ``_pair_walk(..., radius=NEAR_CELLS)`` leaves
    out and the policy keeps."""
    offs, _, keep = half
    return np.flatnonzero(keep & (np.abs(offs).max(axis=1, initial=0) > NEAR_CELLS))


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


class _FarField:
    """The f-free half of the p = 2 far field (:func:`_fft_pair_terms`) on one
    grid and domain: the real-FFT ``lengths`` that zero-pad each axis past
    2n - 1 and the spectrum ``mspec`` of the domain indicator m.

    For the seminorm (``exps`` None) ``at`` holds the flat index of each far
    offset o (``far``, rows of ``half``) in a padded correlation, o_i modulo
    the length on each axis.  For the inner field, per exponent x, the far
    kernel K(o) = |o|^x vol (zero off the far offsets) gives ``kspec``, the
    conjugate of its spectrum, and ``km``, the correlation K*m on the grid
    cells, which the np.ix_ tuple ``at`` picks from a padded one.  The arrays
    are read-only: a cached far field serves every f on its domain."""

    def __init__(self, grid: Grid, mask: np.ndarray | None, half, far: np.ndarray, exps, vol: float):
        offs, dists, _ = half
        self.lengths, self.axes = [_fast_length(2 * n - 1) for n in grid.shape], tuple(range(-grid.dim, 0))
        self.mspec = np.fft.rfftn(np.ones(grid.shape) if mask is None else mask.astype(float),
                                  s=self.lengths, axes=self.axes)
        self.kspec = self.km = None
        if exps is None:
            self.at = (np.ravel_multi_index(tuple((offs[far] % self.lengths).T), self.lengths).astype(np.int32),)
        else:
            box = [2 * n - 1 for n in grid.shape]
            kernels = np.zeros((len(exps), math.prod(box)))
            # offset o sits at flat index i of the box, -o at size - 1 - i
            at = far + (offs.shape[0] + 1)
            for kernel, x in zip(kernels, exps):
                kernel[at] = kernel[kernel.size - 1 - at] = dists[far] ** x * vol
            self.kspec = np.conj(np.fft.rfftn(kernels.reshape([-1] + box), s=self.lengths, axes=self.axes))
            # corr(K, g)(t) at t = x - (n-1) is sum_o K(o) g(x+o)
            self.at = np.ix_(*[np.arange(1 - n, 1, dtype=np.int32) % size for n, size in zip(grid.shape, self.lengths)])
            self.km = np.fft.irfftn(self.kspec * self.mspec, s=self.lengths, axes=self.axes)[(Ellipsis,) + self.at]
        _read_only(*self.arrays())

    def arrays(self) -> list:
        """The arrays it keeps."""
        return [a for a in (self.mspec, self.kspec, self.km) + self.at if a is not None]


def _fft_pair_terms(v: np.ndarray, mask: np.ndarray | None, far: _FarField) -> np.ndarray:
    """p = 2 pair sums for all far offsets at once, from zero-padded real FFTs.

    With m the domain indicator, sum_x a(x) b(x+o) is the inverse transform of
    conj(A) B.  For the seminorm the result is, per far offset (in ``far``'s
    order),

        S(o) = sum_x m(x) m(x+o) (v(x) - v(x+o))^2 = A(o) + A(-o) - 2 B(o),

    A = corr(v^2 m, m), B = corr(v m, v m).  For the inner field it is, per
    far kernel K (K(o) = K(-o)), the per-cell field

        m(x) sum_o K(o) m(x+o) (v(x) - v(x+o))^2 = m [v^2 K*m - 2 v K*(vm) + K*(v^2 m)].

    What depends on no f (the spectra of m and of the kernels, and K*m) is
    ``far``'s; only v m and v^2 m are transformed here.  Each transform runs
    on its own, so a kernel's field does not depend on the others in the
    stack.  v is first centred on the mid-range of its domain values: the
    differences do not change, the terms that cancel are smaller, and a
    field constant on the domain gives exact zeros.  Both results are sums of
    squares, so rounding below zero is clamped.
    """
    m = np.ones(v.shape) if mask is None else mask.astype(float)
    on = v if mask is None else v[mask]
    mid = 0.5 * (float(np.max(on)) + float(np.min(on)))
    v = (v if mask is None else np.where(mask, v, mid)) - mid
    lengths, axes = far.lengths, far.axes
    vm = v * m
    spec = np.fft.rfftn(np.stack([vm, v * vm]), s=lengths, axes=axes)
    if far.kspec is None:
        prod = 2.0 * (np.conj(spec[1]) * far.mspec).real - 2.0 * np.abs(spec[0]) ** 2
        return np.maximum(np.fft.irfftn(prod, s=lengths, axes=axes).ravel()[far.at], 0.0)
    out = np.fft.irfftn(far.kspec[:, None] * spec, s=lengths, axes=axes)[(Ellipsis,) + far.at]
    return np.maximum(m * (v * v * far.km - 2.0 * v * out[:, 0] + out[:, 1]), 0.0)


def _equivalent_radius(n_removed_offsets: int, grid: Grid) -> float:
    """Radius of the ball whose volume matches the removed near-field cells."""
    cells = 2 * n_removed_offsets + 1
    vol = cells * grid.cell_volume
    return (vol / _unit_ball_volume(grid.dim)) ** (1.0 / grid.dim)


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
    """:func:`~normlab.grid.safe_exponent` of f on the domain for |f|^p and |grad f|^2."""
    return safe_exponent(f.values if mask is None else f.values[mask], max(p, 2.0))


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


class _GagliardoGeometry:
    """What a Gagliardo kernel needs that depends on the grid, the domain,
    the policy, p and the s values, and on no f: the shared pair walk (the
    offsets up to NEAR_CELLS at p = 2, all others otherwise) with the
    number of offsets in the analytic near field (``removed``), the pair
    weights and at p = 2 the :class:`_FarField` ``fft`` (None otherwise).

    With ``inner`` the weights are :func:`fractional_inner_field`'s: per
    walk block, the (s, b) matrix of |o|^-(n+sp) vol as Python-float powers
    (numpy's vector pow may differ in the last bit), and the far field holds
    the kernels.  Otherwise they are :func:`gagliardo_seminorm_sweep`'s:
    per s, |o|^-(n+sp) per distinct length, with ``at`` the index of each
    offset's length, the walked offsets block after block, then the far
    ones.  ``cells`` are the domain cells as a :func:`_cells_key`, and
    ``budget`` is PAIR_BLOCK_CELLS at the call, which the walk's cuts depend
    on.  :func:`_gagliardo_geometry` builds one per key and shares it among
    every f, so its arrays are read-only."""

    def __init__(self, grid: Grid, policy: KernelPolicy, p: float, s_values: tuple, cells, budget: int,
                 inner: bool):
        fft = p == 2.0
        half, self.removed, self.walk = _walk_geometry(grid, policy, cells, NEAR_CELLS if fft else math.inf, budget)
        n, vol, dists = grid.dim, grid.cell_volume, half[1]
        exps = [-(s * p + n) for s in s_values]
        far = _far_offsets(half) if fft else None
        self.fft = None if far is None else _FarField(grid, _cells_of(cells, grid), half, far,
                                                       exps if inner else None, vol)
        if inner:
            self.weights = [np.array([[dist ** x * vol for dist in blk.dists] for x in exps]) for blk in self.walk]
            _read_only(*self.weights)
        else:
            walked = dists[self.walk.index] if far is None else np.concatenate([dists[self.walk.index], dists[far]])
            # many offsets share a length ((a, b), (b, a), (a, -b), ... in 2D):
            # at 2D 128^2 the 32,508 offsets have 5,836 lengths
            lengths, at = np.unique(walked, return_inverse=True)
            self.at = at.astype(np.int32)
            self.weights = np.empty((len(exps), lengths.size))
            for row, x in zip(self.weights, exps):
                row[...] = lengths ** x
            _read_only(self.weights, self.at)

    @property
    def nbytes(self) -> int:
        """The bytes the entry keeps: its arrays, with the list and the headers
        of the inner field's per-block weights (the walk and the offset table
        are the walk cache's)."""
        weights = (sys.getsizeof(self.weights) + sum(map(sys.getsizeof, self.weights))
                   if isinstance(self.weights, list) else self.weights.nbytes + self.at.nbytes)
        return weights + (0 if self.fft is None else sum(a.nbytes for a in self.fft.arrays()))


_gagliardo_geometry = _geometry_cache(lambda geo: geo.nbytes)(_GagliardoGeometry)


def _gagliardo_setup(f: SampledField, s_values, p: float, omega: DomainMask | None,
                     policy: KernelPolicy, inner: bool):
    """What both Gagliardo kernels start from: the checked s values, the
    domain cells, f scaled by 2^-e into the safe band with e, the shared
    :class:`_GagliardoGeometry` of the kernel (``inner`` for the inner field)
    and f's scaled values walked on it, and the near-field model: the
    per-cell |grad f|^p on the domain and the removed ball's radius (None
    under "exclude")."""
    s_values = [float(s) for s in s_values]
    if not all(0 < s < 1 for s in s_values):
        raise ValueError("s must lie in (0, 1)")
    if not (1 <= p < math.inf):
        raise ValueError("p must lie in [1, inf)")
    grid = f.grid
    mask = mask_cells(omega, grid)
    e = _scale_exponent(f, mask, p)
    f = _scaled(f, e)
    geo = _gagliardo_geometry(grid, policy, p, tuple(s_values), _cells_key(mask), PAIR_BLOCK_CELLS, inner)
    model = None
    if policy.diagonal == "equivalent-ball":
        gradp = gradient_magnitude(f) ** p
        model = gradp if mask is None else np.where(mask, gradp, 0.0), _equivalent_radius(geo.removed, grid)
    return s_values, mask, f, e, geo, geo.walk.field(f.values), model


def gagliardo_seminorm_sweep(f: SampledField, s_values, p: float,
                             omega: DomainMask | None = None,
                             policy: KernelPolicy = DEFAULT_POLICY) -> list[float]:
    """Gagliardo seminorms for several s at once (the pair sums are shared).

    [sum over x != y in Omega of |f(x)-f(y)|^p / |x-y|^(sp+n) vol^2]^(1/p),
    with the near-field handled per policy.  At p = 2 the offsets beyond
    NEAR_CELLS on some axis get their sums from one FFT correlation.
    """
    s_values, mask, f, e, geo, v, model = _gagliardo_setup(f, s_values, p, omega, policy, False)
    grid = f.grid
    n, vol = grid.dim, grid.cell_volume
    sums = [np.zeros(0)] + [_increments(blk, v, p).reshape(len(blk.dists), -1).sum(axis=1) for blk in geo.walk]
    if geo.fft is not None:
        sums.append(_fft_pair_terms(f.values, mask, geo.fft))
    sums = np.concatenate(sums)
    out = []
    for s, weights in zip(s_values, geo.weights):
        total = 2.0 * vol * vol * float(np.sum(sums * weights[geo.at]))
        if model is not None:
            total += _frozen_gradient_term(float(np.sum(model[0])) * vol, s, p, n, model[1])
        out.append(float(_unscale(total ** (1.0 / p), e)))
    return out


def fractional_inner_field(f: SampledField, s_values, p: float,
                           omega: DomainMask | None = None,
                           policy: KernelPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Per-cell inner integrals  x -> sum_y |f(x)-f(y)|^p / |x-y|^(n+sp) vol
    for several s at once; entry [i, x] belongs to s_values[i].

    The s enter only through one scalar weight per offset, so each offset's
    |f(x)-f(y)|^p is computed once and added into every row in one weighted
    sum per block, row s with the weights that s gets alone: a row does not
    depend on the other s in the batch.
    At p = 2 the offsets beyond NEAR_CELLS on some axis come from one FFT
    convolution per s with their kernel.
    """
    s_values, mask, f, e, geo, v, model = _gagliardo_setup(f, s_values, p, omega, policy, True)
    grid = f.grid
    n = grid.dim
    if not s_values:
        return np.zeros((0,) + grid.shape)
    acc = geo.walk.zeros([len(s_values)])
    for blk, weights in zip(geo.walk, geo.weights):
        blk.add(acc, _increments(blk, v, p, blk.scratch()), weights)
    inner = geo.walk.unpad(acc, grid.shape)
    if geo.fft is not None:
        inner += _fft_pair_terms(f.values, mask, geo.fft)
    if model is not None:
        for row, s in zip(inner, s_values):
            row += _frozen_gradient_term(model[0], s, p, n, model[1])
    if mask is not None:
        inner = np.where(mask, inner, 0.0)
    return _unscale(inner, e, p)


def bbm_scaled_sweep(f: SampledField, s_values, p: float, spaces,
                     omega: DomainMask | None = None,
                     policy: KernelPolicy = DEFAULT_POLICY) -> np.ndarray:
    """(1-s)^(1/p) * || [inner fractional integral]^(1/p) ||_X(Omega) for every
    space X (rows) and s (columns), from one batched inner field."""
    e = _scale_exponent(f, mask_cells(omega, f.grid), p)
    roots = fractional_inner_field(_scaled(f, e), s_values, p, omega, policy) ** (1.0 / p)
    weights = np.array([(1.0 - float(s)) ** (1.0 / p) for s in s_values])
    spaces = list(spaces)
    return np.array([_unscale(weights * norm_many(roots, f.grid, space, omega), e)
                     for space in spaces]).reshape(len(spaces), len(weights))


def bbm_scaled_value(f: SampledField, s: float, p: float, space: SpaceSpec,
                     omega: DomainMask | None = None,
                     policy: KernelPolicy = DEFAULT_POLICY) -> float:
    """(1-s)^(1/p) * || [inner fractional integral]^(1/p) ||_X(Omega)."""
    return float(bbm_scaled_sweep(f, [s], p, [space], omega, policy)[0, 0])


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


def _shell_table(grid: Grid, policy: KernelPolicy, half, expo: float, gamma: float):
    """The level-set kernel's subsampled shell, just outside the analytic
    window, where whole-cell membership is coarsest: the kept offsets o of
    ``half`` with |o h| <= radius = subsample_window * min(h) (radius 0 in
    oracle mode or with subsample k = 1).  Returns the radius, each half
    offset's row (-1 off the shell), and per row the thresholds |o h + c|^expo
    of o's k^dim sub-cells c, sorted ascending, and the running sums of their
    weights |o h + c|^(gamma-n) vol / k^dim in that order, from 0."""
    offs, dists, keep = half
    k, n, h = policy.subsample, grid.dim, np.asarray(grid.cell_size)
    radius = policy.subsample_window * min(h) if policy.diagonal == "equivalent-ball" and k > 1 else 0.0
    shell = np.flatnonzero(keep & (dists <= radius))
    row = np.full(len(dists), -1)
    if not shell.size:
        return radius, row, np.zeros((0, 1)), np.zeros((0, 1))
    row[shell] = np.arange(shell.size)
    centres = ((np.indices((k,) * n).reshape(n, -1).T + 0.5) / k - 0.5) * h
    # axis by axis, summed in np.linalg.norm's order: no (shell, k^dim, dim) temporaries
    dsub = np.sqrt(sum((offs[shell, i, None] * h[i] + centres[:, i]) ** 2 for i in range(n)))
    dsub = np.take_along_axis(dsub, np.argsort(dsub ** expo, axis=1), axis=1)
    cumker = np.cumsum(dsub ** (gamma - n) * grid.cell_volume / k ** n, axis=1)
    return radius, row, dsub ** expo, np.concatenate([np.zeros((shell.size, 1)), cumker], axis=1)


class _LevelSetBlock:
    """A walk block's lambda-free data in a :class:`_LevelSetGeometry`: each
    offset's threshold scale |o|^(1+gamma/p) (infinite on shell offsets),
    ``ker`` the weights |o|^(gamma-n) vol (zero on shell
    offsets), and for the shell offsets their first and last sub-cell
    thresholds and total weight from the table.  Its arrays are read-only."""

    __slots__ = ("blk", "sub", "scales", "ker", "at", "first", "last", "total")

    def __init__(self, blk: _Block, geo: "_LevelSetGeometry"):
        # no reference to the geometry: it holds this block, and a cycle would
        # keep both alive until the garbage collector runs
        self.blk = blk
        self.sub = [dist <= geo.radius for dist in blk.dists]
        self.scales = np.array([math.inf if s else dist ** geo.expo for s, dist in zip(self.sub, blk.dists)])
        x, vol = geo.weight
        self.ker = np.array([0.0 if s else dist ** x * vol for s, dist in zip(self.sub, blk.dists)])
        self.at = None
        if any(self.sub):
            # off the shell ``at`` is -1 and the columns hold unused entries
            self.sub, self.at = np.array(self.sub), geo.table[blk.index]
            thr, cum = geo.shell_thr, geo.shell_ker
            self.first, self.last, self.total = thr[self.at, :1], thr[self.at, -1:], cum[self.at, -1:]
            _read_only(self.sub, self.at, self.first, self.last, self.total)
        _read_only(self.scales, self.ker)


class _LevelSetGeometry:
    """What the level-set inner integral needs that depends on the grid, the
    domain, the policy, gamma and p, and on no f or lambda: the offset and
    shell tables, the pair walk, each walk block's :class:`_LevelSetBlock`
    and the analytic model's sphere measure and caps (``caps`` is None under
    "exclude").  ``cells`` are the domain cells as a :func:`_cells_key`, and
    ``budget`` is PAIR_BLOCK_CELLS at the call, which the walk's cuts depend
    on.  :func:`_level_set_geometry` builds one per key and shares it among
    every kernel, so its arrays are read-only."""

    def __init__(self, grid: Grid, policy: KernelPolicy, gamma: float, p: float, cells, budget: int):
        # the exponents of the thresholds |o|^expo and of the weights |o|^x vol
        self.expo, self.weight = 1.0 + gamma / p, (gamma - grid.dim, grid.cell_volume)
        self.half, removed, self.walk = _walk_geometry(grid, policy, cells, math.inf, budget)
        self.radius, self.table, self.shell_thr, self.shell_ker = _shell_table(
            grid, policy, self.half, self.expo, gamma)
        _read_only(self.table, self.shell_thr, self.shell_ker)
        self.blocks = [_LevelSetBlock(blk, self) for blk in self.walk]
        self._ceiling_tables()
        self.caps = None
        if policy.diagonal == "equivalent-ball":
            r_cap = _equivalent_radius(removed, grid)
            if grid.dim == 1:
                # the two axis directions, each with its own cap
                lo_ext, hi_ext = _directional_extent_1d(grid, _cells_of(cells, grid))
                self.sphere, self.caps = 2.0, (np.minimum(r_cap, hi_ext), np.minimum(r_cap, lo_ext))
            else:
                self.sphere, self.caps = sphere_area(grid.dim), (np.full(grid.shape, r_cap),)
            _read_only(*self.caps)

    def _ceiling_tables(self):
        # per walked offset, in block order: |o_i|, and the reciprocals of its
        # threshold scale (row 0) and of its first sub-cell threshold (row 1)
        # times the margin 1 + 1e-12, 0 where it has none; a block with a
        # reciprocal outside 2^(+-200) is ``open``: it gets no ceiling
        walk, blocks = self.walk, self.blocks
        self.starts = np.cumsum([0] + [len(c.blk.dists) for c in blocks])[:-1]
        self.axes = np.abs(walk.offs).astype(float)
        first = np.append(self.shell_thr[:, 0], math.inf)[self.table[walk.index]]  # row -1: inf
        with np.errstate(divide="ignore"):
            self.inv = 1.0 / np.stack([np.concatenate([np.zeros(0)] + [c.scales for c in blocks]), first])
        ok = (self.inv == 0.0) | ((2.0 ** -200 <= self.inv) & (self.inv <= 2.0 ** 200))
        self.inv[~ok] = 0.0
        self.inv *= 1.0 + 1e-12
        self.open = np.flatnonzero(np.logical_or.reduceat(~ok.all(axis=0), self.starts))
        _read_only(self.starts, self.axes, self.inv, self.open)

    @property
    def nbytes(self) -> int:
        """The bytes the geometry keeps: its arrays and its blocks' records, each
        record counted from the first one's layout (the record, the headers
        of its two arrays and of its list) plus, per offset, a scale, a
        weight and a list entry, and the shell blocks' own arrays (the walk
        and the offset table are the walk cache's)."""
        arrays = (self.table, self.shell_thr, self.shell_ker, self.starts, self.axes, self.inv, self.open)
        total = sum(a.nbytes for a in arrays + (self.caps or ())) + sys.getsizeof(self.blocks)
        if self.blocks:
            c, empty = self.blocks[0], sys.getsizeof([])
            record = sys.getsizeof(c) + 2 * (sys.getsizeof(c.ker) - c.ker.nbytes) + empty
            total += len(self.blocks) * record + len(self.walk.offs) * (2 * c.ker.itemsize + 8)
            # a shell block's sub is an array, not a list
            total += sum(sum(map(sys.getsizeof, (c.sub, c.at, c.first, c.last, c.total))) - empty - 8 * c.sub.size
                         for c in self.blocks if c.at is not None)
        return total

    def ceilings(self, spread: float, steps) -> tuple[list, list]:
        """Per block, the lambda from which none of its whole offsets (first
        list) and none of its shell offsets' sub-cells (second) holds a
        member on any row, for an f whose increments on the domain are at
        most ``spread`` and whose steps along axis i on the domain's
        bounding box are at most steps[i].

        An increment of offset o is at most reach = min(spread, sum_i |o_i|
        steps[i]): a lattice path inside the box joins the two cells.  It is
        a member at lambda if it exceeds fl(lambda scale), a sub-cell if
        fl(delta / lambda) exceeds its threshold.  A ceiling C > reach /
        scale exactly then gives, for lambda >= C, fl(lambda scale) >= reach
        >= each computed increment (rounding is monotone and reach is a
        float), and likewise fl(delta / lambda) <= first.  The computed
        reach and C = reach / scale take a relative margin of 1e-12, as
        :func:`_tail_bound` does, for the few roundings of the sums, products
        and reciprocals, and 2^-1070 more for results that round in the
        subnormal range.  Spreads and steps above 2^800 get no ceilings
        (inf), so nothing overflows."""
        if not (spread <= 2.0 ** 800 and all(x <= 2.0 ** 800 for x in steps)):
            return [math.inf] * len(self.blocks), [math.inf] * len(self.blocks)
        reach = np.minimum(self.axes @ [x * (1.0 + 1e-12) + 2.0 ** -1070 for x in steps], spread)
        ceil = np.maximum.reduceat(reach * self.inv, self.starts, axis=1) + 2.0 ** -1070
        if self.open.size:
            ceil[:, self.open] = math.inf
        return ceil[0].tolist(), ceil[1].tolist()


_level_set_geometry = _geometry_cache(lambda geo: geo.nbytes)(_LevelSetGeometry)


class _LevelSetKernel:
    """The level-set inner integral of one f on one domain under one policy,
    for any lambda batch.  What depends on neither f nor lambda is the shared
    :class:`_LevelSetGeometry` ``geo``.  The kernel adds what depends on f:
    the walked field, |grad f| (``grad``, on first use), each block's
    ceilings (``ceil``, from :meth:`_LevelSetGeometry.ceilings`) and per
    block, once a batch has computed its increments, each offset's largest
    (``dmax``) and least nonzero (``dmin``) one (an entry off the pairs is 0,
    and a pair of zero increment is a member on no row, so neither counts).
    :meth:`profile` runs the block loop for one batch."""

    def __init__(self, f: SampledField, params: BsvyParams, omega: DomainMask | None,
                 policy: KernelPolicy):
        grid = self.grid = f.grid
        self.params, self.mask = params, mask_cells(omega, grid)
        geo = self.geo = _level_set_geometry(grid, policy, params.gamma, params.p,
                                             _cells_key(self.mask), PAIR_BLOCK_CELLS)
        v = f.values
        self.ceil = [math.inf] * len(geo.blocks), [math.inf] * len(geo.blocks)
        # a walk of one block gets no ceilings: its one ceiling lies above every
        # increment of every offset, so it would skip only an all-zero profile
        if len(geo.blocks) > 1:
            # no increment |f(x)-f(y)| on the domain exceeds the spread of f there,
            # nor the steps of f along a lattice path in the domain's bounding box
            on = v if self.mask is None else v[self.mask]
            box, cut = v[geo.walk.cut], (slice(None),) * grid.dim
            steps = [float(np.abs(box[cut[:i] + (slice(1, None),)] - box[cut[:i] + (slice(-1),)]).max(initial=0.0))
                     for i in range(grid.dim)]
            self.ceil = geo.ceilings(float(on.max() - on.min()) if on.size else 0.0, steps)
        self.field = geo.walk.field(v)
        self.dmax, self.dmin = [None] * len(geo.blocks), [None] * len(geo.blocks)
        self._f = f

    @functools.cached_property
    def grad(self) -> np.ndarray:
        """|grad f| per cell: the analytic model's and the default lambda grid's."""
        return gradient_magnitude(self._f)

    def model(self, lams: np.ndarray) -> np.ndarray:
        """The frozen-gradient analytic near field of the inner integral over
        the removed ball, one row per lambda (zero under "exclude").

        The inclusion radius rho(x) = (|grad f(x)| / lam)^(p/gamma) is a ceiling
        for gamma > 0 and a floor for gamma < 0; each direction integrates
        z^(gamma-1) up to its cap, the removed ball's radius (in 1D the free
        distance to the domain boundary when that is shorter).  For gamma < 0,
        with t = lam^p, t times a direction's term is (g^p - t cap^gamma)_+ / |gamma|:
        convex in t, and the row tends to c g^p / |gamma| as lam -> 0 with c
        = ``sphere`` (2 in 1D).
        """
        grid, gamma, p, geo = self.grid, self.params.gamma, self.params.p, self.geo
        if geo.caps is None:
            return np.zeros((lams.size,) + grid.shape)
        # where grad f = 0 the power yields the right inclusion sentinel for
        # either sign of gamma: ceiling 0 (gamma > 0) or floor inf (gamma < 0)
        with np.errstate(divide="ignore", over="ignore"):
            rho = (self.grad[None] / lams.reshape((lams.size,) + (1,) * grid.dim)) ** (p / gamma)

        def radial(cap):
            # integral of z^(gamma-1) over the included part of (0, cap]:
            # (0, min(rho, cap)] when gamma > 0, (min(rho, cap), cap] otherwise
            a = np.minimum(rho, cap)
            if gamma > 0:
                return a ** gamma / gamma
            return (cap ** gamma - a ** gamma) / gamma

        if grid.dim == 1:
            rows = radial(geo.caps[0]) + radial(geo.caps[1])
        else:
            rows = geo.sphere * radial(geo.caps[0])
        return rows if self.mask is None else np.where(self.mask[None], rows, 0.0)

    def profile(self, lams) -> tuple[np.ndarray, np.ndarray]:
        """The pair part D and the model part A of the inner integral for a
        lambda batch, each of shape (len(lams), *grid.shape) in the batch's
        order and zero off the domain; the integral is D + A."""
        lams = np.asarray(lams, dtype=float)
        if lams.ndim != 1 or not np.all((lams > 0) & (lams < math.inf)):
            raise ValueError("lambda values must be positive and finite")
        # rows in ascending lambda order: the rows on which a pair offset can hold
        # a level-set member are then a prefix, and the walk skips the rest (they
        # would only add exact zeros); the stable sort of a batch already in
        # order, as every round of bsvy_sups is, would leave it as it is
        back = None
        if np.any(lams[1:] < lams[:-1]):
            order = np.argsort(lams, kind="stable")
            back = np.argsort(order)  # back to the caller's lambda order
            lams = lams[order]
        pair = self.geo.walk.unpad(self._pair_sums(lams), self.grid.shape)
        if self.mask is not None:
            pair = np.where(self.mask[None], pair, 0.0)
        model = self.model(lams)
        return (pair, model) if back is None else (pair[back], model[back])

    def _pair_sums(self, lams: np.ndarray) -> np.ndarray:
        # the pair part of ascending lams, in the walk's layout
        acc = self.geo.walk.zeros([lams.size])
        if not lams.size:
            return acc
        lam0, (whole, sub) = float(lams[0]), self.ceil
        for i, c in enumerate(self.geo.blocks):
            blk = c.blk
            # membership delta > lam * dist^expo, weighted; a shell offset gets
            # an infinite threshold and a zero weight there, and holds a member
            # only where some delta / lam exceeds its least sub-cell threshold
            shell_live = c.at is not None and lam0 < sub[i]
            if not shell_live and lam0 >= whole[i]:
                continue  # no offset of the block holds a member on any row
            delta = None
            if self.dmax[i] is None:
                delta = _increments(blk, self.field)  # a pair outside the domain is in no level set
                self.dmax[i] = delta.max(axis=tuple(range(1, delta.ndim)))
            dmax = self.dmax[i]
            thresh = lams[:, None] * c.scales
            live = np.count_nonzero(thresh < dmax, axis=0)
            if shell_live:
                shell = np.zeros(len(live), dtype=int)
                shell[c.sub] = np.count_nonzero(dmax[c.sub, None] / lams > c.first[c.sub], axis=1)
                shell_live = shell.any()
            if not shell_live and not live.any():
                continue  # nor does any pair increment reach a threshold
            if delta is None:
                delta = _increments(blk, self.field)
            self._add_rows(i, c, delta, thresh, live, acc)
            if shell_live:
                self._add_shell(c, delta, lams, shell, acc)
        return acc

    def _add_rows(self, i: int, c: _LevelSetBlock, delta, thresh, live, acc):
        # the whole pairs of block i's non-shell offsets
        blk = c.blk
        col = (-1,) + (1,) * (delta.ndim - 1)
        cells, shared = delta[0].size, 0
        # on the leading rows where each offset's threshold lies below its least nonzero increment,
        # the membership stack is delta != 0, the same on every row: they take one sum of it (same
        # terms, same order); sought where each offset is live on two rows or more (so the batch
        # has two rows or more, and the block no shell offset: their live counts are 0)
        if live.min() > 1:
            if self.dmin[i] is None:  # (a masked np.minimum.reduce takes about three times as long)
                self.dmin[i] = np.where(delta != 0, delta, math.inf).min(axis=tuple(range(1, delta.ndim)))
            shared = int(np.count_nonzero(thresh < self.dmin[i], axis=0).min())
            if shared:
                blk.add(acc[:shared], np.not_equal(delta, 0, out=blk.scratch(dtype=bool)), c.ker)
        # (a boolean stack holds eight times the entries of a float one)
        for rows, j0, j1 in _row_groups(live, cells, 8, shared):
            row_thresh = thresh[rows, j0:j1]
            memb = blk.scratch([len(row_thresh)], j1 - j0, bool)
            np.greater(delta[j0:j1], row_thresh.reshape(row_thresh.shape + col[1:]), out=memb)
            blk.add(acc[rows], memb, c.ker[j0:j1], j0)

    def _add_shell(self, c: _LevelSetBlock, delta, lams, live, acc):
        # the sub-cell pairs of a block's shell offsets, a contiguous run (the
        # lengths in a block are monotone): membership delta > lam * thr_i is a
        # prefix of the threshold-sorted sub-cells, whose weights sum to the
        # table's running sum at the prefix's length
        blk, thr = c.blk, self.geo.shell_thr
        for rows, j0, j1 in _row_groups(live, delta[0].size):
            size = j1 - j0
            contrib = blk.scratch([rows.stop - rows.start], size)
            np.divide(delta[j0:j1], lams[rows].reshape((-1,) + (1,) * delta.ndim), out=contrib)
            # the ratios delta / lam, with the zero padding of the stack's rows
            ratio = contrib.base.reshape(contrib.shape[:2] + (-1,))
            # above the last threshold every sub-cell counts, at or below the
            # first none (so do an offset's rows from its live count on): only
            # the band between needs a search
            above = ratio > c.last[j0:j1]
            band = ratio > c.first[j0:j1]
            band ^= above
            band = np.flatnonzero(band)
            x = ratio.ravel()[band]
            np.multiply(above, c.total[j0:j1], out=ratio)
            if band.size:
                at = c.at[j0:j1][band // ratio.shape[2] % size]
                ratio.ravel()[band] = self.geo.shell_ker[at, _count_below(thr, at, x)]
            blk.add(acc[rows], contrib, first=j0)


def _count_below(thr: np.ndarray, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per entry i, how many thresholds of the row thr[rows[i]] (each row
    ascending) lie strictly below x[i], for an x[i] above the row's first
    threshold and at most its last: a bisection of fixed depth on the row,
    the count a search would give."""
    width = thr.shape[1]
    flat = thr.ravel()
    # pos: the flat index of the row's first threshold not yet known below x;
    # the count lies in [1, width - 1], and each step of size s checks whether
    # the s thresholds from pos on are all below x by the last of them
    start = rows * width
    pos = start + 1
    depth = max(width - 2, 0).bit_length()
    last = start + (width - 1) if 1 << depth > width else None
    for s in (1 << i for i in reversed(range(depth))):
        probe = pos + (s - 1)
        if last is not None:  # a probe past the row reads its last threshold, not below x
            np.minimum(probe, last, out=probe)
        pos += s * (flat[probe] < x)
    return pos - start


def _tail_bound(kernel: _LevelSetKernel, lam1: float):
    """Per-cell fields M and B for gamma < 0: lam^p times the level-set inner
    integral tends to M as lam -> 0 and is at most B for every lam <= lam1.

    The inner integral is D(lam) + A(lam), the pair sum and the analytic near
    field.  No cell's D exceeds K, the kernel weights of every kept offset of
    both signs summed (a subsampled offset weighs its sub-cells' sum), and with
    t = lam^p, t A is convex in t with limit M (:meth:`_LevelSetKernel.model`).
    So t (K + A) is convex on (0, t1] and at most B = max(M, t1 (K + A(lam1))).
    """
    grid, mask, geo = kernel.grid, kernel.mask, kernel.geo
    gamma, p = kernel.params.gamma, kernel.params.p
    _, dists, keep = geo.half
    weights = dists[keep] ** (gamma - grid.dim) * grid.cell_volume
    weights[geo.table[keep] >= 0] = geo.shell_ker[:, -1]
    # the margin covers the walk summing the same weights in another order
    total = 2.0 * float(np.sum(weights)) * (1.0 + 1e-12)
    t1 = lam1 ** p
    if geo.caps is not None:
        limit = geo.sphere * kernel.grad ** p / -gamma
        bound = np.maximum(limit, t1 * (total + kernel.model(np.array([lam1]))[0]))
    else:
        limit, bound = np.zeros(grid.shape), np.full(grid.shape, t1 * total)
    if mask is not None:
        limit, bound = np.where(mask, limit, 0.0), np.where(mask, bound, 0.0)
    return limit, bound


def bsvy_inner_profile(f: SampledField, lams, params: BsvyParams,
                       omega: DomainMask | None = None,
                       policy: KernelPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Level-set kernel integrals for a whole lambda batch.

    Entry [l, x] is  sum over y with |f(x)-f(y)| > lam_l |x-y|^(1+gamma/p)
    of |x-y|^(gamma-n) vol, handled per policy near the diagonal.
    Returns an array of shape (len(lams), *grid.shape).
    """
    return np.add(*_LevelSetKernel(f, params, omega, policy).profile(lams))  # D + A


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
    return float(bsvy_values(f, [lam], params, space, omega, policy)[0])


def _geomspace(start: float, stop: float, num: int, endpoint: bool = True) -> np.ndarray:
    """``np.geomspace(start, stop, num, endpoint=endpoint)`` bit for bit: the
    same operations on the same values (the logarithms, an evenly spaced ramp
    between them, its powers of ten, the ends set exactly) without numpy's
    handling of array, negative and complex endpoints, which costs more than
    the arithmetic on the short grids of a lambda search.  Other than
    positive finite endpoints, or fewer than two points, go to numpy."""
    if not (num >= 2 and 0.0 < start < math.inf and 0.0 < stop < math.inf):
        return np.geomspace(start, stop, num, endpoint=endpoint)
    a, b = np.log10(start), np.log10(stop)
    y = np.arange(num, dtype=float)
    y *= (b - a) / (num - 1 if endpoint else num)
    y += a
    if endpoint:
        y[-1] = b
    out = np.power(10.0, y)
    out[0] = start
    if endpoint:
        out[-1] = stop
    return out


def default_lambda_grid(f: SampledField, omega: DomainMask | None = None) -> np.ndarray:
    """Log-spaced lambdas over LAMBDA_DECADES * max |grad f| (the natural slope scale)."""
    return _lambda_grid(gradient_magnitude(f), mask_cells(omega, f.grid))


def _lambda_grid(grad: np.ndarray, cells: np.ndarray | None) -> np.ndarray:
    """:func:`default_lambda_grid` from |grad f| and the domain cells."""
    scale = float(np.max(grad if cells is None else np.where(cells, grad, 0.0))) or 1.0
    return _geomspace(LAMBDA_DECADES[0] * scale, LAMBDA_DECADES[1] * scale, LAMBDA_POINTS)


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
    """Index of the first finite value within a relative 1e-12 of the finite
    maximum, so that a profile flat up to rounding does not pick its argmax by
    a last bit, and a NaN does not hide the maximum."""
    finite = np.where(np.isfinite(vals), vals, -np.inf)
    return int(np.argmax(finite >= np.max(finite) * (1.0 - 1e-12)))


def _sup_search(lam: np.ndarray, report: FunctionalReport, e: int, tail=None):
    """The lambda search of :func:`bsvy_sup` for one space, as a generator that
    yields each lambda batch it needs and is sent back their values.  It fills
    in the report at the end, with lambdas and values multiplied by 2^e.

    ``tail``, if given, returns an upper bound U on the values at every
    lambda <= lam[1].  When the grid's best value is at lam[0] and U is within
    TAIL_TOL of it, no lambda the extension and refinement would try can beat
    it by more, so the search stops after the grid and records U.
    """

    def merge(lams, vals, extra):
        lams = np.concatenate([lams, extra])
        vals = np.concatenate([vals, (yield extra)])
        order = np.argsort(lams)
        return lams[order], vals[order], _first_max(vals[order])

    vals = yield lam
    if np.any(vals > 0):
        k = _first_max(vals)
        upper = tail() if tail is not None and k == 0 and np.isfinite(vals[0]) else math.inf
        if upper <= vals[0] * (1.0 + TAIL_TOL):
            report.extra["sup_upper"] = float(_unscale(upper, e))
        else:
            if k in (0, lam.size - 1):
                report.extended = True
                ext = (_geomspace(lam[0] / 100.0, lam[0], REFINE_POINTS, endpoint=False) if k == 0
                       else _geomspace(lam[-1], lam[-1] * 100.0, REFINE_POINTS + 1)[1:])
                lam, vals, k = yield from merge(lam, vals, ext)
            lo, hi = lam[max(k - 1, 0)], lam[min(k + 1, lam.size - 1)]
            if hi > lo:
                fine = _geomspace(lo, hi, REFINE_POINTS + 2)[1:-1]
                lam, vals, k = yield from merge(lam, vals, fine)
        report.sup = float(_unscale(vals[k], e))
        report.argmax_lam = float(_unscale(lam[k], e))
        report.endpoint = k in (0, lam.size - 1)
        if report.endpoint:
            report.flags.append("endpoint-argmax")
    else:
        report.flags.append("degenerate")
    if not np.isfinite(vals).all():
        report.flags.append("nan-profile")
    report.lam_grid, report.profile = _unscale(lam, e).tolist(), _unscale(vals, e).tolist()


def bsvy_sups(f: SampledField, params: BsvyParams, spaces,
              omega: DomainMask | None = None,
              policy: KernelPolicy = DEFAULT_POLICY,
              lam_grid=None) -> list[FunctionalReport]:
    """:func:`bsvy_sup` for several spaces X at once, one report per space.

    The inner integral does not depend on X, so the searches run in lockstep
    on one level-set kernel: each round evaluates one batch of the distinct
    lambdas the spaces ask for (no round repeats an earlier one's: extensions
    lie outside the grid, refinements strictly between the argmax's
    neighbours).  Each space's values come from :func:`norm_many` on the rows
    it asked for; a row does not depend on its batch, so every report equals
    the one that space gets alone.  Outside the safe band f is divided by a
    power of two first: the level sets do not change when f and lambda scale
    together.
    """
    spaces = list(spaces)
    e = _scale_exponent(f, mask_cells(omega, f.grid), params.p)
    f = _scaled(f, e)
    kernel = _LevelSetKernel(f, params, omega, policy)
    lam = (_lambda_grid(kernel.grad, kernel.mask) if lam_grid is None
           else np.ldexp(np.asarray(lam_grid, dtype=float), -e))
    if lam.size < 25 or lam[-1] / lam[0] < 10 ** 6:
        raise ValueError("lambda grid must span >= 6 decades with >= 25 points")
    reports = [FunctionalReport(
        kind="level-set-sup",
        inputs={"space": space.canonical(), "gamma": params.gamma, "p": params.p},
        flags=["theorem-conditional"] if params.theorem_conditional else [],
        extra={"grid": f.grid.describe(), "policy": policy.canonical()},
    ) for space in spaces]

    @functools.cache
    def tail_root():
        # B^(1/p) of the gamma < 0 tail bound, built for the first space that asks
        return _tail_bound(kernel, lam[1])[1] ** (1.0 / params.p)

    def tail(space):
        return float(norm_many(tail_root()[None], f.grid, space, omega)[0])

    # on an ascending grid, every lambda the rounds add after a lam[0] argmax
    # lies below lam[1], where the tail bound holds
    bounded = params.gamma < 0 and bool(np.all(np.diff(lam) > 0))
    searches = [_sup_search(lam, rep, e, functools.partial(tail, space) if bounded else None)
                for rep, space in zip(reports, spaces)]
    asks = [next(search) for search in searches]
    while any(ask is not None for ask in asks):
        live = [ask for ask in asks if ask is not None]
        lams = live[0] if len(live) == 1 else np.unique(np.concatenate(live))
        rows = np.add(*kernel.profile(lams))  # D + A; the parts go before the norms run
        for i, ask in enumerate(asks):
            if ask is None:
                continue
            inner = rows if ask is lams else rows[np.searchsorted(lams, ask)]
            vals = ask * norm_many(inner ** (1.0 / params.p), f.grid, spaces[i], omega)
            try:
                asks[i] = searches[i].send(vals)
            except StopIteration:
                asks[i] = None
    return reports


def bsvy_sup(f: SampledField, params: BsvyParams, space: SpaceSpec,
             omega: DomainMask | None = None,
             policy: KernelPolicy = DEFAULT_POLICY,
             lam_grid=None) -> FunctionalReport:
    """Supremum over the lambda grid of the level-set functional.

    The default grid spans seven decades around the gradient scale; an
    endpoint argmax triggers one automatic two-decade extension, and one
    refinement pass localizes the maximum between its grid neighbors.  For
    gamma < 0 with the argmax at the first lambda, a closed-form bound U on
    every lambda up to the second (:func:`_tail_bound`) comes first: when U is
    within TAIL_TOL of the first value, the search stops after the grid and
    ``extra["sup_upper"]`` holds U.  This is :func:`bsvy_sups` for one space.
    """
    return bsvy_sups(f, params, [space], omega, policy, lam_grid)[0]


# ---------------------------------------------------------------------------
# pair measures and the weak Hoelder inequality
# ---------------------------------------------------------------------------


def weighted_mu_measure(predicate, gamma: float, weight: np.ndarray,
                        omega: DomainMask | None, grid: Grid) -> float:
    """Pair measure sum_{x != y in E} |x-y|^(gamma-n) w(x) vol^2.

    ``predicate(x_points, y_points)`` receives (M, dim) coordinate blocks and
    returns a boolean membership array.
    """
    w = np.asarray(weight, dtype=float)
    if w.shape != grid.shape:
        raise ValueError("weight must match the grid shape")
    vol = grid.cell_volume
    n = grid.dim
    total = 0.0
    coords, w = grid.coords(), w.ravel()
    walk = _walk_geometry(grid, EXCLUDE_POLICY, _cells_key(mask_cells(omega, grid)), math.inf,
                          PAIR_BLOCK_CELLS)[2]
    number = walk.field(np.arange(grid.total_cells, dtype=float).reshape(grid.shape))
    for blk in walk:
        # the pairs of the block, flat, by the cell numbers of their ends, with
        # the offset each belongs to
        b = len(blk.dists)
        pairs = blk.restrict(np.ones(blk.shape)).reshape(b, -1) > 0
        j = np.nonzero(pairs)[0]
        ia = np.broadcast_to(blk.here(number), blk.shape).reshape(b, -1)[pairs].astype(int)
        ib = blk.there(number).reshape(b, -1)[pairs].astype(int)
        xa, xb = coords[ia], coords[ib]
        sums = [np.bincount(j[memb], weights=w[ends][memb], minlength=b)
                for memb, ends in ((np.asarray(predicate(xa, xb), dtype=bool), ia),
                                   (np.asarray(predicate(xb, xa), dtype=bool), ib))]
        for dist, wa, wb in zip(blk.dists, *sums):
            ker = dist ** (gamma - n) * vol * vol
            total += ker * float(wa)
            total += ker * float(wb)
    return total


@dataclass(frozen=True)
class WeakHolderResult:
    lhs: float
    rhs: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


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
    with np.errstate(divide="ignore", over="ignore"):  # an overflow fails the finite-lhs check below
        kern = dist ** (gamma - grid.dim)
    np.fill_diagonal(kern, 0.0)
    kern = kern * w[:, None] * grid.cell_volume ** 2
    if omega is not None:
        m = mask_cells(omega, grid).ravel()
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
    """|| |grad f| ||_X(Omega); analytic gradient preferred, finite differences
    otherwise.  :func:`~normlab.grid.gradient_magnitude` and
    :func:`~normlab.spaces.norm` each keep their powers in the float range."""
    return norm(SampledField(f.grid, gradient_magnitude(f)), space, omega)
