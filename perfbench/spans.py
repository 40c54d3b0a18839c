"""Span tracing of normlab's layers from outside the package.

Each public function of interest is replaced, for the duration of a traced
pass, by a wrapper that records one span (name, start, end, parent span,
item id, attributes).  The wrapper is installed in every module namespace
where a caller looks the name up -- ``normlab.functionals.norm`` for the
lambda sweep, ``normlab.experiments.bsvy_sup`` for the CLI runner, and so on
-- so nested calls inside the package are seen without touching its source.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# per-kind evaluators are wrapped only where code outside normlab.spaces looks
# them up; inside spaces they run under the ``norm`` span that dispatched them
KIND_EVALUATORS = {
    "weighted_lebesgue_norm": "weighted",
    "lorentz_norm": "lorentz",
    "luxemburg_norm": "orlicz",
    "orlicz_slice_norm": "orliczslice",
    "morrey_norm": "morrey",
    "bbm_morrey_norm": "bbmorrey",
    "herz_local_norm": "herzlocal",
    "herz_global_norm": "herzglobal",
    "mixed_norm": "mixed",
    "variable_lebesgue_norm": "varleb",
}

SPACE_KINDS = ("lebesgue", "weighted", "lorentz", "orlicz", "orliczslice", "morrey",
               "bbmorrey", "herzlocal", "herzglobal", "mixed", "varleb")

EXPERIMENT_RUNNERS = ("run_bsvy_experiment", "run_bbm_experiment", "run_morrey_duality_check",
                      "run_norm_table", "run_apconst_table", "run_weak_holder_suite")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    item: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; ``item`` is set by the pass loop before each item."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.item = -1

    def open(self, name: str, attrs: dict) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.item, attrs))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()


def _grid_of(args, kwargs):
    return (args[0] if args else kwargs["f"]).grid


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# attribute extractors: record only small, hashable descriptions of the
# inputs; counts derived from them are computed after the pass
def _attrs_profile(args, kwargs):
    grid = _grid_of(args, kwargs)
    lams = np.asarray(_arg(args, kwargs, 1, "lams"), dtype=float)
    policy = _arg(args, kwargs, 4, "policy")
    return {"grid": grid, "lambdas": int(lams.size), "policy": policy}


def _attrs_gagliardo(args, kwargs):
    return {"grid": _grid_of(args, kwargs), "policy": _arg(args, kwargs, 4, "policy")}


def _attrs_norm(args, kwargs):
    return {"kind": _arg(args, kwargs, 1, "space").tag}


def _attrs_muckenhoupt(args, kwargs):
    weight = args[0] if args else kwargs["weight"]
    family = _arg(args, kwargs, 2, "family")
    anchor = weight.power[1] if weight.power is not None else None
    return {"grid": weight.grid, "anchor": anchor,
            "cubes": None if family is None else int(family.count)}


def _attrs_hl(args, kwargs):
    f = args[0] if args else kwargs["f"]
    grid = f.grid if hasattr(f, "grid") else _arg(args, kwargs, 1, "grid")
    radii = _arg(args, kwargs, 2, "radii")
    return {"grid": grid, "radii": None if radii is None else int(np.size(radii))}


def _result_sup(res, attrs):
    attrs["extended"] = bool(res.extended)


def _result_emit(res, attrs):
    attrs["bytes"] = int(sum(p.stat().st_size for p in res))


class Instrumentation:
    """Installs span wrappers at every lookup site and restores the originals.

    Spans go to ``self.tracer``, which the caller may swap between phases.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def _wrap(self, orig, span, attrs_fn=None, result_fn=None, kind=None):
        inst = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            attrs = attrs_fn(args, kwargs) if attrs_fn else {}
            if kind is not None:
                attrs["kind"] = kind
            tracer = inst.tracer
            idx = tracer.open(span, attrs)
            try:
                res = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if result_fn is not None:
                result_fn(res, attrs)
            return res

        return wrapper

    def _install(self, home: str, name: str, span: str, attrs_fn=None, result_fn=None,
                 kind=None, skip_home: bool = False) -> None:
        orig = getattr(sys.modules[home], name)
        wrapper = self._wrap(orig, span, attrs_fn, result_fn, kind)
        for modname, mod in list(sys.modules.items()):
            if not (modname == "normlab" or modname.startswith("normlab.")):
                continue
            if skip_home and modname == home:
                continue
            if vars(mod).get(name) is orig:
                self.saved.append((mod, name, orig))
                setattr(mod, name, wrapper)

    def __enter__(self):
        fn = "normlab.functionals"
        self._install(fn, "bsvy_inner_profile", "functionals.inner_profile", _attrs_profile)
        self._install(fn, "bsvy_sup", "functionals.bsvy_sup", result_fn=_result_sup)
        self._install(fn, "bsvy_functional", "functionals.bsvy_functional")
        self._install(fn, "gagliardo_seminorm_sweep", "functionals.gagliardo", _attrs_gagliardo)
        self._install(fn, "fractional_inner_field", "functionals.gagliardo", _attrs_gagliardo)
        self._install(fn, "sobolev_norm", "functionals.sobolev_norm")
        self._install("normlab.spaces", "norm", "spaces.norm", _attrs_norm)
        for name, kind in KIND_EVALUATORS.items():
            self._install("normlab.spaces", name, "spaces.norm", kind=kind, skip_home=True)
        w = "normlab.weights"
        self._install(w, "muckenhoupt_constant", "weights.muckenhoupt", _attrs_muckenhoupt)
        self._install(w, "hl_maximal", "weights.hl_maximal", _attrs_hl)
        self._install(w, "rubio_de_francia", "weights.rubio")
        self._install(w, "estimate_maximal_opnorm", "weights.opnorm")
        self._install("normlab.grid", "sample", "grid.sample")
        self._install("normlab.grid", "gradient_magnitude", "grid.gradient_magnitude")
        self._install("normlab.domains", "mask", "domains.mask")
        for name in EXPERIMENT_RUNNERS:
            self._install("normlab.experiments", name, "experiments.run")
        self._install("normlab.reports", "emit_report", "reports.emit", result_fn=_result_emit)
        self._install("normlab.cli", "main", "cli.main")
        return self

    def __exit__(self, *exc):
        for mod, name, orig in reversed(self.saved):
            setattr(mod, name, orig)
        self.saved.clear()
        return False


# ---------------------------------------------------------------------------
# computed counts
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def pairs_walked(grid, near_window_cells: float | None) -> int:
    """Cell pairs visited by one walk over the half offsets of ``grid``.

    ``near_window_cells`` is the analytic near-field radius in units of the
    smallest cell size (offsets inside it are skipped), or None when the
    diagonal is excluded and every offset is walked.
    """
    h = np.asarray(grid.cell_size)
    axes = [np.arange(-(n - 1), n) for n in grid.shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    offs = np.stack([m.ravel() for m in mesh], axis=1)
    nz = offs != 0
    first = np.argmax(nz, axis=1)
    lead = offs[np.arange(len(offs)), first]
    offs = offs[lead > 0]
    if near_window_cells is not None:
        dist = np.linalg.norm(offs * h, axis=1)
        offs = offs[dist > near_window_cells * float(np.min(h))]
    counts = np.prod(np.asarray(grid.shape)[None, :] - np.abs(offs), axis=1)
    return int(np.sum(counts))


def _policy_window(policy):
    if policy is None:
        import normlab.functionals as F

        policy = F.DEFAULT_POLICY
    return policy.near_window if policy.diagonal == "equivalent-ball" else None


@functools.lru_cache(maxsize=None)
def _default_cubes(grid, anchor) -> int:
    import normlab.weights as W

    return W.default_cube_family(grid, anchor=anchor).count


@functools.lru_cache(maxsize=None)
def _default_radii(grid) -> int:
    import normlab.weights as W

    return int(W.default_radii(grid).size)


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _ancestor_sup(spans: list[Span], idx: int) -> bool:
    p = spans[idx].parent
    while p >= 0:
        if spans[p].name == "functionals.bsvy_sup":
            return True
        p = spans[p].parent
    return False


def computed_counts(spans: list[Span]) -> dict[str, int]:
    """Counts that depend only on the inputs: they must repeat exactly."""
    c: dict[str, int] = {}

    def add(key, v):
        c[key] = c.get(key, 0) + int(v)

    for i, s in enumerate(spans):
        add(f"calls.{s.name}", 1)
        a = s.attrs
        if s.name == "functionals.inner_profile":
            pairs = pairs_walked(a["grid"], _policy_window(a["policy"]))
            add("functionals.inner_profile.lambdas", a["lambdas"])
            add("functionals.inner_profile.pair_lambda_evals", pairs * a["lambdas"])
            if _ancestor_sup(spans, i):
                add("functionals.inner_profile.in_sup", 1)
        elif s.name == "functionals.gagliardo":
            add("functionals.gagliardo.pairs", pairs_walked(a["grid"], _policy_window(a["policy"])))
        elif s.name == "functionals.bsvy_sup":
            add("functionals.bsvy_sup.extended", a.get("extended", False))
        elif s.name == "spaces.norm":
            add(f"spaces.norm.{a['kind']}.calls", 1)
            if _ancestor_sup(spans, i):
                add("spaces.norm.in_sup", 1)
        elif s.name == "weights.muckenhoupt":
            cubes = a["cubes"] if a["cubes"] is not None else _default_cubes(a["grid"], a["anchor"])
            add("weights.muckenhoupt.cubes", cubes)
        elif s.name == "weights.hl_maximal":
            add("weights.hl_maximal.radii",
                a["radii"] if a["radii"] is not None else _default_radii(a["grid"]))
        elif s.name == "reports.emit":
            add("reports.bytes_written", a.get("bytes", 0))
    return c


def layer_metrics(spans: list[Span], solve_s: float) -> tuple[dict, dict, float]:
    """Per-layer metrics of one traced pass.

    Returns ``(metrics, self_by_layer, other_self_s)`` where metrics maps the
    per-layer metric names to values, ``self_by_layer`` holds the self time
    of every span name and ``other_self_s`` is the pass time no span covers.
    """
    own = self_times(spans)
    counts = computed_counts(spans)
    total: dict[str, float] = {}
    selfs: dict[str, float] = {}
    kind_s: dict[str, float] = {}
    for s, o in zip(spans, own):
        dur = s.end - s.start
        total[s.name] = total.get(s.name, 0.0) + dur
        selfs[s.name] = selfs.get(s.name, 0.0) + o
        if s.name == "spaces.norm":
            kind_s[s.attrs["kind"]] = kind_s.get(s.attrs["kind"], 0.0) + dur
    other = solve_s - sum(selfs.values())

    def calls(name):
        return counts.get(f"calls.{name}", 0)

    sups = calls("functionals.bsvy_sup")
    m = {
        "functionals.inner_profile.calls": calls("functionals.inner_profile"),
        "functionals.inner_profile.self_s": selfs.get("functionals.inner_profile", 0.0),
        "functionals.inner_profile.lambdas": counts.get("functionals.inner_profile.lambdas", 0),
        "functionals.inner_profile.passes_per_sup":
            counts.get("functionals.inner_profile.in_sup", 0) / sups if sups else 0.0,
        "functionals.inner_profile.pair_lambda_evals":
            counts.get("functionals.inner_profile.pair_lambda_evals", 0),
        "functionals.bsvy_sup.calls": sups,
        "functionals.bsvy_sup.s": total.get("functionals.bsvy_sup", 0.0),
        "functionals.sup.extended_share":
            counts.get("functionals.bsvy_sup.extended", 0) / sups if sups else 0.0,
        "functionals.bsvy_functional.calls": calls("functionals.bsvy_functional"),
        "functionals.bsvy_functional.s": total.get("functionals.bsvy_functional", 0.0),
        "functionals.gagliardo.calls": calls("functionals.gagliardo"),
        "functionals.gagliardo.self_s": selfs.get("functionals.gagliardo", 0.0),
        "functionals.gagliardo.pairs": counts.get("functionals.gagliardo.pairs", 0),
        "functionals.sobolev_norm.s": total.get("functionals.sobolev_norm", 0.0),
        "spaces.norm.calls": calls("spaces.norm"),
        "spaces.norm.self_s": selfs.get("spaces.norm", 0.0),
        "spaces.norm.calls_per_sup": counts.get("spaces.norm.in_sup", 0) / sups if sups else 0.0,
    }
    for kind in SPACE_KINDS:
        m[f"spaces.norm.{kind}.calls"] = counts.get(f"spaces.norm.{kind}.calls", 0)
        m[f"spaces.norm.{kind}.s"] = kind_s.get(kind, 0.0)
    m.update({
        "weights.muckenhoupt.calls": calls("weights.muckenhoupt"),
        "weights.muckenhoupt.s": total.get("weights.muckenhoupt", 0.0),
        "weights.muckenhoupt.cubes": counts.get("weights.muckenhoupt.cubes", 0),
        "weights.hl_maximal.calls": calls("weights.hl_maximal"),
        "weights.hl_maximal.s": total.get("weights.hl_maximal", 0.0),
        "weights.hl_maximal.radii": counts.get("weights.hl_maximal.radii", 0),
        "weights.rubio.s": total.get("weights.rubio", 0.0),
        "weights.opnorm.s": total.get("weights.opnorm", 0.0),
        "grid.sample.calls": calls("grid.sample"),
        "grid.sample.s": total.get("grid.sample", 0.0),
        "grid.gradient_magnitude.s": total.get("grid.gradient_magnitude", 0.0),
        "domains.mask.calls": calls("domains.mask"),
        "domains.mask.s": total.get("domains.mask", 0.0),
        "experiments.run.s": total.get("experiments.run", 0.0),
        "reports.emit.s": total.get("reports.emit", 0.0),
        "reports.bytes_written": counts.get("reports.bytes_written", 0),
        "cli.main.self_s": selfs.get("cli.main", 0.0),
        "other.self_s": other,
    })
    return m, selfs, other


# layers whose work happens mostly while the inputs are built; their traced
# metrics add the set-up spans to the pass spans
SETUP_LAYER_KEYS = ("grid.sample.calls", "grid.sample.s", "grid.gradient_magnitude.s",
                    "domains.mask.calls", "domains.mask.s")


def unit_of(key: str) -> str:
    if key.endswith("_per_sup"):
        return "1/sup"
    if key.endswith("_share"):
        return "1"
    if key.endswith("_pct"):
        return "%"
    if key.endswith("bytes_written"):
        return "B"
    if key.endswith(".s") or key.endswith("_s"):
        return "s"
    return "count"


def span_row(s: Span) -> list:
    attrs = {k: (v if isinstance(v, (int, float, str, bool)) or v is None else str(v))
             for k, v in s.attrs.items()}
    return [s.name, s.start, s.end, s.parent, s.item, attrs]
