#!/usr/bin/env python3
"""normlab benchmark: seeded workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload levelset-bracket --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 34 --trace 0

Each workload is a closed loop: one process runs one item at a time, with no
more BLAS threads than available cores.  A pass runs every item once; passes
repeat until ``--seconds`` would be exceeded (at least three).  Every item's
output is checked after the timed passes, so a faster but wrong program
shows up as failures.

``--trace 0`` reports the end-to-end metrics (set-up, pass time, per-item
median and tail, peak memory).  Other tenants of a shared host slow a
whole run by a factor that drifts over minutes, so item times are scaled
by a host gauge sampled during each pass (see ``HostGauge``; the unscaled
figures are printed and kept in the details).  Per item, the time is its
median scaled time over the passes after the first; ``solve_s`` is the sum
of those.  ``setup_s`` is the fastest of several set-ups, scaled by the
run's median host factor.  ``--trace 1``
runs one untraced pass, then traced passes whose spans give the per-layer
metrics; computed counts must repeat exactly between the traced passes.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.
Per-run details (provenance, item sizes and times, failures, spans) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("levelset-bracket", "pair-kernel-large", "ball-cube-2d")
SETUP_SAMPLES = 5  # this process plus four fresh child processes
MIN_PASSES = 3  # the first pass is warm-up: timed and checked, not in the metrics
GAUGE_EVERY_S = 0.1  # item time between two host-gauge samples
GAUGE_REF_S = 6.0e-3  # fixed scale: about the median gauge sample on a quiet 2-core host
UNITS = {"setup_s": "s", "solve_s": "s", "item_ms.p50": "ms", "item_ms.tail": "ms",
         "peak_rss_mb": "MB"}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _limit_blas_threads() -> str:
    """Cap BLAS/OpenMP pools at the cores this process may use (before numpy loads)."""
    n = str(_nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n
    return n


def _import_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: PLC0415 - imports normlab; timed as set-up

    return workloads


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                         timeout=30)
    return res.stdout.strip() if res.returncode == 0 else None


def _provenance(args, blas: str, wl) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": _nproc(),
        "blas_threads": int(blas),
        "git_commit": _git_commit(),
        "loop": "closed loop: one process, one item at a time",
        "items": [{"label": it.label, "sizes": it.sizes} for it in wl.items],
    }


def _tail_percentile(n: int) -> int:
    """Highest multiple-of-5 percentile with at least ten items above it in one pass."""
    for q in range(95, 50, -5):
        if n - math.ceil(q * n / 100) >= 10:
            return q
    return 50


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


class HostGauge:
    """Times a fixed normlab-free mix between items, as a gauge of host speed.

    Other tenants of a shared host slow everything running at the same time
    by a common factor that drifts over minutes.  The gauge is sampled
    between items (outside their timing) at least every GAUGE_EVERY_S of
    item time, so each pass has its own samples; dividing the pass's item
    times by the pass's median gauge time over GAUGE_REF_S removes that
    factor.  The mix holds the kinds of work normlab does: an interpreter
    loop, many small-array numpy calls, a shifted-difference walk over a
    4096-cell array and 2D prefix sums.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.line = rng.standard_normal(4096)
        self.rows = [rng.standard_normal(64) for _ in range(200)]
        self.plane = rng.standard_normal((128, 128))
        self.passes: list[list[float]] = []

    def sample(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += (i * 1.0001) % 7.3
        for row in self.rows:
            acc += float(np.sum(np.abs(row) ** 2.5))
        f = self.line
        for k in range(1, 120):
            acc += float(np.sum(np.abs(f[k:] - f[:-k]) ** 2))
        for _ in range(10):
            acc += float(np.cumsum(np.cumsum(self.plane, 0), 1)[::3, ::3].sum())
        dt = time.perf_counter() - t0
        self.passes[-1].append(dt)
        return dt

    def factor(self, k: int) -> float:
        """Host slowdown during pass ``k`` relative to the reference host."""
        return statistics.median(self.passes[k]) / GAUGE_REF_S


def run_pass(wl, tracer=None, gauge=None):
    """One timed pass over every item; returns (wall s, item seconds, outputs, errors)."""
    times, outputs, errors = [], [], {}
    if gauge is not None:
        gauge.passes.append([])
    since = 0.0
    t0 = time.perf_counter()
    for i, item in enumerate(wl.items):
        if tracer is not None:
            tracer.item = i
        s = time.perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # an item that raises counts as failed
            out = None
            errors[i] = f"raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - s)
        outputs.append(out)
        since += times[-1]
        if gauge is not None and (since >= GAUGE_EVERY_S or i == len(wl.items) - 1):
            gauge.sample()
            since = 0.0
    return time.perf_counter() - t0, times, outputs, errors


def check_pass(wl, outputs, errors) -> dict[int, str]:
    """Failure reason per failed item of one pass (checks run untimed)."""
    bad = dict(errors)
    for i, (item, out) in enumerate(zip(wl.items, outputs)):
        if i in bad or item.check is None:
            continue
        try:
            reason = item.check(out)
        except Exception as exc:  # a check that cannot judge the output fails the item
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            bad[i] = reason
    if wl.group_check is not None:
        for i, reason in wl.group_check(outputs).items():
            bad.setdefault(i, reason)
    return bad


def _repeat_passes(wl, seconds: float, tracer_factory=None, between=None, gauge=None):
    """Passes until the next one would overrun ``seconds`` (at least MIN_PASSES).

    ``between`` runs after each pass but the last; its time does not count
    against ``seconds``.
    """
    passes = []
    start = time.perf_counter()
    while True:
        tracer = tracer_factory() if tracer_factory else None
        passes.append((tracer,) + run_pass(wl, tracer, gauge))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + passes[-1][1] > seconds:
            return passes
        if between is not None:
            t = time.perf_counter()
            between()
            start += time.perf_counter() - t


def _setup_probe(workload: str, seed: int) -> float:
    t0 = time.perf_counter()
    wmod = _import_workloads()
    wmod.build(workload, seed, OUT)
    return time.perf_counter() - t0


def _child_setup(workload: str, seed: int) -> float:
    res = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                          "--workload", workload, "--seed", str(seed)],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-2000:]}")
    return float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])


def _check_all(wl, passes) -> tuple[int, list[str], float]:
    t0 = time.perf_counter()
    failed, notes = 0, []
    for k, (_, _, _, outputs, errors) in enumerate(passes):
        bad = check_pass(wl, outputs, errors)
        failed += len(bad)
        notes.extend(f"pass {k} item {i} [{wl.items[i].label}]: {r}" for i, r in sorted(bad.items()))
    return failed, notes, time.perf_counter() - t0


def _write(name: str, payload: dict) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(payload, indent=1, default=str) + "\n")
    return path


def _print_e2e(workload: str, metrics: dict, extra: dict) -> None:
    print(f"== {workload}: {extra['passes']} passes of {extra['items']} items "
          f"(closed loop, one process)")
    notes = {
        "setup_s": f"fastest of {SETUP_SAMPLES} set-ups over the host factor; "
                   f"unscaled {extra['raw_setup_s']:.6f} s",
        "solve_s": f"sum of per-item medians over {extra['passes'] - 1} timed passes, "
                   f"checks excluded; unscaled {extra['raw_solve_s']:.6f} s, "
                   f"host factor {extra['host_factor']:.4f}",
        "item_ms.p50": f"median of {extra['items']} items, each its median pass",
        "item_ms.tail": f"p{extra['tail_q']} of {extra['items']} items, each its median pass",
        "peak_rss_mb": "peak resident memory after the timed passes",
    }
    for key in ("setup_s", "solve_s", "item_ms.p50", "item_ms.tail"):
        print(f"  {key:<14}{metrics[key]['value']:>14.6f} {UNITS[key]:<3} ({notes[key]})")
    print(f"  {'fail_ratio':<14}{extra['fail_ratio']:>14.6f} {'1':<3} "
          f"({extra['failed']} of {extra['attempted']} items failed or raised)")
    key = "peak_rss_mb"
    print(f"  {key:<14}{metrics[key]['value']:>14.3f} {UNITS[key]:<3} ({notes[key]})")


def _measure_e2e(args, wl, setup_main: float, result: dict):
    """End-to-end metrics, tracing off.

    The child set-ups run between passes, so that set-up and passes are both
    sampled across the whole run rather than in one stretch of it.
    """
    setups = [setup_main]

    def child_setup():
        if len(setups) < SETUP_SAMPLES:
            setups.append(_child_setup(args.workload, args.seed))

    gauge = HostGauge()
    passes = _repeat_passes(wl, args.seconds, between=child_setup, gauge=gauge)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_SAMPLES:
        child_setup()
    failed, notes, check_s = _check_all(wl, passes)
    n_items = len(wl.items)
    q = _tail_percentile(n_items)
    timed = range(1, len(passes))  # pass 0 is warm-up
    factors = [gauge.factor(k) for k in range(len(passes))]
    item_s = [statistics.median(passes[k][2][i] / factors[k] for k in timed)
              for i in range(n_items)]
    raw_item_s = [statistics.median(passes[k][2][i] for k in timed) for i in range(n_items)]
    host = statistics.median(factors[k] for k in timed)
    values = {
        "setup_s": min(setups) / host,
        "solve_s": math.fsum(item_s),
        "item_ms.p50": statistics.median(item_s) * 1e3,
        "item_ms.tail": _percentile(item_s, q) * 1e3,
        "peak_rss_mb": rss_mb,
    }
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    attempted = n_items * len(passes)
    extra = {"passes": len(passes), "items": n_items, "tail_q": q, "failed": failed,
             "attempted": attempted, "fail_ratio": failed / attempted,
             "raw_solve_s": math.fsum(raw_item_s), "raw_setup_s": min(setups),
             "host_factor": host}
    _print_e2e(args.workload, metrics, extra)
    result.update(setups=setups, pass_s=[p[1] for p in passes], check_s=check_s, **extra,
                  host_factors=factors, gauge_s=gauge.passes,
                  item_s=[[p[2][i] for p in passes] for i in range(n_items)])
    return metrics, failed == 0, attempted, failed, notes


def _measure_traced(args, wl, SP, inst, result: dict):
    """Per-layer metrics: one untraced pass, then traced passes."""
    setup_spans = inst.tracer.spans
    untraced = run_pass(wl)

    def fresh_tracer():
        inst.tracer = SP.Tracer()
        return inst.tracer

    with inst:
        passes = _repeat_passes(wl, args.seconds, fresh_tracer)
    # the untraced pass is judged too; its outputs must pass like the others
    all_passes = [(None,) + untraced] + passes
    failed, notes, check_s = _check_all(wl, all_passes)
    per_pass, counts = [], []
    overlap = False
    for tracer, solve, _, _, _ in passes:
        m, selfs, other = SP.layer_metrics(tracer.spans, solve)
        per_pass.append((m, selfs))
        counts.append(SP.computed_counts(tracer.spans))
        # a negative self time would mean spans overlap instead of nesting
        overlap = overlap or min(list(selfs.values()) + [other]) < -1e-6
    repeat_ok = all(c == counts[0] for c in counts[1:])
    if not repeat_ok:
        diff = sorted(k for k in set(counts[0]) | set(counts[1])
                      if counts[0].get(k) != counts[1].get(k))
        notes.append(f"computed counts differ between traced passes: {diff}")
    if overlap:
        notes.append("negative self time: spans overlap")
    setup_m, _, _ = SP.layer_metrics(setup_spans, 0.0)
    values = {k: statistics.median(m[k] for m, _ in per_pass) for k in per_pass[0][0]}
    for k in SP.SETUP_LAYER_KEYS:  # set-up builds most grids, fields and masks
        values[k] += setup_m[k]
    traced_solve = statistics.median(p[1] for p in passes)
    values["check_s"] = check_s
    values["trace.solve_s"] = traced_solve
    values["trace.overhead_pct"] = 100.0 * (traced_solve / untraced[0] - 1.0)
    metrics = {k: {"value": v, "unit": SP.unit_of(k)} for k, v in values.items()}
    selfs_med = {k: statistics.median(s.get(k, 0.0) for _, s in per_pass)
                 for k in sorted({k for _, s in per_pass for k in s})}
    print(f"== {args.workload} traced: {len(passes)} traced passes of {len(wl.items)} items, "
          f"untraced pass {untraced[0]:.4f} s")
    for k, v in metrics.items():
        print(f"  {k:<46}{v['value']:>18.6f} {v['unit']}")
    print("  layer self times (median over traced passes):")
    for k, v in selfs_med.items():
        print(f"    {k:<44}{v:>14.6f} s")
    print(f"    {'other':<44}{values['other.self_s']:>14.6f} s  (traced pass time no span covers)")
    print(f"  computed counts identical across traced passes: {repeat_ok}")
    attempted = len(wl.items) * len(all_passes)
    correct = failed == 0 and repeat_ok and not overlap
    result.update(untraced_s=untraced[0], traced_s=[p[1] for p in passes], counts=counts[0],
                  self_s=selfs_med, failed=failed, attempted=attempted)
    _write(f"{args.workload}-seed{args.seed}-spans.json", {
        "provenance": result["provenance"],
        "fields": ["name", "start", "end", "parent", "item", "attrs"],
        "setup": [SP.span_row(s) for s in setup_spans],
        "passes": [[SP.span_row(s) for s in tracer.spans] for tracer, *_ in passes],
    })
    return metrics, correct, attempted, failed, notes


def run_workload(args) -> int:
    blas = _limit_blas_threads()
    OUT.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    wmod = _import_workloads()
    import spans as SP

    inst = SP.Instrumentation(SP.Tracer()) if args.trace else None
    if inst is not None:
        with inst:  # record the set-up's sampling and masking too
            wl = wmod.build(args.workload, args.seed, OUT)
    else:
        wl = wmod.build(args.workload, args.seed, OUT)
    setup_main = time.perf_counter() - t0
    prov = _provenance(args, blas, wl)
    result: dict = {"provenance": prov}
    if args.trace:
        metrics, correct, attempted, failed, notes = _measure_traced(args, wl, SP, inst, result)
    else:
        metrics, correct, attempted, failed, notes = _measure_e2e(args, wl, setup_main, result)
    for n in notes[:20]:
        print(f"  FAIL {n}")
    result.update(notes=notes, metrics=metrics)
    path = _write(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", result)
    print("provenance: " + json.dumps({k: v for k, v in prov.items() if k != "items"}))
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metrics, then a summary."""
    rows, summary = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                             text=True, timeout=900)
        sys.stdout.write(res.stdout)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            raise RuntimeError(f"workload {name} exited with {res.returncode}")
        last = json.loads(res.stdout.strip().splitlines()[-1])
        summary["correct"] = summary["correct"] and last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            summary["metrics"][f"{name}.{k}"] = v
        rows.append((name, last))
    print("== summary")
    for name, last in rows:
        fail_ratio = last["failed"] / last["attempted"]
        cells = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in last["metrics"].items()
                 if k in UNITS]
        print(f"  {name:<18} " + " | ".join(cells) + f" | fail_ratio {fail_ratio:.6g} 1")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        _limit_blas_threads()
        print(json.dumps({"setup_s": _setup_probe(args.workload, args.seed)}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
