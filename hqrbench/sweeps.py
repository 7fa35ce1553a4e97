"""Batch-planning workload: ``sweep``.

One *pass* plans the Figure 6(a) point set the way ``repro bench`` and
``repro metrics`` users do: every point is composed
(``hqr.hierarchy.hqr_elimination_list``) and built
(``dag.compiled.compiled_from_eliminations``), then all graphs are
simulated by one ``runtime.core.run_core_batch`` call.  The graphs of
the points with m up to ``RECORDED_M_MAX`` are then simulated again
under ``obs.recording("tasks")``, which today demotes the core to its
Python loop.  No graph cache is involved.

The two halves share one workload, not one each: on a shared 2-CPU
host each CPU's speed swings by 20-30% over seconds to minutes, and
runs long enough to average much of that out fit the benchmark's time
budget only with two workloads.  Traced passes also time the unrecorded
C run of the recorded graphs, outside the pass, as the per-layer
baseline of recording.

The seed only permutes point order; every point's (makespan, messages)
is compared against ``digest.json``, frozen from the code by
``freeze_digest.py``, and every recorded result against the C result
of the same graph.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from common import (
    SETUP_REPEATS,
    BenchError,
    SpanLog,
    log,
    median,
    overhead,
    peak_rss_mb,
    tail,
    time_fresh_interpreter,
)

DIGEST = Path(__file__).with_name("digest.json")
#: the pass re-simulates the points with m up to this under recording
RECORDED_M_MAX = 128

#: a fresh interpreter is ready once the layers are imported, the
#: native core is loaded and the point set exists
SETUP_PROBE = """\
import repro.hqr.hierarchy, repro.dag.compiled, repro.runtime.core
from repro._ccore import native_available
from repro.bench.perf import default_points
from repro.bench.runner import BenchSetup
if not native_available():
    raise SystemExit(1)
default_points(BenchSetup())
print("ready", flush=True)
"""


def point_key(m: int, n: int, cfg) -> str:
    return (
        f"m={m},n={n},p={cfg.p},q={cfg.q},a={cfg.a},low={cfg.low_tree},"
        f"high={cfg.high_tree},domino={int(cfg.domino)}"
    )


def point_set():
    """The Figure 6(a) point set, in canonical order."""
    from repro.bench.perf import default_points
    from repro.bench.runner import BenchSetup

    setup = BenchSetup()
    return setup, default_points(setup)


def run_pass(points, setup, spans: SpanLog | None = None) -> dict:
    """Compose, build and simulate every point, then record the small ones."""
    from repro.dag.compiled import compiled_from_eliminations
    from repro.hqr.hierarchy import hqr_elimination_list
    from repro.obs import recording
    from repro.runtime.core import run_core_batch

    layout, machine, b = setup.layout, setup.machine, setup.b
    clock = time.perf_counter
    graphs, elims = [], 0
    start = clock()
    root = spans.add("sweep.pass", start, None) if spans is not None else None
    for m, n, cfg in points:
        if spans is None:
            el = hqr_elimination_list(m, n, cfg)
            graphs.append(compiled_from_eliminations(el, m, n, layout, machine, b))
            continue
        t0 = clock()
        el = hqr_elimination_list(m, n, cfg)
        t1 = clock()
        graphs.append(compiled_from_eliminations(el, m, n, layout, machine, b))
        t2 = clock()
        elims += len(el)
        spans.add("hqr.compose", t0, t1, root, m=m, elims=len(el))
        spans.add("dag.build", t1, t2, root, m=m, tasks=graphs[-1].ntasks)
    sim0 = clock()
    results = run_core_batch(graphs, machine, b)
    rec0 = clock()
    small = [g for (m, _, _), g in zip(points, graphs) if m <= RECORDED_M_MAX]
    with recording("tasks") as rec:
        recorded = run_core_batch(small, machine, b)
    end = clock()
    out = {
        "wall_s": end - start,
        "results": results,
        "recorded": recorded,
        "tasks": sum(g.ntasks for g in graphs),
        "edges": sum(len(g.pred_idx) for g in graphs),
        "elims": elims,
        "recorded_tasks": sum(g.ntasks for g in small),
        "task_events": len(rec.tasks),
        "dropped_events": rec.dropped,
    }
    if spans is not None:
        spans.add("core.sim", sim0, rec0, root)
        spans.add("core.recorded", rec0, end, root)
        spans.close(root, end)
        c0 = clock()
        run_core_batch(small, machine, b)
        spans.add("core.c", c0, clock(), root)
    return out


def check_pass(points, out: dict, expect: dict) -> list[str]:
    """Failures of one pass: one entry per wrong point or wrong total."""
    failures = []
    recorded = iter(out["recorded"])
    for (m, n, cfg), res in zip(points, out["results"]):
        key = point_key(m, n, cfg)
        want = expect["results"].get(key)
        got = [res.makespan, res.messages]
        if want != got:
            failures.append(f"{key}: got {got}, digest {want}")
        if m <= RECORDED_M_MAX:
            rec = next(recorded)
            if [rec.makespan, rec.messages] != got:
                failures.append(f"{key}: recorded run differs from the C run")
    # eliminations are only counted on traced passes
    totals = ("tasks", "edges", "recorded_tasks") + (
        ("elims",) if out["elims"] else ()
    )
    for total in totals:
        if out[total] != expect[total]:
            failures.append(f"{total}: {out[total]} != digest {expect[total]}")
    if out["task_events"] != out["recorded_tasks"]:
        failures.append(
            f"obs.task_events {out['task_events']} != recorded tasks "
            f"{out['recorded_tasks']}"
        )
    return failures


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup, points = point_set()
    random.Random(f"{workload}:{seed}").shuffle(points)
    expect = json.loads(DIGEST.read_text())
    if len(points) != expect["points"]:
        raise BenchError(f"{len(points)} points, digest has {expect['points']}")

    setup_s = [time_fresh_interpreter(SETUP_PROBE) for _ in range(SETUP_REPEATS)]
    spans = SpanLog() if trace else None
    attempted = failed = 0
    errors: list[str] = []

    # each CPU of a shared host drifts in speed on its own (neighbours
    # on its sibling thread come and go); passes take turns on every
    # CPU, so a run samples them all instead of whichever it started on
    cpus = sorted(os.sched_getaffinity(0))

    def one_pass(traced: bool, turn: int) -> dict:
        nonlocal attempted, failed
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        out = run_pass(points, setup, spans if traced else None)
        bad = check_pass(points, out, expect)
        attempted += len(points)
        failed += min(len(bad), len(points))
        errors.extend(bad[:5])
        return out

    one_pass(False, 0)  # warm-up: checked, not timed
    # the peak of a one-shot sweep; every further pass in the same
    # process raises it by the allocator's retained fragmentation, a few
    # percent that depend on how many passes the run fits
    rss_mb = peak_rss_mb()
    untraced: list[float] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or not untraced
        or (trace and not traced)
    ):
        # a traced run alternates traced and untraced passes; the k-th
        # of each runs on the same CPU
        if trace and len(traced) < len(untraced):
            traced.append(one_pass(True, len(traced)))
        else:
            untraced.append(one_pass(False, len(untraced))["wall_s"])
    os.sched_setaffinity(0, cpus)
    log(f"{workload}: {len(untraced)} untraced, {len(traced)} traced passes")

    tasks = expect["tasks"] + expect["recorded_tasks"]
    p50 = median(untraced)
    p99, pct = tail(untraced)
    e2e = {
        "setup_s": median(setup_s),
        "tasks_per_s": tasks / p50,
        "plans_per_s": (len(points) + expect["recorded_points"]) / p50,
        "latency_p50_ms": p50 * 1e3,
        "peak_rss_mb": rss_mb,
    }
    details = {
        "passes": len(untraced),
        "pass_s": untraced,
        "latency_p99_ms": {"value": p99 * 1e3, "unit": "ms", "percentile": pct},
        "setup_samples_s": setup_s,
        "points": len(points),
        "recorded_points": expect["recorded_points"],
        "tasks_per_pass": tasks,
        "errors": errors,
    }
    layers = {}
    if trace:
        layers = _layer_metrics(spans, traced)
        layers.update(overhead(untraced, [o["wall_s"] for o in traced]))
        details["trace_file"] = str(spans.write(workload))
        details["traced_pass_s"] = [o["wall_s"] for o in traced]
    return {
        "attempted": attempted,
        "failed": failed,
        "e2e": e2e,
        "layers": layers,
        "details": details,
    }


def _layer_metrics(spans: SpanLog, traced: list[dict]) -> dict:
    passes = len(traced)
    elims = sum(o["elims"] for o in traced)
    tasks = sum(o["tasks"] for o in traced)
    rec_tasks = sum(o["recorded_tasks"] for o in traced)
    rec_s, c_s = spans.total("core.recorded"), spans.total("core.c")
    return {
        "hqr.compose_us_per_elim": spans.total("hqr.compose") / elims * 1e6,
        "hqr.elims": elims / passes,
        "dag.build_ns_per_task": spans.total("dag.build") / tasks * 1e9,
        "dag.tasks": tasks / passes,
        "dag.edges": sum(o["edges"] for o in traced) / passes,
        "core.sim_ns_per_task": spans.total("core.sim") / tasks * 1e9,
        "core.c_ns_per_task": c_s / rec_tasks * 1e9,
        "core.recorded_ns_per_task": rec_s / rec_tasks * 1e9,
        "core.recorded_over_c": rec_s / c_s,
        "obs.task_events": sum(o["task_events"] for o in traced) / passes,
        "obs.dropped_events": sum(o["dropped_events"] for o in traced) / passes,
    }
