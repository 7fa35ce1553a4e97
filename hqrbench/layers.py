"""Layer → end-to-end table of the benchmark.

For every per-layer metric: the workloads whose traced run measures it,
and the end-to-end metric (on which workload) a change to that layer
should move.  A traced run reports a layer metric as 0 on a workload
where that layer does no work.  ``selftest.py`` checks that this table
and the ``per_layer`` list of ``BENCHMARK.json`` name the same metrics.
"""

from __future__ import annotations

SWEEPS = ("sweep",)
SERVES = ("serve-warm",)
WORKLOADS = SWEEPS + SERVES

_SWEEP = "tasks_per_s and latency_p50_ms on sweep; nothing on serve-warm"
_REQUEST_PATH = "latency_p50_ms and plans_per_s on serve-warm"
_UNATTRIBUTED = (
    "plans_per_s and the reported (unbounded) latency p99 on serve-warm"
)
_CACHE = (
    "latency_p50_ms on serve-warm (a miss replans); peak_rss_mb on serve-warm"
)

#: metric -> (workloads that measure it, what it should move)
LAYERS: dict[str, tuple[tuple[str, ...], str]] = {
    # hqr: elimination-list composition
    "hqr.compose_us_per_elim": (SWEEPS, _SWEEP),
    "hqr.elims": (SWEEPS, _SWEEP),
    # dag: compiled DAG build
    "dag.build_ns_per_task": (SWEEPS, _SWEEP),
    "dag.tasks": (SWEEPS, _SWEEP),
    "dag.edges": (SWEEPS, _SWEEP),
    # runtime.core: the event loop (C batch, or Python when recording)
    "core.sim_ns_per_task": (SWEEPS, _SWEEP),
    "core.c_ns_per_task": (SWEEPS, "nothing; the baseline of recording"),
    "core.recorded_ns_per_task": (SWEEPS, _SWEEP),
    "core.recorded_over_c": (SWEEPS, _SWEEP),
    # obs: task-level recording
    "obs.task_events": (SWEEPS, _SWEEP),
    "obs.dropped_events": (SWEEPS, _SWEEP),
    # serve: daemon request path (medians of the response breakdown)
    "serve.admission_ms": (SERVES, _REQUEST_PATH),
    "serve.queue_ms": (SERVES, _REQUEST_PATH),
    "serve.cache_ms": (SERVES, _REQUEST_PATH),
    "serve.plan_ms": (SERVES, _REQUEST_PATH),
    "serve.simulate_ms": (SERVES, _REQUEST_PATH),
    "serve.server_ms": (SERVES, _REQUEST_PATH),
    "serve.unattributed_ms": (SERVES, _UNATTRIBUTED),
    "serve.unattributed_ratio": (SERVES, _UNATTRIBUTED),
    # PlannerService.plan in-process: planning without HTTP and queueing
    "service.plan_ms": (SERVES, _REQUEST_PATH),
    # dag.cache: fingerprint-keyed graph cache, deltas of /metrics
    "cache.hit_ratio": (SERVES, _CACHE),
    "cache.misses": (SERVES, _CACHE),
    "cache.stores": (SERVES, _CACHE),
    "cache.evictions": (SERVES, _CACHE),
    "cache.disk_mb": (SERVES, _CACHE),
    # the benchmark's own tracing: traced minus untraced operation latency
    "trace.overhead_ms": (WORKLOADS, "nothing; the cost of measuring"),
    "trace.overhead_ratio": (WORKLOADS, "nothing; the cost of measuring"),
}


def measured_on(metric: str, workload: str) -> bool:
    return workload in LAYERS[metric][0]
