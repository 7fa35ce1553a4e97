"""Serving workload: ``serve-warm``.

A ``repro serve`` daemon runs in a child process with a fresh, empty
graph-cache directory (deleted afterwards; only the compiled native
core is reused).  ``CLIENTS`` threads drive it closed-loop through
``serve.client.ServeClient.plan``: each sends its next request when the
previous answer arrives.

The seed draws a stream over a fixed mix of six small pinned and auto
configs (m 12-32) and the three default tenants; set-up plans each
config once, so every measured request is a cache hit.  The mix itself
is fixed because configs drawn per seed changed the work per request,
and so every figure, by more than any bound.

After the load, every 200 answer's ``makespan_s``/``messages`` is
compared with an in-process ``PlannerService.plan`` of the same
request, run against its own empty cache once the daemon has stopped.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from common import (
    CLIENTS,
    SETUP_REPEATS,
    WORKERS,
    BenchError,
    SpanLog,
    dir_mb,
    fresh_cache_dir,
    median,
    overhead,
    peak_rss_mb,
    run_dir,
    tail,
)

TENANTS = ("interactive", "batch", "explore")
#: the serve-warm mix: three auto-configured and three pinned requests
WARM_MIX = (
    {"m": 12, "n": 4, "config": "auto"},
    {"m": 16, "n": 4, "config": {"p": 2, "q": 1, "a": 2, "low": "greedy",
                                 "high": "binary", "domino": True}},
    {"m": 20, "n": 6, "config": "auto"},
    {"m": 24, "n": 6, "config": {"p": 3, "q": 2, "a": 1, "low": "flat",
                                 "high": "greedy", "domino": False}},
    {"m": 28, "n": 8, "config": "auto"},
    {"m": 32, "n": 8, "config": {"p": 4, "q": 1, "a": 4, "low": "binary",
                                 "high": "fibonacci", "domino": True}},
)
#: unmeasured (but checked) load before the measured window
WARMUP_S = 1.0
#: a traced run alternates untraced and traced segments of this length
SEGMENT_S = 0.5
#: a traced run replays this many requests in-process
REPLAY_MAX = 1000
#: tiny request that proves a fresh daemon can plan (loads the C core)
PROBE = {"m": 2, "n": 1, "config": "auto"}


def canon(request: dict) -> str:
    return json.dumps(request, sort_keys=True)


def request_stream(seed: int):
    """Endless seeded ``(tenant, request)`` stream over ``WARM_MIX``."""
    rng = random.Random(f"serve-warm-stream:{seed}")
    while True:
        yield rng.choice(TENANTS), rng.choice(WARM_MIX)


class Feed:
    """Thread-safe numbered view of a request stream."""

    def __init__(self, stream):
        self._it = enumerate(stream)
        self._lock = threading.Lock()

    def next(self):
        with self._lock:
            return next(self._it)


@dataclass
class Sample:
    idx: int
    tenant: str
    request: dict
    start: float
    end: float
    status: int
    body: dict
    traced: bool = False
    measured: bool = False

    @property
    def latency(self) -> float:
        return self.end - self.start


class Daemon:
    """``repro serve`` in a child process over a given cache root."""

    def __init__(self, root: Path):
        env = dict(os.environ, REPRO_CACHE_DIR=str(root), PYTHONUNBUFFERED="1")
        self.log_path = root / "daemon.log"
        self._log = self.log_path.open("w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS), "--no-access-log"],
            env=env, stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        found = re.search(r"http://[\d.]+:(\d+)", self.proc.stdout.readline())
        if found is None:
            self.stop()
            raise BenchError(
                f"daemon did not start: {self.log_path.read_text()[-2000:]}"
            )
        from repro.serve.client import ServeClient

        self.port = int(found.group(1))
        self.client = ServeClient(port=self.port, timeout=30.0)
        self.client.wait_ready(attempts=2000, delay=0.005)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()  # graceful drain
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def _time_daemon_setups(work: Path) -> list[float]:
    """Seconds from spawning a daemon until it has answered a plan.

    Each daemon is told to drain as soon as it has answered, and all
    are reaped at the end, so their idle drain waits overlap.
    """
    samples, daemons = [], []
    try:
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            daemons.append(Daemon(fresh_cache_dir(work / f"setup{k}")))
            status = daemons[-1].client.plan(TENANTS[0], PROBE).status
            samples.append(time.perf_counter() - t0)
            daemons[-1].proc.terminate()
            if status != 200:
                raise BenchError(f"set-up probe answered {status}")
    finally:
        for daemon in daemons:
            daemon.stop()
    return samples


def drive(port: int, feed: Feed, seconds: float,
          spans: SpanLog | None = None) -> tuple[list[Sample], float]:
    """Closed loop of ``CLIENTS`` threads for ``seconds``."""
    from repro.serve.client import ServeClient

    samples: list[Sample] = []
    clock = time.perf_counter
    t0 = clock()
    deadline = t0 + seconds

    def client() -> None:
        cl = ServeClient(port=port, timeout=30.0)
        while (start := clock()) < deadline:
            idx, (tenant, req) = feed.next()
            traced = spans is not None and int((start - t0) / SEGMENT_S) % 2
            try:
                resp = cl.plan(tenant, req)
                status, body = resp.status, resp.body
            except (OSError, http.client.HTTPException) as exc:
                status, body = 0, {"error": repr(exc)}
            end = clock()
            samples.append(
                Sample(idx, tenant, req, start, end, status, body, bool(traced))
            )
            if traced:
                spans.add(
                    "client.plan", start, end, tenant=tenant, status=status,
                    job_id=body.get("job_id"), trace_id=body.get("trace_id"),
                    breakdown=body.get("breakdown"),
                )

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return samples, clock() - t0


def _cache_ops(client) -> dict[str, float]:
    from repro.obs.metrics import parse_prometheus_text

    family = parse_prometheus_text(client.metrics()).get(
        "repro_graph_cache_ops_total", {"samples": []}
    )
    return {labels["event"]: value for _, labels, value in family["samples"]}


def expected_answers(
    samples: list[Sample], replay: int
) -> tuple[dict, list[float]]:
    """In-process answers for every answered request, plus plan times.

    Plans each distinct request once in stream order, then re-plans the
    first ``replay`` measured requests to time ``PlannerService.plan``
    on the same sequence the daemon served.
    """
    from repro.bench.runner import compiled_graph_for
    from repro.serve.service import PlannerService, PlanRequest
    from repro.tiles.layout import BlockCyclic2D

    service = PlannerService()
    machine, b = service.setup.machine, service.setup.b
    expected: dict[str, tuple] = {}
    plan_s: list[float] = []
    ordered = sorted(
        (s for s in samples if s.status == 200), key=lambda s: s.idx
    )
    for s in ordered:
        key = canon(s.request)
        if key in expected:
            continue
        req = PlanRequest.from_json(s.request)
        res = service.plan(req)
        cfg, _ = service.resolve_config(req)
        ntasks = compiled_graph_for(
            req.m, req.n, cfg, BlockCyclic2D(cfg.p, cfg.q), machine, b
        ).ntasks
        expected[key] = (res.makespan, res.messages, ntasks)
    for s in [s for s in ordered if s.measured][:replay]:
        req = PlanRequest.from_json(s.request)
        t0 = time.perf_counter()
        service.plan(req)
        plan_s.append(time.perf_counter() - t0)
    return expected, plan_s


def check_answers(samples: list[Sample], expected: dict) -> tuple[int, list]:
    """Failed requests: not 200, or an answer the in-process plan disputes."""
    failed, errors = 0, []
    for s in samples:
        want = expected.get(canon(s.request))
        got = (s.body.get("makespan_s"), s.body.get("messages"))
        if s.status != 200 or want is None or got != want[:2]:
            failed += 1
            if len(errors) < 5:
                errors.append(f"{s.tenant} {s.request}: {s.status} {s.body}")
    return failed, errors


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = run_dir(workload)
    try:
        return _run(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        # commit the deletion now, not in the next run's measured window
        os.sync()


def _run(workload, seed, seconds, trace, work: Path) -> dict:
    setup_s = _time_daemon_setups(work)
    feed = Feed(request_stream(seed))
    spans = SpanLog() if trace else None
    samples: list[Sample] = []
    daemon_root = fresh_cache_dir(work / "daemon")
    with Daemon(daemon_root) as daemon:
        for i, req in enumerate(WARM_MIX):  # fill the cache
            t0 = time.perf_counter()
            resp = daemon.client.plan(TENANTS[i % len(TENANTS)], req)
            samples.append(Sample(
                -1 - i, TENANTS[i % len(TENANTS)], req, t0,
                time.perf_counter(), resp.status, resp.body,
            ))
        samples += drive(daemon.port, feed, WARMUP_S)[0]
        before = _cache_ops(daemon.client)
        # the growing sample list would make this process's collector
        # pause the client threads; the samples hold no cycles
        gc.disable()
        try:
            measured, elapsed = drive(daemon.port, feed, seconds, spans)
        finally:
            gc.enable()
        after = _cache_ops(daemon.client)
        stats = daemon.client.stats()
        rss = peak_rss_mb(daemon.proc.pid)
        disk = dir_mb(daemon_root / "graphs")
    for s in measured:
        s.measured = True
    samples += measured

    # -- check every answer against an in-process plan --------------- #
    os.environ["REPRO_CACHE_DIR"] = str(fresh_cache_dir(work / "inproc"))
    replay = REPLAY_MAX if trace else 0
    expected, plan_s = expected_answers(samples, replay)
    failed, errors = check_answers(samples, expected)

    ok = [s for s in measured if s.status == 200]
    lat = [s.latency for s in ok if not s.traced]
    if not lat:
        raise BenchError(f"no measured request was answered: {errors}")
    p99, pct = tail(lat)
    e2e = {
        "setup_s": median(setup_s),
        "tasks_per_s": sum(expected[canon(s.request)][2] for s in ok) / elapsed,
        "plans_per_s": len(ok) / elapsed,
        "latency_p50_ms": median(lat) * 1e3,
        "peak_rss_mb": rss,
    }
    shed = sum(t["shed"] for t in stats["scheduler"]["tenants"].values())
    details = {
        "requests": len(measured),
        "ok": len(ok),
        "shed": shed,
        "elapsed_s": elapsed,
        "latency_p99_ms": {"value": p99 * 1e3, "unit": "ms", "percentile": pct},
        "setup_samples_s": setup_s,
        "distinct_requests": len(expected),
        "service": stats["service"],
        "errors": errors,
    }
    layers = {}
    if trace:
        layers = _layer_metrics(ok, plan_s, before, after, disk)
        layers.update(overhead(lat, [s.latency for s in ok if s.traced]))
        details["trace_file"] = str(spans.write(workload))
    return {
        "attempted": len(samples),
        "failed": failed,
        "e2e": e2e,
        "layers": layers,
        "details": details,
    }


def _layer_metrics(ok, plan_s, before, after, disk_mb) -> dict:
    traced = [s for s in ok if s.traced]
    if not traced:
        raise BenchError("traced run answered no traced request")
    bds = [s.body["breakdown"] for s in traced]
    out = {
        f"serve.{stage}_ms": median(bd[stage] for bd in bds) * 1e3
        for stage in ("admission", "queue", "cache", "plan", "simulate")
    }
    out["serve.server_ms"] = median(bd["total"] for bd in bds) * 1e3
    gaps = [(s.latency - s.body["breakdown"]["total"], s.latency) for s in traced]
    out["serve.unattributed_ms"] = median(g for g, _ in gaps) * 1e3
    out["serve.unattributed_ratio"] = median(g / lat for g, lat in gaps)
    out["service.plan_ms"] = median(plan_s) * 1e3

    def delta(event: str) -> float:
        return after.get(event, 0.0) - before.get(event, 0.0)

    hits = delta("hit_memory") + delta("hit_disk")
    lookups = hits + delta("miss")
    out.update({
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.misses": delta("miss"),
        "cache.stores": delta("store"),
        "cache.evictions": delta("evict"),
        "cache.disk_mb": disk_mb,
    })
    return out
