"""Self-profiling of the reproduction harness itself.

Where the paper's metrics attribute *simulated* time, this module
attributes the harness's own *wall* time: elimination-list composition
vs. DAG build vs. cache lookups vs. the engine event loop vs. sweep
dispatch.  Two mechanisms:

* **Spans** — the harness is pre-wired with :func:`repro.obs.tracing.
  span` blocks (``graph``, ``hqr.compose``, ``dag.build``, ``simulate``,
  ``dispatch_pack``, ``dispatch_compute``, ``sweep_point``);
  :func:`profile_run` installs a ``summary`` recorder and reads its
  per-name totals (:meth:`~repro.obs.events.Recorder.totals`).
* **cProfile hooks** — :func:`profile_run` wraps a representative
  sweep in ``cProfile`` and reports the top cumulative functions next
  to the span table, for drill-down past the span granularity.

Nesting: spans nest freely and each level accumulates its own wall
time, so ``graph`` (cache lookup + possible build) *contains*
``hqr.compose`` and ``dag.build`` — subtracting them out yields pure
cache overhead.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time

from repro.obs.events import recording
from repro.obs.tracing import span

__all__ = [
    "format_profile",
    "profile_run",
]


# --------------------------------------------------------------------- #
# harness profiling runs (the ``repro profile`` command)
# --------------------------------------------------------------------- #
def _sweep_points(m: int, n: int, config, count: int):
    """A small sweep around ``(m, n)`` — enough fan-out to matter."""
    ms = sorted({max(4, m >> i) for i in range(count)}, reverse=True)
    return [(mi, n, config) for mi in ms]


def profile_run(
    m: int = 64,
    n: int = 8,
    config=None,
    *,
    setup=None,
    sweep_points: int = 4,
    with_cprofile: bool = True,
    top: int = 15,
) -> dict:
    """Profile the harness over one config + a small sweep.

    Stages measured (serial pass, clean attribution): ``hqr.compose``
    (elimination list), ``dag.build`` (compiled-graph construction),
    ``graph`` (cache lookup incl. any build), ``simulate`` (engine
    dispatch).  The same points then go once through :func:`~repro.
    bench.runner.run_config_sweep` (``dispatch``; on the C path its
    ``dispatch_pack``/``dispatch_compute`` spans split it into setup,
    arena packing, and compute).  Every stage is a span read back from
    a ``summary`` recorder, so the sweep runs in-process.  Returns a
    JSON-ready report.
    """
    from repro.bench.runner import BenchSetup, run_config, run_config_sweep
    from repro.hqr.config import HQRConfig

    setup = setup or BenchSetup()
    if config is None:
        config = HQRConfig(
            p=setup.grid_p, q=setup.grid_q, a=4,
            low_tree="greedy", high_tree="fibonacci", domino=False,
        )
    points = _sweep_points(m, n, config, sweep_points)

    report: dict = {"m": m, "n": n, "config": str(config), "points": len(points)}

    prof_ctx = cProfile.Profile() if with_cprofile else None
    with recording("summary") as rec:
        t0 = time.perf_counter()
        if prof_ctx is not None:
            prof_ctx.enable()
        for mi, ni, cfg in points:
            run_config(mi, ni, cfg, setup)
        if prof_ctx is not None:
            prof_ctx.disable()
        serial_s = time.perf_counter() - t0

        with span("dispatch"):
            run_config_sweep(points, setup)
    stages = rec.totals()

    def seconds(name: str) -> float:
        return stages.get(name, {}).get("seconds", 0.0)

    report["stages"] = stages
    report["serial_wall_s"] = serial_s
    dispatch_s = seconds("dispatch")
    pack_s = seconds("dispatch_pack")
    compute_s = seconds("dispatch_compute")
    report["dispatch"] = {
        "total_s": dispatch_s,
        "pack_s": pack_s,
        "compute_s": compute_s,
        # graph loading, engine pick, result assembly — everything that
        # is neither arena packing nor the simulation itself
        "setup_s": max(0.0, dispatch_s - pack_s - compute_s),
    }
    report["cache_overhead_s"] = max(
        0.0, seconds("graph") - seconds("hqr.compose") - seconds("dag.build")
    )

    if prof_ctx is not None:
        buf = io.StringIO()
        stats = pstats.Stats(prof_ctx, stream=buf)
        stats.sort_stats("cumulative").print_stats(top)
        report["cprofile_top"] = _parse_pstats(buf.getvalue(), top)
        report["cprofile_text"] = buf.getvalue()
    return report


def _parse_pstats(text: str, top: int) -> list[dict]:
    """Extract (cumtime, ncalls, function) rows from pstats output."""
    rows = []
    in_table = False
    for line in text.splitlines():
        if line.lstrip().startswith("ncalls"):
            in_table = True
            continue
        if not in_table or not line.strip():
            continue
        parts = line.split(None, 5)
        if len(parts) < 6:
            continue
        try:
            cumtime = float(parts[3])
        except ValueError:
            continue
        rows.append(
            {"ncalls": parts[0], "cumtime_s": cumtime, "function": parts[5]}
        )
        if len(rows) >= top:
            break
    return rows


def format_profile(report: dict) -> str:
    """Human-readable rendering of a :func:`profile_run` report."""
    lines = [
        f"harness self-profile  (m={report['m']}, n={report['n']}, "
        f"{report['points']} sweep points, {report['config']})",
        f"  serial pass: {report['serial_wall_s']:.3f}s wall",
    ]
    for name, st in report["stages"].items():
        lines.append(
            f"    {name:>14}: {st['seconds']:8.3f}s  ({st['calls']} calls)"
        )
    lines.append(
        f"  cache overhead (graph - hqr.compose - dag.build): "
        f"{report['cache_overhead_s']:.3f}s"
    )
    dispatch = report.get("dispatch")
    if dispatch is not None and dispatch["total_s"] > 0:
        lines.append(
            f"  sweep dispatch: {dispatch['total_s']:.3f}s "
            f"(setup {dispatch['setup_s']:.3f}s, "
            f"pack {dispatch['pack_s']:.3f}s, "
            f"compute {dispatch['compute_s']:.3f}s)"
        )
    for row in report.get("cprofile_top", [])[:10]:
        lines.append(
            f"    {row['cumtime_s']:8.3f}s cum  {row['ncalls']:>10}  "
            f"{row['function']}"
        )
    return "\n".join(lines)
