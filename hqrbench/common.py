"""Shared plumbing of the HQR planning benchmark.

Everything here is program-agnostic: where the checkout's sources and
scratch space live, the refusal checks that keep a run from measuring
a different program, order statistics, peak-RSS probes, set-up timing
of fresh processes, and the in-memory span log of traced runs.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: checkout root (the benchmark lives in ``<root>/hqrbench``)
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: everything the benchmark writes goes under here (git-ignored)
WORK = ROOT / ".bench_build" / "hqrbench"
#: shared cache root: holds the compiled native core, reused by every run
SHARED_CACHE = WORK / "cache"

#: closed-loop client threads and daemon planning workers
CLIENTS = 2
WORKERS = 2
#: fresh processes started per run to time set-up (median reported)
SETUP_REPEATS = 5

#: environment knobs that would make the program under test a different
#: program; pinned (or dropped) for this process and every child.  The
#: batched simulation gets one OpenMP thread: on a shared 2-CPU host two
#: threads made sweep passes slower on median and twice as variable.
_PINNED_ENV = {"REPRO_BENCH_SCALE": "default", "REPRO_SIM_THREADS": "1"}
_DROPPED_ENV = ("REPRO_CACHE_SLOTS", "REPRO_CACHE_MMAP", "REPRO_BENCH_BATCH")


class BenchError(RuntimeError):
    """The run cannot produce trustworthy numbers; no result is printed."""


def log(msg: str) -> None:
    print(f"[hqrbench] {msg}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------- #
# environment
# --------------------------------------------------------------------- #
def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def prepare_environment() -> None:
    """Point imports at the checkout's sources and caches at ``WORK``.

    Must run before the first ``import repro``.  Raises
    :class:`BenchError` when the checkout has no sources to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC}/repro")
    SHARED_CACHE.mkdir(parents=True, exist_ok=True)
    os.environ.update(_PINNED_ENV)
    for key in _DROPPED_ENV:
        os.environ.pop(key, None)
    os.environ["REPRO_CACHE_DIR"] = str(SHARED_CACHE)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    sys.path.insert(0, str(SRC))


def refuse_foreign_program() -> dict:
    """Refuse configurations that would measure a different program.

    Returns the provenance stamped on every result: CPU count, native
    core and OpenMP availability, thread counts, git SHA, Python.
    """
    import repro
    from repro._ccore import native_available, openmp_available

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    core = os.environ.get("REPRO_SIM_CORE", "auto").lower()
    if core not in ("auto", "c"):
        raise BenchError(f"REPRO_SIM_CORE={core} selects a non-native core")
    if not native_available():
        raise BenchError("native C core unavailable (no compiler?)")
    cpus = nproc()
    threads = {"clients": CLIENTS, "daemon_workers": WORKERS}
    for var in ("REPRO_SIM_THREADS", "OMP_NUM_THREADS"):
        raw = os.environ.get(var)
        if raw:
            try:
                threads[var] = int(raw.split(",")[0])
            except ValueError:
                raise BenchError(f"{var}={raw!r} is not an integer") from None
    over = {k: v for k, v in threads.items() if v > cpus}
    if over:
        raise BenchError(f"thread counts {over} exceed nproc={cpus}")
    return {
        "nproc": cpus,
        "native_core": True,
        "openmp": openmp_available(),
        "threads": threads,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_dir(tag: str) -> Path:
    """A fresh per-run scratch directory under ``WORK`` (caller deletes)."""
    path = WORK / f"run-{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def fresh_cache_dir(path: Path) -> Path:
    """An empty repro cache root that reuses the compiled native core."""
    (path / "ccore").mkdir(parents=True)
    for lib in (SHARED_CACHE / "ccore").glob("*.so"):
        shutil.copy2(lib, path / "ccore" / lib.name)
    return path


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """``(value, percentile)`` of the latency tail.

    p99 when at least ten samples lie beyond it; otherwise the highest
    percentile that still has ten beyond it, and the maximum when there
    are fewer than eleven samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    idx = min(math.ceil(0.99 * n) - 1, n - 11) if n >= 11 else n - 1
    return float(ordered[idx]), 100.0 * (idx + 1) / n


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def dir_mb(path: Path) -> float:
    if not path.exists():
        return 0.0
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 2**20


def time_fresh_interpreter(code: str, ready: str = "ready") -> float:
    """Seconds from spawning ``python -c code`` until it prints ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True
    )
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        code_ = proc.wait(timeout=60)
    if line != ready or code_ != 0:
        raise BenchError(f"set-up probe failed (exit {code_}, said {line!r})")
    return elapsed


# --------------------------------------------------------------------- #
# tracing (traced runs only)
# --------------------------------------------------------------------- #
class SpanLog:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``(id, parent, name, start, end, attrs)``; spans of one
    operation (a sweep pass, a request) share the root span as ancestor.
    Written out once, when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()  # client threads share one log

    def add(self, name: str, start: float, end: float | None,
            parent: int | None = None, **attrs) -> int:
        """Record a span; ``end=None`` opens one for :meth:`close`."""
        with self._lock:
            sid = len(self.spans)
            self.spans.append({
                "id": sid, "parent": parent, "name": name,
                "start": start, "end": end, "attrs": attrs,
            })
        return sid

    def close(self, sid: int, end: float) -> None:
        self.spans[sid]["end"] = end

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def write(self, workload: str) -> Path:
        out = WORK / "traces" / f"{workload}.jsonl"
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")
        return out


def overhead(untraced: list[float], traced: list[float]) -> dict:
    """Traced minus untraced median operation latency (ms and ratio)."""
    if not untraced or not traced:
        raise BenchError("traced run needs traced and untraced samples")
    base = median(untraced)
    diff = median(traced) - base
    return {"trace.overhead_ms": diff * 1e3, "trace.overhead_ratio": diff / base}
