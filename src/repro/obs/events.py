"""Pluggable event instrumentation for the simulation engines.

One process-wide :class:`Recorder` slot; engines fetch it once per run
(:func:`active`) and emit events only when it is non-``None``.  The
disabled path is a single ``None`` check per run, so instrumentation is
bitwise-neutral — no arithmetic or scheduling decision differs — and
costs well under 5% of engine wall time (asserted by
``tests/obs/test_events.py``).

Event families (each a bounded in-memory buffer on the recorder):

``tasks``   ``(task_id, node, start, end)`` — one span per executed task
``comms``   ``(producer, src, dst, depart, arrival, nbytes)`` per message
``queue``   ``(time, node, depth)`` — ready-queue depth after each change
``faults``  dicts from the resilience loop (crash/recovery/drop/slowdown)
``cache``   ``(event, key)`` — compiled-graph cache hits and misses
``spans``   closed :func:`repro.obs.tracing.span` blocks (``simulate``
            per engine dispatch, ``graph``/``hqr.compose``/``dag.build``
            per graph, …); :meth:`Recorder.totals` sums them per name
``notes``   free-form dicts (native-core builds, …)

The first three families are the event loop's *schedule record*, which
the C and the Python loop write alike; :meth:`Recorder.ingest` takes one
run's record into the bounded buffers.  Recording *levels*: ``"tasks"``
(default) captures everything — the core writes the schedule record for
the recorder; ``"summary"`` skips the tasks/comms/queue families.
Neither level changes which inner loop runs, and the recorded results
never depend on the level.

Usage::

    from repro.obs import recording

    with recording() as rec:
        sim.run(graph)
    print(len(rec.tasks), "task spans,", len(rec.comms), "messages")
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = [
    "Recorder",
    "active",
    "install",
    "recording",
    "uninstall",
]

#: recording levels, in increasing detail
LEVELS = ("summary", "tasks")


class Recorder:
    """In-memory event sink with bounded buffers.

    ``max_events`` caps each buffer independently; overflow increments
    ``dropped`` instead of growing without bound (paper-scale graphs
    reach millions of tasks).
    """

    __slots__ = (
        "level",
        "max_events",
        "tasks",
        "comms",
        "queue",
        "faults",
        "cache",
        "spans",
        "notes",
        "dropped_events",
    )

    def __init__(self, level: str = "tasks", max_events: int = 2_000_000):
        if level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
        self.level = level
        self.max_events = max_events
        self.tasks: list[tuple[int, int, float, float]] = []
        self.comms: list[tuple[int, int, int, float, float, int]] = []
        self.queue: list[tuple[float, int, int]] = []
        self.faults: list[dict] = []
        self.cache: list[tuple[str, str]] = []
        self.spans: list = []  # closed repro.obs.tracing.Span objects
        self.notes: list[dict] = []
        #: events dropped on overflow, by family — buffer pressure is
        #: attributable (exported as ...dropped_events_total{family=...})
        self.dropped_events: dict[str, int] = {
            "tasks": 0, "comms": 0, "queue": 0, "faults": 0, "cache": 0,
            "spans": 0,
        }

    # -- emission (engines call these behind a ``rec is not None`` guard) --
    def ingest(
        self, tasks: list, messages: list, queue: list, nbytes: int
    ) -> None:
        """Take one run's schedule record: ``(task, node, start, end)``
        intervals, ``(producer, src, dst, depart, arrival)`` messages of
        ``nbytes`` each, and ``(time, node, depth)`` queue changes."""
        self._admit("tasks", tasks)
        self._admit("comms", [(*msg, nbytes) for msg in messages])
        self._admit("queue", queue)

    def fault(self, event: dict) -> None:
        self._admit("faults", [event])

    def cache_event(self, event: str, key: str) -> None:
        """``event`` ∈ hit-memory / hit-disk / miss / store."""
        self._admit("cache", [(event, key)])

    def span(self, sp) -> None:
        """One closed :class:`~repro.obs.tracing.Span`."""
        self._admit("spans", [sp])

    def _admit(self, family: str, events: list) -> None:
        """Append the head of ``events`` that fits the family's buffer
        and count the rest as dropped."""
        buf = getattr(self, family)
        room = max(0, self.max_events - len(buf))
        if len(events) > room:
            self.dropped_events[family] += len(events) - room
            events = events[:room]
        buf.extend(events)

    def note(self, kind: str, **info) -> None:
        info["kind"] = kind
        self.notes.append(info)

    # -- convenience -------------------------------------------------- #
    @property
    def dropped(self) -> int:
        """Total dropped events across every family."""
        return sum(self.dropped_events.values())

    def cache_counts(self) -> dict[str, int]:
        """Cache event totals by kind (hit-memory/hit-disk/miss/store)."""
        out: dict[str, int] = {}
        for event, _ in self.cache:
            out[event] = out.get(event, 0) + 1
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Wall seconds and call count per span name, sorted by name."""
        out: dict[str, dict[str, float]] = {}
        for sp in self.spans:
            entry = out.setdefault(sp.name, {"seconds": 0.0, "calls": 0})
            entry["seconds"] += sp.duration
            entry["calls"] += 1
        return dict(sorted(out.items()))


_recorder: Recorder | None = None


def active() -> Recorder | None:
    """The installed recorder, or None (the no-op fast path)."""
    return _recorder


def install(rec: Recorder) -> Recorder:
    """Install ``rec`` as the process-wide recorder (replaces any)."""
    global _recorder
    _recorder = rec
    return rec


def uninstall() -> None:
    """Remove the installed recorder (back to the no-op fast path)."""
    global _recorder
    _recorder = None


@contextmanager
def recording(level: str = "tasks", max_events: int = 2_000_000):
    """Context manager: install a fresh recorder, yield it, restore.

    Nested blocks stack: the inner recorder receives every event until
    it exits, then the enclosing block's recorder is back in the slot.
    """
    global _recorder
    prev = _recorder
    rec = install(Recorder(level=level, max_events=max_events))
    try:
        yield rec
    finally:
        _recorder = prev
