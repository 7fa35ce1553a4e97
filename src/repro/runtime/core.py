"""The unified event-loop core — every simulator engine's single source.

Historically the repo carried four bitwise-equivalent copies of the
cluster event loop (reference, compiled-python, compiled-C, resilient);
every scheduling invariant had to be maintained in each copy, and every
recent divergence bug was a cross-copy drift.  This module states the
loop **once**, parameterized by capability flags:

* **inner loop** — the native C core (:mod:`repro._ccore`) or the
  pure-Python loop below, selected by ``REPRO_SIM_CORE`` / the ``core``
  argument and compiler availability; only fault hooks (Python
  callbacks) need the Python loop;
* **accelerator pool** — ``accelerators`` devices per node run the
  offloadable (update) kernels at their own per-kind rate: a second
  per-node ready heap, updates prefer an idle device, a freed core takes
  a CPU-only task first and then steals an update, a freed device takes
  only updates (the §VI future-work platform);
* **schedule record** — under ``record_trace=True`` or a ``tasks``-level
  :mod:`repro.obs` recorder, either loop writes task intervals in launch
  order, messages in send order and ready-queue depth changes (the
  Python loop into lists, the C loop into caller-owned arrays).  It
  becomes the task / comm trace read by gantt and the verify oracle,
  and the recorder ingests it;
* **observability** — each non-empty :func:`run_core` and each fused C
  batch is one ``simulate`` span (:func:`repro.obs.tracing.span`, with
  an ``engine`` attribute), which reaches the attached request trace
  and the installed recorder alike.  Recording sites are pure appends
  behind ``None`` checks, so the schedule and every float are identical
  with or without a listener;
* **fault hooks** — a :class:`FaultHooks` bundle (schedule + replan
  callback) turns on the failure-aware branch: per-edge satisfaction,
  generation counters, lineage-cone recovery, message drops.  With an
  *empty* schedule the fault branch is bit-identical to the fault-free
  branch (asserted by ``tests/runtime/test_core_equivalence.py``).

Event encoding is uniform across all modes: heap entries are
``(time, code, gen)`` where ``code = task`` for a finish on a core,
``ntasks + task`` for a finish on an accelerator, ``2*ntasks + task``
for a data arrival, and ``3*ntasks + i`` for crash ``i``.  At equal
times this orders core finishes before accelerator finishes before
arrivals before crashes and each kind by task id — exactly the total
order of the historical per-engine encodings, so the unification is
bitwise-neutral (proven against golden fixtures captured from the
pre-refactor engines; see :mod:`repro.runtime.golden`).

Ready queues hold dense priority *ranks*: the rank permutation sorts
``(priority, task id)``, so rank order reproduces the reference
scheduler's tie-breaking exactly, and ``prio=None`` (program order)
makes ranks the identity.

Front ends (:mod:`repro.runtime.simulator`, :mod:`repro.runtime.
compiled`, :mod:`repro.resilience.simulate`) are thin adapters over
:func:`run_core` and :func:`run_core_batch`.
"""

from __future__ import annotations

import ctypes
import heapq
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import _ccore
from repro.dag.compiled import CompiledGraph
from repro.obs.events import active as _obs_active
from repro.obs.tracing import span
from repro.runtime.machine import Machine
from repro.runtime.simulator import SimulationResult, qr_flops

__all__ = [
    "CoreOutcome",
    "FaultHooks",
    "FaultOutcome",
    "core_mode",
    "priority_ranks",
    "run_core",
    "run_core_batch",
    "sim_threads",
]


# --------------------------------------------------------------------- #
# engine selection
# --------------------------------------------------------------------- #
def core_mode() -> str:
    """Engine selection from ``REPRO_SIM_CORE`` (auto/c/python)."""
    mode = os.environ.get("REPRO_SIM_CORE", "auto").lower()
    if mode not in ("auto", "c", "python"):
        raise ValueError(
            f"REPRO_SIM_CORE must be auto/c/python, got {mode!r}"
        )
    return mode


def sim_threads() -> int:
    """OpenMP thread count for batched dispatch (``REPRO_SIM_THREADS``).

    0 (the default) lets the OpenMP runtime pick; the result only affects
    wall time — batch points are independent, so any thread count is
    bit-identical.
    """
    env = os.environ.get("REPRO_SIM_THREADS")
    if not env:
        return 0
    try:
        return max(0, int(env))
    except ValueError:
        raise ValueError(
            f"REPRO_SIM_THREADS must be an integer, got {env!r}"
        ) from None


def priority_ranks(prio, ntasks: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense rank permutation of a priority vector.

    Returns ``(rank, task_of_rank)`` with ``rank[t]`` unique and ordered
    exactly like the reference scheduler's ``(prio[t], t)`` keys; ``None``
    means program order (identity).
    """
    if prio is None:
        ident = np.arange(ntasks, dtype=np.int32)
        return ident, ident
    arr = None
    try:
        cand = np.asarray(prio)
        if cand.shape == (ntasks,) and cand.dtype.kind in "iuf":
            arr = cand
    except (ValueError, TypeError):  # ragged / non-numeric priorities
        arr = None
    if arr is not None:
        order = np.lexsort((np.arange(ntasks), arr)).astype(np.int32)
    else:
        order = np.array(
            sorted(range(ntasks), key=lambda t: (prio[t], t)), dtype=np.int32
        )
    rank = np.empty(ntasks, dtype=np.int32)
    rank[order] = np.arange(ntasks, dtype=np.int32)
    return rank, order


def _pick_engine(core: str | None):
    """Resolve the engine: returns the C library or None for Python."""
    mode = core or core_mode()
    if mode == "python":
        return None
    lib = _ccore.get_lib()
    if mode == "c" and lib is None:
        raise RuntimeError(
            "REPRO_SIM_CORE=c but the native core is unavailable "
            "(no C compiler found)"
        )
    return lib


def _ptr(arr: np.ndarray, typ):
    return arr.ctypes.data_as(ctypes.POINTER(typ))


# --------------------------------------------------------------------- #
# capability-flag bundles
# --------------------------------------------------------------------- #
@dataclass
class FaultHooks:
    """Fault-injection capability: a schedule plus a re-planning callback.

    ``replan(dead)`` returns the post-crash node of *every* task given
    the set of dead nodes (only tasks currently placed on dead nodes are
    moved).  ``fault_events`` is appended to in injection order; the
    front end sorts/publishes it.
    """

    schedule: object
    replan: Callable[[set], list]
    fault_events: list = field(default_factory=list)


@dataclass
class FaultOutcome:
    """Recovery accounting produced by a fault-hooked run."""

    executions: int = 0  # total task executions (>= ntasks under crashes)
    aborted: int = 0
    wasted: float = 0.0
    refetches: int = 0
    dropped: int = 0
    retransmits: int = 0
    dead: tuple = ()
    fault_events: list = field(default_factory=list)


@dataclass
class CoreOutcome:
    """What one :func:`run_core` invocation produced."""

    result: SimulationResult
    fault: FaultOutcome | None = None
    engine: str = "python"  # inner loop actually used ("c" or "python")


def _machine_params(machine: Machine, b: int):
    """Flattened link/topology parameters shared by every loop mode."""
    tile_bytes = machine.tile_bytes(b)
    hierarchical = machine.site_size > 0
    inf = float("inf")
    bwt_intra = tile_bytes / machine.bandwidth if machine.bandwidth != inf else 0.0
    bwt_inter = (
        tile_bytes / machine.inter_site_bandwidth if hierarchical else 0.0
    )
    if hierarchical:
        site = (np.arange(machine.nodes) // machine.site_size).tolist()
    else:
        site = [0] * machine.nodes
    return (
        machine.nodes,
        machine.cores_per_node,
        machine.comm_serialized,
        hierarchical,
        machine.latency,
        bwt_intra,
        machine.inter_site_latency,
        bwt_inter,
        site,
    )


# --------------------------------------------------------------------- #
# the single Python event loop
# --------------------------------------------------------------------- #
def _py_loop(
    ntasks, nnodes, cores_per_node, dur, node, waiting,
    sp, si, slot_of, nslots, rank, task_of_rank,
    serialized, hierarchical, lat_intra, bwt_intra, lat_inter, bwt_inter, site,
    data_reuse,
    *,
    accs=0,
    acc_dur=None,
    record=False,
    fault: FaultHooks | None = None,
    pred_ptr=None,
    pred_idx=None,
):
    """The unified cluster event loop (pure-Python inner loop).

    One body serves every capability combination; each per-mode branch
    states an invariant exactly once.  All inputs are plain lists/ints so
    the hot loop never touches numpy.  ``accs > 0`` turns on the
    accelerator pool: ``acc_dur[t]`` is t's device seconds, negative for
    a CPU-only kernel.  ``record=True`` writes the schedule record: task
    intervals, messages and (fault-free) ready-queue depth changes.
    Returns ``(finish_time, busy, messages, record, fault_out)`` with
    ``record = (tasks, messages, queue)`` lists, or None.
    """
    faulty = fault is not None
    pooled = accs > 0
    push, pop = heapq.heappush, heapq.heappop

    data_ready = [0.0] * ntasks
    free_cores = [cores_per_node] * nnodes
    ready = [[] for _ in range(nnodes)]
    chan_free = [0.0] * nnodes
    slot_arrival = [-1.0] * nslots
    state = bytearray(ntasks)  # 0 new, 1 queued, 2 launched
    events: list[tuple[float, int, int]] = []
    two_n = 2 * ntasks
    busy = 0.0
    finish_time = 0.0
    messages = 0

    trace = [] if record else None
    comm = [] if record else None
    queue = [] if record else None
    # a crash rebuilds the ready queues wholesale: depth is fault-free only
    queued = [0] * nnodes if (record and not faulty) else None

    if faulty:
        schedule = fault.schedule
        replan = fault.replan
        fault_events = fault.fault_events
        sent: dict[tuple[int, int], float] = {}  # (producer, dest) -> arrival
        sat: set[tuple[int, int]] = set()  # satisfied (producer, consumer)
        finished = bytearray(ntasks)
        exec_node = [-1] * ntasks  # node that ran the last finished execution
        gen = [0] * ntasks  # invalidates stale finish/arrival events
        start_of = [0.0] * ntasks
        cur_dur = [0.0] * ntasks
        dead: set[int] = set()
        pp, pi = pred_ptr, pred_idx
        refetches = dropped = retransmits = 0
        executions = aborted = 0
        msg_index = 0
        wasted = 0.0

    def link_params(src: int, dst: int) -> tuple[float, float]:
        if hierarchical and site[src] != site[dst]:
            return lat_inter, bwt_inter
        return lat_intra, bwt_intra

    def send(src: int, dst: int, now: float, producer: int) -> tuple:
        """Ship one tile src -> dst ready at ``now``: (depart, arrival)."""
        nonlocal messages
        lat, bwt = link_params(src, dst)
        depart = now
        if serialized:
            # the transfer holds both endpoints' single communication
            # channel for its bandwidth term
            if chan_free[src] > depart:
                depart = chan_free[src]
            if chan_free[dst] > depart:
                depart = chan_free[dst]
            chan_free[src] = depart + bwt
            chan_free[dst] = depart + bwt
        arrival = depart + lat + bwt
        messages += 1
        if comm is not None:
            comm.append((producer, src, dst, depart, arrival))
        return depart, arrival

    def try_start(t: int, now: float) -> None:
        nd = node[t]
        dr = data_ready[t]
        start = dr if dr > now else now
        if free_cores[nd] > 0:
            free_cores[nd] -= 1
            launch(t, start)
        else:
            state[t] = 1
            push(ready[nd], rank[t])
            if queued is not None:
                queued[nd] += 1
                queue.append((now, nd, queued[nd]))

    if faulty:

        def launch(t: int, start: float) -> None:
            nonlocal busy
            state[t] = 2
            d = dur[t] * schedule.slowdown_factor(node[t], start)
            start_of[t] = start
            cur_dur[t] = d
            # account busy at launch, in launch order — the same summation
            # order as the fault-free branch, so an empty schedule stays
            # bit-identical; aborts subtract the full duration back out
            busy += d
            push(events, (start + d, t, gen[t]))

        def transfer(src: int, dst: int, now: float, producer: int) -> float:
            """Arrival time of one tile src -> dst, which may be dropped."""
            nonlocal messages, dropped, retransmits, msg_index
            depart, arrival = send(src, dst, now, producer)
            idx = msg_index
            msg_index += 1
            if schedule.drops_message(idx):
                # lost on the wire: NACK after the timeout, send again
                lat, bwt = link_params(src, dst)
                dropped += 1
                retransmits += 1
                messages += 1
                arrival += schedule.retransmit_timeout + lat + bwt
                fault_events.append(
                    {"type": "drop", "time": depart, "src": src, "dst": dst}
                )
            return arrival

        def handle_crash(n: int, tc: float) -> None:
            """Abort, compute the recovery cone, re-plan, and rebuild."""
            nonlocal aborted, busy, wasted, refetches, messages
            dead.add(n)
            recovery = tc + schedule.detection_latency
            fault_events.append({"type": "crash", "time": tc, "node": n})

            n_aborted = 0
            for t in range(ntasks):
                if state[t] == 2 and not finished[t] and node[t] == n:
                    state[t] = 0
                    gen[t] += 1
                    busy -= cur_dur[t]  # aborted work is wasted, not busy
                    wasted += tc - start_of[t]
                    n_aborted += 1
            aborted += n_aborted

            # re-plan every pending task off the dead nodes
            targets = replan(dead)
            touched = set()  # tasks that may not restart before detection
            for t in range(ntasks):
                if not finished[t] and node[t] in dead:
                    node[t] = targets[t]
                    touched.add(t)

            # deliveries to dead nodes and transfers in flight from a dead
            # sender are lost
            for key in [
                k
                for k, a in sent.items()
                if k[1] in dead or (a > tc and exec_node[k[0]] in dead)
            ]:
                del sent[key]
            # surviving replica locations: node the producer ran on (if
            # alive) plus every alive node a copy had arrived at by tc
            replicas: dict[int, int] = {}
            for (p, d2), a in sent.items():
                if a <= tc and (p not in replicas or d2 < replicas[p]):
                    replicas[p] = d2
            for p in range(ntasks):
                if finished[p] and exec_node[p] not in dead:
                    replicas[p] = exec_node[p]

            # recovery cone: lost outputs transitively needed by pending
            # work — the DAG is the unit of re-execution
            n_redo = 0
            stack = [t for t in range(ntasks) if not finished[t]]
            while stack:
                t = stack.pop()
                for j in range(pp[t], pp[t + 1]):
                    p = pi[j]
                    if finished[p] and p not in replicas:
                        finished[p] = 0
                        state[p] = 0
                        gen[p] += 1
                        n_redo += 1
                        touched.add(p)
                        if node[p] in dead:
                            node[p] = targets[p]
                        stack.append(p)
            fault_events.append(
                {
                    "type": "recovery",
                    "time": recovery,
                    "node": n,
                    "reexecuted": n_redo,
                    "aborted": n_aborted,
                }
            )

            # rebuild scheduler state: per-edge satisfaction, data arrival
            # floors, ready queues, core counts
            for heap in ready:
                heap.clear()
            for nd in range(nnodes):
                if nd in dead:
                    free_cores[nd] = 0
                else:
                    running = sum(
                        1
                        for t in range(ntasks)
                        if state[t] == 2
                        and not finished[t]
                        and node[t] == nd
                    )
                    free_cores[nd] = cores_per_node - running
            seeds = []
            for t in range(ntasks):
                if finished[t] or state[t] == 2:
                    continue
                state[t] = 0
                w = 0
                dr = recovery if t in touched else 0.0
                for j in range(pp[t], pp[t + 1]):
                    p = pi[j]
                    if not finished[p]:
                        sat.discard((p, t))
                        w += 1
                        continue
                    dst = node[t]
                    if exec_node[p] == dst:
                        sat.add((p, t))
                        continue
                    a = sent.get((p, dst))
                    if a is None:
                        # re-fetch from a surviving replica after detection
                        lat, bwt = link_params(replicas[p], dst)
                        a = recovery + lat + bwt
                        sent[(p, dst)] = a
                        refetches += 1
                        messages += 1
                        if comm is not None:
                            comm.append((p, replicas[p], dst, recovery, a))
                    sat.add((p, t))
                    if a > dr:
                        dr = a
                waiting[t] = w
                data_ready[t] = dr
                if w == 0:
                    seeds.append(t)
            for t in seeds:
                if data_ready[t] <= tc:
                    try_start(t, tc)
                else:
                    push(events, (data_ready[t], two_n + t, gen[t]))

    elif pooled:
        free_accs = [accs] * nnodes
        acc_ready = [[] for _ in range(nnodes)]  # offloadable tasks

        def launch(t: int, start: float, on_acc: bool = False) -> None:
            nonlocal busy, finish_time
            state[t] = 2
            d = acc_dur[t] if on_acc else dur[t]
            end = start + d
            busy += d
            if end > finish_time:
                finish_time = end
            push(events, (end, ntasks + t if on_acc else t, 0))
            if trace is not None:
                trace.append((t, node[t], start, end))

        # the pool's own try_start replaces the shared one
        def try_start(t: int, now: float) -> None:  # noqa: F811
            nd = node[t]
            dr = data_ready[t]
            start = dr if dr > now else now
            offload = acc_dur[t] >= 0.0
            # updates prefer an idle accelerator (they run faster there)
            if offload and free_accs[nd] > 0:
                free_accs[nd] -= 1
                launch(t, start, True)
            elif free_cores[nd] > 0:
                free_cores[nd] -= 1
                launch(t, start)
            else:
                state[t] = 1
                push(acc_ready[nd] if offload else ready[nd], rank[t])
                if queued is not None:
                    queued[nd] += 1
                    queue.append((now, nd, queued[nd]))

        def pop_ready(heap) -> int:
            while heap:
                cand = task_of_rank[pop(heap)]
                if state[cand] == 1:
                    return cand
            return -1

        def release(code: int, now: float) -> int:
            """Hand the unit freed by finish ``code`` its next task;
            returns the finished task."""
            if code >= ntasks:
                # accelerator freed: only offloadable tasks may take it
                t = code - ntasks
                nd = node[t]
                nxt = pop_ready(acc_ready[nd])
                on_acc = True
                if nxt < 0:
                    free_accs[nd] += 1
            else:
                # core freed: a CPU-only task first, else steal an update
                t = code
                nd = node[t]
                nxt = pop_ready(ready[nd])
                if nxt < 0:
                    nxt = pop_ready(acc_ready[nd])
                on_acc = False
                if nxt < 0:
                    free_cores[nd] += 1
            if nxt >= 0:
                if queued is not None:
                    queued[nd] -= 1
                    queue.append((now, nd, queued[nd]))
                launch(nxt, now, on_acc)
            return t

    else:

        def launch(t: int, start: float) -> None:
            nonlocal busy, finish_time
            state[t] = 2
            d = dur[t]
            end = start + d
            busy += d
            if end > finish_time:
                finish_time = end
            push(events, (end, t, 0))
            if trace is not None:
                trace.append((t, node[t], start, end))

    # seed roots (and, under fault hooks, the crash events)
    for t in range(ntasks):
        if waiting[t] == 0:
            try_start(t, 0.0)
    three_n = 3 * ntasks
    if faulty:
        for ci, c in enumerate(schedule.crashes):
            push(events, (c.time, three_n + ci, 0))

    while events:
        now, code, g = pop(events)
        if code >= two_n:
            if code >= three_n:  # crash event (fault hooks only)
                handle_crash(schedule.crashes[code - three_n].node, now)
                continue
            a = code - two_n
            if faulty:
                # gated: a crash may have invalidated this arrival
                if gen[a] == g and state[a] == 0 and waiting[a] == 0:
                    try_start(a, now)
            else:
                try_start(a, now)
            continue
        # task finish
        if pooled:
            # the freed core or accelerator picks its next task
            t = release(code, now)
            nd = node[t]
        else:
            t = code
            nd = node[t]
            if faulty:
                if gen[t] != g:  # aborted execution
                    continue
                finished[t] = 1
                exec_node[t] = nd
                executions += 1
                if now > finish_time:
                    finish_time = now
                if trace is not None:
                    trace.append((t, nd, start_of[t], now))
            # the freed core picks its next task
            nxt = -1
            if data_reuse:
                # DAGuE heuristic: prefer a ready successor of the task
                # that just finished — its data is still hot
                best = -1
                for i in range(sp[t], sp[t + 1]):
                    s = si[i]
                    if (
                        state[s] == 1
                        and node[s] == nd
                        and data_ready[s] <= now
                        and (best < 0 or rank[s] < rank[best])
                    ):
                        best = s
                nxt = best
            if nxt < 0:
                heap = ready[nd]
                while heap:
                    cand = task_of_rank[pop(heap)]
                    if state[cand] == 1:
                        nxt = cand
                        break
            if nxt >= 0:
                if queued is not None:
                    queued[nd] -= 1
                    queue.append((now, nd, queued[nd]))
                dr = data_ready[nxt]
                launch(nxt, dr if dr > now else now)
            else:
                free_cores[nd] += 1
        # propagate data to successors
        for i in range(sp[t], sp[t + 1]):
            s = si[i]
            if faulty:
                # per-edge satisfaction: a re-executed producer must not
                # double-release a consumer
                if finished[s] or (t, s) in sat:
                    continue
                dest = node[s]
                if dest == nd:
                    arrival = now
                else:
                    key = (t, dest)
                    arrival = sent.get(key, -1.0)
                    if arrival < 0:
                        arrival = transfer(nd, dest, now, t)
                        sent[key] = arrival
                sat.add((t, s))
            else:
                slot = slot_of[i]
                if slot < 0:
                    arrival = now
                else:
                    arrival = slot_arrival[slot]
                    if arrival < 0:
                        arrival = send(nd, node[s], now, t)[1]
                        slot_arrival[slot] = arrival
            if arrival > data_ready[s]:
                data_ready[s] = arrival
            waiting[s] -= 1
            if waiting[s] == 0:
                # do not tie up a core before the slowest input lands
                avail = data_ready[s]
                if avail <= now:
                    try_start(s, now)
                else:
                    push(
                        events,
                        (avail, two_n + s, gen[s] if faulty else 0),
                    )

    if faulty:
        if not all(finished):  # pragma: no cover - recovery bug guard
            raise RuntimeError(
                f"fault simulation stalled: "
                f"{ntasks - sum(finished)} tasks unfinished"
            )
        fault_out = FaultOutcome(
            executions=executions,
            aborted=aborted,
            wasted=wasted,
            refetches=refetches,
            dropped=dropped,
            retransmits=retransmits,
            dead=tuple(sorted(dead)),
            fault_events=fault_events,
        )
    else:
        if any(w > 0 for w in waiting):  # pragma: no cover - cycle guard
            raise RuntimeError("simulation stalled with unfinished tasks")
        fault_out = None
    return (
        finish_time, busy, messages,
        (trace, comm, queue) if record else None,
        fault_out,
    )


# --------------------------------------------------------------------- #
# native inner loop
# --------------------------------------------------------------------- #
#: entries of the C loop's record families (task, msg, queue); aligned
#: like the C structs
_RECORD_DTYPES = (
    np.dtype(
        [("task", "i4"), ("node", "i4"), ("start", "f8"), ("end", "f8")],
        align=True,
    ),
    np.dtype(
        [("producer", "i4"), ("src", "i4"), ("dst", "i4"),
         ("depart", "f8"), ("arrival", "f8")],
        align=True,
    ),
    np.dtype([("time", "f8"), ("node", "i4"), ("depth", "i4")], align=True),
)


class _CRecord:
    """Caller-owned arrays the C loop writes its schedule record into,
    sized exactly: a task launches once, a message slot is sent once,
    and a task joins and leaves a ready queue at most once."""

    def __init__(self, ntasks: int, nslots: int):
        caps = (ntasks, nslots, 2 * ntasks)
        self.arrays = [
            np.empty(max(cap, 1), dt) for cap, dt in zip(caps, _RECORD_DTYPES)
        ]
        # capacities, then the entries written
        self.counts = np.array(caps + (0, 0, 0), np.int64)
        self.args = (
            *(arr.ctypes.data for arr in self.arrays),
            _ptr(self.counts, ctypes.c_int64),
        )

    def lists(self) -> tuple[list, list, list]:
        """``(tasks, messages, queue)`` as the Python loop's tuple lists.

        The Python loop records one object per task id and end time and
        refers to it again wherever that value recurs (a later start, a
        departure, a queue change); so do these lists, which keeps a
        recorder of millions of entries as small.
        """
        task, msg, queue = (
            arr[:n] for arr, n in zip(self.arrays, self.counts[3:].tolist())
        )
        ends = task["end"].tolist()
        times = dict(zip(ends, ends))
        tids = range(len(self.arrays[0]))
        ids = dict(zip(tids, tids))

        def shared(col, objects):
            values = col.tolist()
            return list(map(objects.get, values, values))

        return (
            list(zip(shared(task["task"], ids), task["node"].tolist(),
                     shared(task["start"], times), ends)),
            list(zip(shared(msg["producer"], ids), msg["src"].tolist(),
                     msg["dst"].tolist(), shared(msg["depart"], times),
                     msg["arrival"].tolist())),
            list(zip(shared(queue["time"], times), queue["node"].tolist(),
                     queue["depth"].tolist())),
        )


# --------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------- #
def run_core(
    cg: CompiledGraph,
    machine: Machine,
    b: int,
    *,
    prio=None,
    data_reuse: bool = False,
    M: int | None = None,
    N: int | None = None,
    core: str | None = None,
    record_trace: bool = False,
    fault: FaultHooks | None = None,
    engine_label: str | None = None,
    accelerators: int = 0,
    acc_seconds=None,
) -> CoreOutcome:
    """Run one compiled graph through the unified event loop.

    Runs the native C core unless fault hooks, ``REPRO_SIM_CORE`` /
    ``core`` or a missing compiler select the bit-identical Python loop.
    Either loop writes the schedule record when ``record_trace`` is set
    (returned as ``result.trace`` / fault-free ``result.comm_trace``) or
    a ``tasks``-level recorder is active (which ingests it).  One
    ``simulate`` span (:func:`repro.obs.tracing.span`) times each
    non-empty run; ``engine_label`` overrides the Python loop's
    ``engine`` attribute (front ends keep their historical labels, e.g.
    ``reference``).

    ``accelerators > 0`` equips every node with that many devices;
    ``acc_seconds`` is then the per-kernel-kind device time, indexed like
    ``cg.dur_table``, negative for kinds that stay on the CPU.  The pool
    does not compose with fault hooks or data reuse (``ValueError``).
    """
    if accelerators > 0:
        if fault is not None:
            raise ValueError("fault hooks do not support accelerators")
        if data_reuse:
            raise ValueError("data_reuse does not support accelerators")
    M = cg.m * b if M is None else M
    N = cg.n * b if N is None else N
    ntasks = cg.ntasks
    if ntasks == 0:
        return CoreOutcome(
            result=SimulationResult(
                0.0, 0.0, 0, 0, 0.0, machine.cores,
                [] if record_trace else None,
                [] if record_trace else None,
            ),
            fault=None if fault is None else FaultOutcome(
                fault_events=fault.fault_events
            ),
        )

    rec = _obs_active()
    if rec is not None and rec.level != "tasks":
        rec = None  # a summary recorder takes the span, not the schedule
    record = record_trace or rec is not None
    lib = None if fault is not None else _pick_engine(core)
    engine = engine_label or "python"
    with span(
        "simulate", engine="c" if lib is not None else engine, ntasks=ntasks
    ) as sp:
        tile_bytes = machine.tile_bytes(b)
        dur = np.ascontiguousarray(cg.dur_table[cg.kind])
        waiting = np.ascontiguousarray(cg.pred_counts)
        rank, task_of_rank = priority_ranks(prio, ntasks)
        (
            nnodes, cores_per_node, serialized, hierarchical,
            lat_intra, bwt_intra, lat_inter, bwt_inter, site,
        ) = _machine_params(machine, b)
        site_of = np.asarray(site, dtype=np.int32)
        acc_dur = None
        if accelerators > 0:
            acc_dur = np.ascontiguousarray(
                np.asarray(acc_seconds, dtype=np.float64)[cg.kind]
            )

        out = None
        if lib is not None:
            crec = _CRecord(ntasks, cg.nslots) if record else None
            i32, i64, f64 = ctypes.c_int32, ctypes.c_int64, ctypes.c_double
            totals = (f64(), f64(), i64())  # makespan, busy, messages
            rc = lib.hqr_simulate_cluster(
                ntasks, nnodes, cores_per_node,
                _ptr(dur, f64), _ptr(cg.node, i32), _ptr(waiting, i32),
                _ptr(cg.succ_ptr, i64), _ptr(cg.succ_idx, i32),
                _ptr(cg.edge_slot, i32), cg.nslots,
                _ptr(rank, i32), _ptr(task_of_rank, i32),
                serialized, hierarchical,
                lat_intra, bwt_intra, lat_inter, bwt_inter,
                _ptr(site_of, i32), data_reuse,
                accelerators, None if acc_dur is None else _ptr(acc_dur, f64),
                *((None,) * 4 if crec is None else crec.args),
                *map(ctypes.byref, totals),
            )
            if rc == 1:  # pragma: no cover - cycle guard
                raise RuntimeError("simulation stalled with unfinished tasks")
            if rc == 2:
                raise RuntimeError("schedule record exceeded its capacity")
            if rc == 0:
                out = [v.value for v in totals]
            elif sp is not None:
                sp.attrs["engine"] = engine  # allocation failure: Python runs
        if out is not None:
            makespan, busy, messages = out
            sched = crec.lists() if record else None
            fault_out = None
        else:
            kw = {}
            if fault is not None:
                kw = dict(
                    fault=fault,
                    pred_ptr=cg.pred_ptr.tolist(),
                    pred_idx=cg.pred_idx.tolist(),
                )
            makespan, busy, messages, sched, fault_out = _py_loop(
                ntasks, nnodes, cores_per_node,
                dur.tolist(), cg.node.tolist(), waiting.tolist(),
                cg.succ_ptr.tolist(), cg.succ_idx.tolist(),
                cg.edge_slot.tolist() if fault is None else None,
                cg.nslots if fault is None else 0,
                rank.tolist(), task_of_rank.tolist(),
                serialized, hierarchical,
                lat_intra, bwt_intra, lat_inter, bwt_inter, site,
                data_reuse,
                accs=accelerators,
                acc_dur=None if acc_dur is None else acc_dur.tolist(),
                record=record,
                **kw,
            )
        if rec is not None:
            rec.ingest(*sched, nbytes=tile_bytes)
    trace = comm = None
    if record_trace:
        trace = sched[0]
        # a faulty run's sends include re-fetches and lost copies, which
        # the fault-free comm-trace contract does not describe
        comm = sched[1] if fault is None else None
    return CoreOutcome(
        result=SimulationResult(
            makespan=makespan,
            flops=qr_flops(M, N),
            messages=messages,
            bytes_sent=messages * tile_bytes,
            busy_seconds=busy,
            cores=machine.cores,
            trace=trace,
            comm_trace=comm,
        ),
        fault=fault_out,
        engine="c" if out is not None else "python",
    )


# --------------------------------------------------------------------- #
# batched dispatch
# --------------------------------------------------------------------- #
def run_core_batch(
    graphs,
    machine: Machine,
    b: int,
    *,
    prios=None,
    data_reuse: bool = False,
    core: str | None = None,
) -> list[SimulationResult]:
    """Run many compiled graphs through the cluster loop in one dispatch.

    All graphs share the machine, tile size, and data-reuse flag (one
    sweep); ``prios`` is an optional per-graph priority-vector list.  The
    C path concatenates every graph into one structure-of-arrays arena
    and makes a *single* Python->C call (``hqr_simulate_cluster_batch``),
    fanned out over points with OpenMP when the core was built with it
    (``REPRO_SIM_THREADS`` overrides the thread count).  Results are
    bit-identical to calling :func:`run_core` per graph — the C side
    runs the exact scalar loop on per-point array slices, and the
    fallback path *is* the per-graph loop.
    """
    npoints = len(graphs)
    if npoints == 0:
        return []
    if prios is None:
        prios = [None] * npoints
    if len(prios) != npoints:
        raise ValueError(
            f"prios has {len(prios)} entries for {npoints} graphs"
        )
    rec = _obs_active()
    tile_bytes = machine.tile_bytes(b)

    lib = _pick_engine(core)
    if rec is not None and rec.level == "tasks":
        # the recorder ingests each graph's schedule record, which the
        # scalar dispatch writes: the points run one by one below, still
        # in C when the core allows it
        lib = None
    # empty graphs never reach the C core: malloc(0) is allowed to return
    # NULL, which the scalar loop would misread as allocation failure
    results: list[SimulationResult | None] = [
        None if cg.ntasks
        else SimulationResult(0.0, 0.0, 0, 0, 0.0, machine.cores)
        for cg in graphs
    ]
    live = [i for i, res in enumerate(results) if res is None]

    out = None
    if lib is not None and live:
        # one span for the whole fused dispatch; the per-point fallback
        # below goes through run_core, which times each graph itself
        with span("simulate", engine="c-batch", points=len(live)):
            with span("dispatch_pack"):
                batch = _pack_batch(graphs, prios, live)
            with span("dispatch_compute"):
                out = _c_cluster_batch(lib, batch, machine, b, data_reuse)
            if out is not None:
                makespans, busys, msgs = out
                for j, i in enumerate(live):
                    cg = graphs[i]
                    results[i] = SimulationResult(
                        makespan=float(makespans[j]),
                        flops=qr_flops(cg.m * b, cg.n * b),
                        messages=int(msgs[j]),
                        bytes_sent=int(msgs[j]) * tile_bytes,
                        busy_seconds=float(busys[j]),
                        cores=machine.cores,
                        trace=None,
                    )
    if out is None and live:
        # bit-identical fallback: the scalar path per point (pure-Python
        # core, task-level recording, or a failed batch allocation)
        with span("dispatch_compute"):
            for i in live:
                results[i] = run_core(
                    graphs[i], machine, b,
                    prio=prios[i], data_reuse=data_reuse, core=core,
                ).result
    return results  # type: ignore[return-value]


def _pack_batch(graphs, prios, live) -> dict:
    """Concatenate per-point graph arrays into one batch arena."""
    live_graphs = [graphs[i] for i in live]
    ranks = [priority_ranks(prios[i], graphs[i].ntasks) for i in live]

    def offsets(sizes):
        return np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)

    def cat(field):
        return np.concatenate([getattr(cg, field) for cg in live_graphs])

    return {
        "task_off": offsets([cg.ntasks for cg in live_graphs]),
        "edge_off": offsets([len(cg.succ_idx) for cg in live_graphs]),
        "slot_off": offsets([cg.nslots for cg in live_graphs]),
        "dur_tables": cat("dur_table").astype(np.float64, copy=False),
        "kind": cat("kind"),
        "node": cat("node"),
        "waiting": cat("pred_counts"),
        "succ_ptr": cat("succ_ptr"),
        "succ_idx": cat("succ_idx"),
        "edge_slot": cat("edge_slot"),
        "rank": np.concatenate([r for r, _ in ranks]),
        "task_of_rank": np.concatenate([o for _, o in ranks]),
    }


def _c_cluster_batch(lib, batch, machine: Machine, b: int, data_reuse: bool):
    npoints = len(batch["task_off"]) - 1
    (
        nnodes, cores_per_node, serialized, hierarchical,
        lat_intra, bwt_intra, lat_inter, bwt_inter, site,
    ) = _machine_params(machine, b)
    site_of = np.asarray(site, dtype=np.int32)
    out_mk = np.zeros(npoints, dtype=np.float64)
    out_busy = np.zeros(npoints, dtype=np.float64)
    out_msgs = np.zeros(npoints, dtype=np.int64)
    out_rc = np.zeros(npoints, dtype=np.int32)
    i32, i64, f64 = ctypes.c_int32, ctypes.c_int64, ctypes.c_double
    rc = lib.hqr_simulate_cluster_batch(
        npoints, sim_threads(),
        _ptr(batch["task_off"], i64), _ptr(batch["edge_off"], i64),
        _ptr(batch["slot_off"], i64),
        nnodes, cores_per_node,
        _ptr(batch["dur_tables"], f64),
        _ptr(batch["kind"], ctypes.c_int8),
        _ptr(batch["node"], i32), _ptr(batch["waiting"], i32),
        _ptr(batch["succ_ptr"], i64), _ptr(batch["succ_idx"], i32),
        _ptr(batch["edge_slot"], i32),
        _ptr(batch["rank"], i32), _ptr(batch["task_of_rank"], i32),
        serialized, hierarchical,
        lat_intra, bwt_intra, lat_inter, bwt_inter,
        _ptr(site_of, i32), data_reuse,
        _ptr(out_mk, f64), _ptr(out_busy, f64), _ptr(out_msgs, i64),
        _ptr(out_rc, i32),
    )
    if rc != 0:
        if np.any(out_rc == 1):  # pragma: no cover - cycle guard
            raise RuntimeError("simulation stalled with unfinished tasks")
        return None  # allocation failure somewhere: retry in Python
    return out_mk, out_busy, out_msgs
