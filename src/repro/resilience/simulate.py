"""Failure-aware simulation: crashes, stragglers, and lost messages.

:class:`ResilientSimulator` extends the fault-free
:class:`~repro.runtime.simulator.ClusterSimulator` with fault injection.
With an empty :class:`~repro.resilience.faults.FaultSchedule` it
delegates to the ordinary dispatch and is bit-identical to it; with
faults attached (or ``force_fault_loop=True``) it runs the unified
core's fault branch (:func:`repro.runtime.core.run_core` with
:class:`~repro.runtime.core.FaultHooks`) — pure Python and
engine-independent, so injected events and the recovery schedule are
reproducible anywhere.  This module is the thin front end: it owns the
recovery *policy* (re-planning targets, slowdown pre-seeding, result
wrapping) while the event-loop *mechanism* lives in the core.

Crash semantics (the recovery model, documented for `docs/distributed.md`):

* at crash time ``tc`` the node stops: tasks in flight there are aborted
  (their partial work is *wasted*, not counted as busy time);
* a finished task's output is durable on the node that ran it and on
  every node a copy had arrived at by ``tc``; transfers in flight from
  the dead node are lost;
* the **recovery cone** is the transitive closure of lost outputs over
  the needs of unfinished tasks: a finished task re-executes iff no
  surviving replica of its output exists and some unfinished task still
  (transitively) needs it — the elimination DAG is the unit of
  re-execution, exactly as in lineage-based DAG runtimes;
* pending and re-executed tasks formerly placed on the dead node are
  re-planned onto the survivors — for a 2-D block-cyclic layout via the
  shrunken ``p' x q'`` grid of :func:`repro.resilience.replan.
  shrunken_grid`, otherwise via the cyclic spill remap;
* recovery cannot begin before the failure detector fires: everything
  the crash touched is gated behind ``tc + detection_latency``, and each
  re-fetch of a surviving input to a new node costs one message; healthy
  nodes keep executing unaffected work throughout.

Slowdowns multiply the duration of tasks launched on the node inside the
interval; dropped messages arrive one ``retransmit_timeout`` (plus a
second wire transmission) late.

The loop tracks dependency satisfaction per *edge* (not per task) so a
re-executed producer never double-releases a consumer; memory is O(edges),
which is fine at recovery-benchmark scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dag.graph import TaskGraph
from repro.obs.events import active as _obs_active
from repro.resilience.faults import FaultSchedule
from repro.resilience.replan import node_remap, shrunken_grid
from repro.runtime.simulator import ClusterSimulator, SimulationResult
from repro.tiles.layout import BlockCyclic2D


@dataclass
class FaultyRunResult(SimulationResult):
    """A :class:`SimulationResult` plus recovery accounting."""

    baseline_makespan: float = 0.0
    tasks_reexecuted: int = 0
    tasks_aborted: int = 0
    wasted_seconds: float = 0.0  # partial work lost to aborts
    refetch_messages: int = 0  # surviving inputs re-shipped during recovery
    messages_dropped: int = 0
    retransmits: int = 0
    crashed_nodes: tuple[int, ...] = ()
    fault_events: list[dict] = field(default_factory=list)

    @property
    def degradation(self) -> float:
        """Makespan relative to the fault-free run (1.0 = unharmed)."""
        if self.baseline_makespan <= 0:
            return 1.0
        return self.makespan / self.baseline_makespan

    @property
    def recovery_overhead(self) -> float:
        """Absolute seconds added by the injected faults."""
        return self.makespan - self.baseline_makespan


class ResilientSimulator(ClusterSimulator):
    """Cluster simulator that survives an attached fault schedule."""

    def run_with_faults(
        self,
        graph: TaskGraph,
        schedule: FaultSchedule,
        M: int | None = None,
        N: int | None = None,
        baseline_makespan: float | None = None,
        *,
        force_fault_loop: bool = False,
    ) -> FaultyRunResult:
        """Simulate under ``schedule``; empty schedules take the ordinary
        (compiled, bit-identical) path.

        ``force_fault_loop=True`` runs the fault-injecting event loop even
        for an empty schedule instead of delegating — the loop itself is
        bit-identical to the ordinary engines then, and the differential
        verifier (:mod:`repro.verify`) exercises it as a fourth engine.
        """
        if baseline_makespan is None:
            baseline_makespan = self.run(graph, M, N).makespan
        if schedule.empty and not force_fault_loop:
            res = self.run(graph, M, N)
            return FaultyRunResult(
                **res.__dict__, baseline_makespan=baseline_makespan
            )
        for c in schedule.crashes:
            if not 0 <= c.node < self.machine.nodes:
                raise ValueError(
                    f"crash node {c.node} outside machine of {self.machine.nodes}"
                )
        if len(schedule.crashes) >= self.machine.nodes:
            raise ValueError("schedule crashes every node; nothing survives")
        return self._run_faulty(graph, schedule, M, N, baseline_makespan)

    # ------------------------------------------------------------------ #
    def _replan_targets(self, graph: TaskGraph, dead: set[int]) -> list[int]:
        """Post-crash node of every task, for tasks placed on dead nodes.

        Block-cyclic layouts are re-planned on the shrunken grid; other
        layouts spill cyclically over the survivors.
        """
        nnodes = self.machine.nodes
        survivors = [n for n in range(nnodes) if n not in dead]
        layout = self.layout
        if isinstance(layout, BlockCyclic2D):
            p2, q2 = shrunken_grid(layout.p, layout.q, len(survivors))
            shrunken = BlockCyclic2D(p2, q2)
            out = []
            for t in graph.tasks:
                col = t.panel if t.col < 0 else t.col
                out.append(survivors[shrunken.owner(t.row, col)])
            return out
        remap = node_remap(nnodes, tuple(dead))
        placement = self.placement(graph)
        return [remap[n] for n in placement]

    def _run_faulty(
        self,
        graph: TaskGraph,
        schedule: FaultSchedule,
        M: int | None,
        N: int | None,
        baseline_makespan: float,
    ) -> FaultyRunResult:
        """Compile the graph and run the unified core with fault hooks.

        The failure-aware event loop itself lives in
        :func:`repro.runtime.core.run_core` (the ``fault`` capability
        branch); this front end supplies the schedule, the re-planning
        callback, and the pre-seeded slowdown events, then wraps the
        outcome in a :class:`FaultyRunResult`.
        """
        machine, b = self.machine, self.b
        M = graph.m * b if M is None else M
        N = graph.n * b if N is None else N
        ntasks = len(graph.tasks)
        fault_events: list[dict] = [
            {
                "type": "slowdown",
                "node": s.node,
                "start": s.start,
                "end": s.end,
                "factor": s.factor,
            }
            for s in schedule.slowdowns
        ]
        if ntasks == 0:
            return FaultyRunResult(
                0.0, 0.0, 0, 0, 0.0, machine.cores,
                [] if self.record_trace else None,
                baseline_makespan=baseline_makespan,
                fault_events=fault_events,
            )

        from repro.dag.compiled import compile_graph
        from repro.runtime.core import FaultHooks, run_core

        cg = compile_graph(graph, self.layout, machine, b)
        hooks = FaultHooks(
            schedule=schedule,
            replan=lambda dead: self._replan_targets(graph, dead),
            fault_events=fault_events,
        )
        out = run_core(
            cg, machine, b,
            prio=self.priority_values(graph),
            data_reuse=self.data_reuse,
            M=M, N=N,
            record_trace=self.record_trace,
            fault=hooks,
            engine_label="resilient",
        )
        res, fo = out.result, out.fault

        rec = _obs_active()
        if rec is not None:
            for ev in fault_events:
                rec.fault(ev)
        return FaultyRunResult(
            makespan=res.makespan,
            flops=res.flops,
            messages=res.messages,
            bytes_sent=res.bytes_sent,
            busy_seconds=res.busy_seconds,
            cores=res.cores,
            trace=res.trace,
            baseline_makespan=baseline_makespan,
            tasks_reexecuted=fo.executions - ntasks,
            tasks_aborted=fo.aborted,
            wasted_seconds=fo.wasted,
            refetch_messages=fo.refetches,
            messages_dropped=fo.dropped,
            retransmits=fo.retransmits,
            crashed_nodes=fo.dead,
            fault_events=sorted(
                fault_events, key=lambda e: e.get("time", e.get("start", 0.0))
            ),
        )
