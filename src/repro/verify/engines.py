"""Cross-engine execution of one verification case.

Since the engine unification (:mod:`repro.runtime.core`) every front end
funnels into a single event loop, so what used to be a four-way product
of hand-maintained loops (reference / compiled-python / compiled-C /
resilient) is now a two-way differential over the core's genuinely
distinct *implementations*:

* ``core`` — the unified loop's Python branch with trace recording on;
* ``core-c`` — the same schedule through the native C inner loop
  (present only when a system compiler is available), also traced, so
  the legality oracle checks both loops' schedules; honors
  ``case.batched`` by dispatching an untraced batch of one through the
  batched arena path, which must agree bitwise with the scalar dispatch.

The collapsed engines did not lose coverage — they lost duplication:
``reference`` and ``compiled-python`` are literally the same code path
now, and the empty-schedule fault loop (``force_fault_loop=True``) is
pinned bit-identical to the plain core by
``tests/runtime/test_core_equivalence.py`` across the whole capability
matrix, so re-running it per verify case proved nothing new.

Both paths must agree *bitwise* on makespan, message count, bytes moved,
busy seconds, and flops — :func:`result_key` extracts the compared tuple
and :func:`run_engines` executes every engine.
"""

from __future__ import annotations

from typing import Callable

from repro._ccore import native_available
from repro.dag.graph import TaskGraph
from repro.runtime.simulator import ClusterSimulator, SimulationResult

Engine = Callable[["VerifyCase", TaskGraph], SimulationResult]  # noqa: F821


def result_key(res: SimulationResult) -> tuple:
    """The bitwise-compared fields of a simulation outcome."""
    return (
        res.makespan,
        res.messages,
        res.bytes_sent,
        res.busy_seconds,
        res.flops,
        res.cores,
    )


def _simulator(case, graph, cls=ClusterSimulator, **kwargs):
    priority = None
    if case.priority is not None:
        from repro.runtime.priorities import make_priority

        priority = make_priority(case.priority, graph)
    return cls(
        case.machine(),
        case.layout(),
        case.b,
        priority=priority,
        data_reuse=case.data_reuse,
        **kwargs,
    )


def core_engine(case, graph) -> SimulationResult:
    """The core's Python branch, recording the task and comm traces."""
    return _simulator(case, graph, record_trace=True).run_reference(graph)


#: historical name of the traced baseline, kept for callers and tests
reference_engine = core_engine


def core_c_engine(case, graph) -> SimulationResult:
    """The same schedule through the native C inner loop, traced.

    ``case.batched`` routes a batch of one through the batched arena
    dispatch instead — bit-identical to the scalar call by contract,
    and untraced.
    """
    from repro.dag.compiled import compile_graph
    from repro.runtime.core import run_core, run_core_batch

    sim = _simulator(case, graph)
    cg = compile_graph(graph, sim.layout, sim.machine, case.b)
    prio = sim.priority_values(graph)
    if getattr(case, "batched", False):
        return run_core_batch(
            [cg],
            sim.machine,
            case.b,
            prios=[prio],
            data_reuse=case.data_reuse,
            core="c",
        )[0]
    return run_core(
        cg,
        sim.machine,
        case.b,
        prio=prio,
        data_reuse=case.data_reuse,
        core="c",
        record_trace=True,
    ).result


def available_engines() -> dict[str, Engine]:
    """The engine registry, in deterministic comparison order.

    ``core`` is always first (it is the divergence baseline);
    ``core-c`` is included only when the native inner loop can be
    built.
    """
    engines: dict[str, Engine] = {"core": core_engine}
    if native_available():
        engines["core-c"] = core_c_engine
    return engines


def run_engines(
    case,
    graph: TaskGraph,
    engines: dict[str, Engine] | None = None,
) -> dict[str, SimulationResult]:
    """Execute ``case`` on every engine; results keyed by engine name."""
    engines = engines if engines is not None else available_engines()
    return {name: fn(case, graph) for name, fn in engines.items()}
