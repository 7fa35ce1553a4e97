"""Compiled-graph front end over the unified event-loop core.

The event loop itself lives — stated exactly once — in
:mod:`repro.runtime.core`.  What remains here:

* :func:`simulate_compiled` / :func:`simulate_compiled_batch` — thin
  adapters that run a :class:`~repro.dag.compiled.CompiledGraph` through
  :func:`~repro.runtime.core.run_core` /
  :func:`~repro.runtime.core.run_core_batch` and return
  :class:`~repro.runtime.simulator.SimulationResult` objects (the
  historical public API, kept for callers and tests);
* back-compat re-exports of the engine-selection helpers
  (:func:`core_mode`, :func:`sim_threads`, :func:`priority_ranks`,
  ``_pick_engine``) whose canonical home is now the core.

``REPRO_SIM_CORE`` selects the inner loop: ``auto`` (default: C when
available, else Python), ``c`` or ``python``.
"""

from __future__ import annotations

from repro.dag.compiled import CompiledGraph
from repro.runtime.core import (  # noqa: F401  (re-exported API)
    _pick_engine,
    core_mode,
    priority_ranks,
    run_core,
    run_core_batch,
    sim_threads,
)
from repro.runtime.machine import Machine
from repro.runtime.simulator import SimulationResult

__all__ = [
    "core_mode",
    "priority_ranks",
    "sim_threads",
    "simulate_compiled",
    "simulate_compiled_batch",
]


# --------------------------------------------------------------------- #
# cluster loop (unified core front end)
# --------------------------------------------------------------------- #
def simulate_compiled(
    cg: CompiledGraph,
    machine: Machine,
    b: int,
    *,
    prio=None,
    data_reuse: bool = False,
    M: int | None = None,
    N: int | None = None,
    core: str | None = None,
) -> SimulationResult:
    """Run the cluster event loop on a compiled graph.

    Bit-identical to ``ClusterSimulator.run_reference`` for the same
    machine/layout/priority/data-reuse settings (without trace recording).
    """
    return run_core(
        cg, machine, b,
        prio=prio, data_reuse=data_reuse, M=M, N=N, core=core,
    ).result


def simulate_compiled_batch(
    graphs,
    machine: Machine,
    b: int,
    *,
    prios=None,
    data_reuse: bool = False,
    core: str | None = None,
) -> list[SimulationResult]:
    """Run many compiled graphs through the cluster loop in one dispatch.

    See :func:`repro.runtime.core.run_core_batch` — the C path makes a
    single Python->C call over a concatenated arena, OpenMP-fanned over
    points, and is bit-identical to per-point :func:`simulate_compiled`.
    """
    return run_core_batch(
        graphs, machine, b, prios=prios, data_reuse=data_reuse, core=core,
    )
