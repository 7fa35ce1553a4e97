"""Heterogeneous (accelerator-equipped) cluster simulation — §VI future work.

"From a more practical perspective, we could perform further experiments on
machines equipped with accelerators (such as GPUs)."  This module models
that machine: each node carries ``accelerators`` devices that execute the
GEMM-like *update* kernels (UNMQR/TSMQR/TTMQR) at an accelerator rate,
while the latency-bound factorization kernels stay on the CPU cores — the
standard split in GPU tile-QR implementations.

The scheduling itself is the unified core's accelerator-pool capability
(:func:`repro.runtime.core.run_core`): two ready queues per node (CPU-only
tasks, and update tasks that may run anywhere) and two resource pools,
with the same per-node communication channels and inter-site links as
:class:`ClusterSimulator` (host-device transfers are folded into the
accelerator rate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dag.compiled import KIND_ORDER
from repro.dag.graph import TaskGraph
from repro.kernels.weights import KernelKind, KernelRates, kernel_flops
from repro.runtime.machine import Machine
from repro.runtime.simulator import SimulationResult
from repro.tiles.layout import Layout


#: kernels eligible for accelerator execution (trailing updates)
ACC_KERNELS = (KernelKind.UNMQR, KernelKind.TSMQR, KernelKind.TTMQR)


@dataclass(frozen=True)
class AcceleratedMachine:
    """A :class:`Machine` plus per-node accelerators.

    ``acc_rates`` gives the accelerator's effective kernel rates (GFlop/s);
    the default models a Fermi-class GPU of the paper's era: ~10x a core
    on the GEMM-like updates.
    """

    base: Machine
    accelerators: int = 1
    acc_rates: KernelRates = KernelRates(peak=515.0, ts_rate=72.0, tt_rate=63.0)

    def __post_init__(self) -> None:
        if self.accelerators < 0:
            raise ValueError(f"accelerators must be >= 0, got {self.accelerators}")

    def acc_task_seconds(self, kind: KernelKind, b: int) -> float:
        """Accelerator execution time of an update kernel."""
        return kernel_flops(kind, b) / (self.acc_rates.rate(kind) * 1e9)

    def kind_seconds(self, b: int) -> np.ndarray:
        """Accelerator seconds per kernel kind (``KIND_ORDER``), -1.0 for
        the kinds that stay on the CPU — the core's ``acc_seconds``."""
        return np.array(
            [
                self.acc_task_seconds(k, b) if k in ACC_KERNELS else -1.0
                for k in KIND_ORDER
            ],
            dtype=np.float64,
        )

    def peak_gflops(self) -> float:
        """CPU + accelerator peak."""
        return self.base.peak_gflops() + (
            self.base.nodes * self.accelerators * self.acc_rates.peak
        )


class AcceleratedSimulator:
    """Event-driven simulation on an accelerator-equipped cluster."""

    def __init__(self, machine: AcceleratedMachine, layout: Layout, b: int):
        if layout.nodes > machine.base.nodes:
            raise ValueError(
                f"layout spans {layout.nodes} nodes but machine has "
                f"{machine.base.nodes}"
            )
        self.machine = machine
        self.layout = layout
        self.b = b

    def run(self, graph: TaskGraph) -> SimulationResult:
        """Simulate through the unified core's accelerator pool."""
        from repro.dag.compiled import compile_graph
        from repro.runtime.core import run_core

        acc = self.machine
        cg = compile_graph(graph, self.layout, acc.base, self.b)
        return run_core(
            cg,
            acc.base,
            self.b,
            accelerators=acc.accelerators,
            acc_seconds=acc.kind_seconds(self.b),
        ).result
