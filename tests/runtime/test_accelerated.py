"""Accelerator-equipped cluster simulation (§VI future-work extension)."""

import pytest

from repro.dag import TaskGraph
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.runtime import ClusterSimulator, Machine
from repro.runtime.accelerated import AcceleratedMachine, AcceleratedSimulator
from repro.tiles.layout import BlockCyclic2D

# the machine grid of the compiled-equivalence suite (same directory),
# including its hierarchical site_size=2 entry
from test_compiled_equivalence import MACHINES


def graph(m, n, cfg=None):
    cfg = cfg or HQRConfig(p=4, q=2, a=4, low_tree="greedy", high_tree="fibonacci")
    return TaskGraph.from_eliminations(hqr_elimination_list(m, n, cfg), m, n)


@pytest.fixture(scope="module")
def small_machine():
    return Machine(nodes=8, cores_per_node=4)


class TestAcceleratedMachine:
    def test_peak_includes_accelerators(self, small_machine):
        acc = AcceleratedMachine(base=small_machine, accelerators=2)
        cpu_only = small_machine.peak_gflops()
        assert acc.peak_gflops() == pytest.approx(cpu_only + 8 * 2 * 515.0)

    def test_rejects_negative(self, small_machine):
        with pytest.raises(ValueError):
            AcceleratedMachine(base=small_machine, accelerators=-1)

    def test_acc_updates_much_faster(self, small_machine):
        from repro.kernels.weights import KernelKind

        acc = AcceleratedMachine(base=small_machine)
        cpu = small_machine.task_seconds(KernelKind.TSMQR, 280)
        gpu = acc.acc_task_seconds(KernelKind.TSMQR, 280)
        assert gpu < cpu / 5


class TestAcceleratedSimulation:
    @pytest.mark.parametrize("machine", MACHINES)
    def test_zero_accelerators_matches_plain_simulator(self, machine):
        """With no accelerators the heterogeneous scheduler *is* the
        homogeneous one: same loop, same links, bit for bit."""
        g = graph(24, 8)
        lay = BlockCyclic2D(4, 2)
        plain = ClusterSimulator(machine, lay, 280).run(g)
        acc = AcceleratedSimulator(
            AcceleratedMachine(base=machine, accelerators=0), lay, 280
        ).run(g)
        assert acc.makespan == plain.makespan
        assert acc.busy_seconds == plain.busy_seconds
        assert acc.messages == plain.messages

    def test_accelerators_speed_up_updates(self, small_machine):
        g = graph(32, 16)
        lay = BlockCyclic2D(4, 2)
        spans = []
        for n_acc in (0, 1, 2):
            res = AcceleratedSimulator(
                AcceleratedMachine(base=small_machine, accelerators=n_acc), lay, 280
            ).run(g)
            spans.append(res.makespan)
        assert spans[1] < spans[0]
        assert spans[2] <= spans[1] * 1.001

    def test_speedup_saturates_at_panel_path(self, small_machine):
        """With updates nearly free, the makespan approaches the CPU
        factorization critical path — accelerators cannot help further."""
        from repro.models.bounds import critical_path_seconds

        g = graph(24, 8)
        lay = BlockCyclic2D(4, 2)
        res = AcceleratedSimulator(
            AcceleratedMachine(base=small_machine, accelerators=64), lay, 280
        ).run(g)
        # lower bound: CP where updates cost their accelerated time; the
        # factorization kernels alone already form a chain
        assert res.makespan > 0
        cpu_cp = critical_path_seconds(g, small_machine, 280)
        assert res.makespan < cpu_cp  # accelerating updates shortens the path

    def test_work_conservation(self, small_machine):
        """busy_seconds = sum of per-unit durations actually used."""
        g = graph(16, 8)
        lay = BlockCyclic2D(4, 2)
        res = AcceleratedSimulator(
            AcceleratedMachine(base=small_machine, accelerators=1), lay, 280
        ).run(g)
        assert res.busy_seconds > 0
        assert res.makespan <= res.busy_seconds  # parallel execution

    def test_layout_check(self, small_machine):
        with pytest.raises(ValueError):
            AcceleratedSimulator(
                AcceleratedMachine(base=small_machine), BlockCyclic2D(4, 4), 280
            )

    def test_empty_graph(self, small_machine):
        g = TaskGraph(1, 1, [], [])
        res = AcceleratedSimulator(
            AcceleratedMachine(base=small_machine), BlockCyclic2D(2, 2), 280
        ).run(g)
        assert res.makespan == 0.0

    def test_task_recording_emits_every_task(self, small_machine):
        """Task-level obs recording sees the pooled schedule task by task."""
        from repro.obs.events import recording

        g = graph(16, 8)
        sim = AcceleratedSimulator(
            AcceleratedMachine(base=small_machine, accelerators=1),
            BlockCyclic2D(4, 2),
            280,
        )
        bare = sim.run(g)
        with recording(level="tasks") as rec:
            res = sim.run(g)
        assert res.makespan == bare.makespan
        assert sorted(task for task, *_ in rec.tasks) == list(range(len(g)))
        assert len(rec.comms) == bare.messages


class TestAcceleratorPoolLimits:
    """Combinations the accelerator pool does not define are refused."""

    @staticmethod
    def _pooled(machine, **kw):
        from repro.dag.compiled import compile_graph
        from repro.runtime.core import run_core

        acc = AcceleratedMachine(base=machine, accelerators=1)
        cg = compile_graph(graph(8, 4), BlockCyclic2D(4, 2), machine, 280)
        return run_core(
            cg, machine, 280,
            accelerators=1, acc_seconds=acc.kind_seconds(280), **kw,
        )

    def test_rejects_fault_hooks(self, small_machine):
        from repro.resilience.faults import FaultSchedule
        from repro.runtime.core import FaultHooks

        hooks = FaultHooks(schedule=FaultSchedule(), replan=lambda dead: [])
        with pytest.raises(ValueError, match="fault hooks"):
            self._pooled(small_machine, fault=hooks)

    def test_rejects_data_reuse(self, small_machine):
        """The shared successor pick would hand a freed accelerator a
        CPU-only task."""
        with pytest.raises(ValueError, match="data_reuse"):
            self._pooled(small_machine, data_reuse=True)
