"""The unified core vs the frozen golden fixtures, flag by flag.

Every capability combination of :func:`repro.runtime.core.run_core` must
reproduce — bitwise — the values captured from the PRE-unification
engines (``tests/runtime/fixtures/golden_core.json``): Python and C
inner loops, trace recording, obs recording at both levels, batched
dispatch, fault hooks — including the empty-schedule
``force_fault_loop`` identity that used to be its own verify engine —
and the accelerator pool.  The schedule record both inner loops write
(tasks, messages, queue depths) must agree list for list.
"""

import json
import pathlib

import pytest

from repro._ccore import native_available
from repro.dag.compiled import compile_graph
from repro.obs.events import recording, uninstall
from repro.runtime import core as core_mod
from repro.runtime.core import (
    FaultHooks,
    _pick_engine,
    run_core,
    run_core_batch,
)
from repro.runtime.golden import (
    GOLDEN_RELPATH,
    acc_golden_cases,
    comm_digest,
    fault_golden_cases,
    float_hex,
    golden_cases,
    trace_digest,
)
from repro.runtime.simulator import ClusterSimulator

FIXTURE = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / GOLDEN_RELPATH).read_text()
)

CASES = {c.name: c for c in golden_cases()}
FAULT_CASES = {c.name: c for c in fault_golden_cases()}
ACC_CASES = {c.name: c for c in acc_golden_cases()}


@pytest.fixture(autouse=True)
def clean_recorder():
    uninstall()
    yield
    uninstall()


def _compiled(case):
    """Compile one golden case; returns (graph, sim, cg, prio)."""
    graph = case.graph()
    sim = ClusterSimulator(
        case.machine,
        case.layout(),
        case.b,
        priority=case.priority_keys(graph),
        data_reuse=case.data_reuse,
    )
    cg = compile_graph(graph, sim.layout, sim.machine, case.b)
    return graph, sim, cg, sim.priority_values(graph)


def _assert_scalar(res, frozen):
    assert float_hex(res.makespan) == frozen["makespan"]
    assert float_hex(res.busy_seconds) == frozen["busy_seconds"]
    assert float_hex(res.flops) == frozen["flops"]
    assert res.messages == frozen["messages"]
    assert res.bytes_sent == frozen["bytes_sent"]


@pytest.mark.parametrize("name", sorted(FIXTURE["scalar"]))
def test_python_loop_with_traces_matches_golden(name):
    """core="python" + record_trace: every field including both digests."""
    case = CASES[name]
    _, _, cg, prio = _compiled(case)
    frozen = FIXTURE["scalar"][name]
    assert cg.ntasks == frozen["ntasks"]
    res = run_core(
        cg, case.machine, case.b,
        prio=prio, data_reuse=case.data_reuse,
        core="python", record_trace=True,
    ).result
    _assert_scalar(res, frozen)
    assert trace_digest(res.trace) == frozen["trace"]
    assert comm_digest(res.comm_trace) == frozen["comm"]


@pytest.mark.parametrize("name", sorted(FIXTURE["scalar"]))
def test_python_loop_untraced_matches_golden(name):
    case = CASES[name]
    _, _, cg, prio = _compiled(case)
    res = run_core(
        cg, case.machine, case.b,
        prio=prio, data_reuse=case.data_reuse, core="python",
    ).result
    _assert_scalar(res, FIXTURE["scalar"][name])
    assert res.trace is None and res.comm_trace is None


@pytest.mark.skipif(not native_available(), reason="no C toolchain")
@pytest.mark.parametrize("name", sorted(FIXTURE["scalar"]))
def test_c_loop_matches_golden(name):
    case = CASES[name]
    _, _, cg, prio = _compiled(case)
    out = run_core(
        cg, case.machine, case.b,
        prio=prio, data_reuse=case.data_reuse, core="c",
    )
    assert out.engine == "c"
    _assert_scalar(out.result, FIXTURE["scalar"][name])
    assert out.result.trace is None and out.result.comm_trace is None


@pytest.mark.skipif(not native_available(), reason="no C toolchain")
@pytest.mark.parametrize("name", sorted(FIXTURE["scalar"]))
def test_c_loop_with_traces_matches_golden(name):
    """core="c" + record_trace: the C loop's schedule record reproduces
    both frozen digests."""
    case = CASES[name]
    _, _, cg, prio = _compiled(case)
    frozen = FIXTURE["scalar"][name]
    out = run_core(
        cg, case.machine, case.b,
        prio=prio, data_reuse=case.data_reuse,
        core="c", record_trace=True,
    )
    assert out.engine == "c"
    _assert_scalar(out.result, frozen)
    assert trace_digest(out.result.trace) == frozen["trace"]
    assert comm_digest(out.result.comm_trace) == frozen["comm"]


def _records(run):
    """The (tasks, comms, queue) lists a tasks recorder ingests from
    ``run()``, plus its result."""
    with recording("tasks") as rec:
        res = run()
    assert rec.dropped == 0
    return (rec.tasks, rec.comms, rec.queue), res


@pytest.mark.skipif(not native_available(), reason="no C toolchain")
@pytest.mark.parametrize(
    "name", sorted(FIXTURE["scalar"]) + sorted(FIXTURE["accelerated"])
)
def test_c_and_python_records_are_equal(name):
    """Tasks, messages and queue-depth changes, list for list: data
    reuse, (un)serialized links, hierarchical machines and the
    accelerator pool (0, 1, 2 devices)."""
    acc_case = ACC_CASES.get(name)
    case = acc_case.base if acc_case else CASES[name]
    _, _, cg, prio = _compiled(case)
    if acc_case:
        acc = acc_case.machine()
        kw = dict(
            accelerators=acc.accelerators, acc_seconds=acc.kind_seconds(case.b)
        )
    else:
        kw = dict(prio=prio, data_reuse=case.data_reuse)
    got = {}
    for core in ("python", "c"):
        got[core], out = _records(
            lambda: run_core(cg, case.machine, case.b, core=core, **kw)
        )
        assert out.engine == core
    tasks, comms, queue = got["c"]
    assert got["c"] == got["python"]
    assert len(tasks) == cg.ntasks
    assert len(comms) == out.result.messages
    assert all(depth >= 0 for _, _, depth in queue)


@pytest.mark.skipif(not native_available(), reason="no C toolchain")
@pytest.mark.parametrize(
    "names", [["flat-serialized", "flat-critical-path"], ["hierarchical-reuse"]]
)
def test_c_and_python_batch_records_are_equal(names):
    """run_core_batch under a tasks recorder: the C dispatch ingests the
    same records, in point order, as the Python one."""
    cases = [CASES[n] for n in names]
    compiled = [_compiled(c) for c in cases]
    got = {}
    for core in ("python", "c"):
        got[core], results = _records(
            lambda: run_core_batch(
                [cg for _, _, cg, _ in compiled],
                cases[0].machine, cases[0].b,
                prios=[prio for _, _, _, prio in compiled],
                data_reuse=cases[0].data_reuse,
                core=core,
            )
        )
        for name, res in zip(names, results):
            _assert_scalar(res, FIXTURE["scalar"][name])
    assert got["c"] == got["python"]
    assert len(got["c"][0]) == sum(cg.ntasks for _, _, cg, _ in compiled)


@pytest.mark.parametrize("cap", [0, 5, 40])
def test_recorder_caps_each_family_and_counts_the_overflow(cap):
    """``Recorder(max_events=k)`` keeps the first k events of each
    family across runs and counts exactly the rest, per family."""
    from repro.obs.events import Recorder, install

    case = CASES["flat-serialized"]
    _, _, cg, prio = _compiled(case)

    def twice():
        for _ in range(2):
            run_core(cg, case.machine, case.b, prio=prio)

    (tasks, comms, queue), _ = _records(twice)
    rec = install(Recorder(max_events=cap))
    twice()
    uninstall()
    for family, full in (("tasks", tasks), ("comms", comms), ("queue", queue)):
        assert len(full) > 40
        assert getattr(rec, family) == full[:cap]
        assert rec.dropped_events[family] == len(full) - cap


@pytest.mark.skipif(not native_available(), reason="no C toolchain")
def test_c_record_capacity_is_checked(monkeypatch):
    """A record one message short of what the run sends is an error
    code from the C loop, never a write past the caller's arrays."""
    case = CASES["flat-serialized"]
    _, _, cg, prio = _compiled(case)
    sized = core_mod._CRecord
    monkeypatch.setattr(
        core_mod, "_CRecord", lambda ntasks, nslots: sized(ntasks, nslots - 1)
    )
    assert cg.nslots == FIXTURE["scalar"]["flat-serialized"]["messages"]
    with pytest.raises(RuntimeError, match="capacity"):
        run_core(cg, case.machine, case.b, prio=prio, core="c",
                 record_trace=True)


@pytest.mark.parametrize("core", ["python", "c"])
def test_batched_dispatch_matches_golden(core):
    """One batched call over every golden case == per-case fixtures."""
    if core == "c" and not native_available():
        pytest.skip("no C toolchain")
    # all graphs in one dispatch must share machine/b/data_reuse: group
    groups = {}
    for name in sorted(FIXTURE["scalar"]):
        case = CASES[name]
        key = (id(case.machine), case.b, case.data_reuse)
        groups.setdefault(key, []).append(name)
    for names in groups.values():
        cases = [CASES[n] for n in names]
        compiled = [_compiled(c) for c in cases]
        results = run_core_batch(
            [cg for _, _, cg, _ in compiled],
            cases[0].machine,
            cases[0].b,
            prios=[prio for _, _, _, prio in compiled],
            data_reuse=cases[0].data_reuse,
            core=core,
        )
        for name, res in zip(names, results):
            _assert_scalar(res, FIXTURE["scalar"][name])


@pytest.mark.parametrize("core", ["python", "c"])
@pytest.mark.parametrize("name", sorted(FIXTURE["accelerated"]))
def test_accelerator_pool_matches_golden(name, core):
    """The accelerator-pool capability reproduces the values frozen from
    the pre-unification accelerated loops, under either inner loop."""
    if core == "c" and not native_available():
        pytest.skip("no C toolchain")
    case = ACC_CASES[name]
    base = case.base
    acc = case.machine()
    _, _, cg, _ = _compiled(base)
    out = run_core(
        cg, base.machine, base.b,
        core=core,
        accelerators=acc.accelerators,
        acc_seconds=acc.kind_seconds(base.b),
    )
    assert out.engine == core
    frozen = FIXTURE["accelerated"][name]
    assert float_hex(out.result.makespan) == frozen["makespan"]
    assert float_hex(out.result.busy_seconds) == frozen["busy_seconds"]
    assert out.result.messages == frozen["messages"]


@pytest.mark.parametrize("level", ["summary", "tasks"])
@pytest.mark.parametrize("name", ["flat-serialized", "hierarchical-reuse"])
def test_obs_recording_is_bitwise_neutral(name, level):
    """Recording on (either level) must not move a single bit, nor
    change which inner loop runs."""
    case = CASES[name]
    _, _, cg, prio = _compiled(case)
    with recording(level=level):
        out = run_core(
            cg, case.machine, case.b,
            prio=prio, data_reuse=case.data_reuse,
        )
    _assert_scalar(out.result, FIXTURE["scalar"][name])
    assert out.engine == ("c" if _pick_engine(None) is not None else "python")


def _simulate_spans(spans):
    """Every ``simulate`` span in a list of span trees."""
    out, stack = [], list(spans)
    while stack:
        sp = stack.pop()
        if sp.name == "simulate":
            out.append(sp)
        stack.extend(sp.children)
    return out


@pytest.mark.parametrize("name", ["flat-serialized", "hierarchical-reuse"])
def test_tracing_span_hook_is_bitwise_neutral(name):
    """The core's ``simulate`` span must not move a single bit.

    Both span sinks listening — a trace attached and a summary recorder
    installed, the maximally instrumented configuration that keeps the C
    core — still reproduces the golden fixtures, and the run emits
    exactly one "simulate" span into each sink."""
    from repro.obs.events import recording
    from repro.obs.tracing import RequestTrace, attach, mint_trace_id

    case = CASES[name]
    _, _, cg, prio = _compiled(case)
    trace = RequestTrace(mint_trace_id(), "test", 0.0)
    with recording("summary") as rec, attach(trace):
        res = run_core(
            cg, case.machine, case.b,
            prio=prio, data_reuse=case.data_reuse,
        ).result
    _assert_scalar(res, FIXTURE["scalar"][name])
    spans = [s for s in trace.root.children if s.name == "simulate"]
    assert len(spans) == 1
    assert spans[0].attrs["ntasks"] == cg.ntasks
    assert _simulate_spans(rec.spans) == spans


def test_tracing_span_hook_is_bitwise_neutral_batched():
    """Same neutrality through the batched dispatch path."""
    from repro.obs.events import recording
    from repro.obs.tracing import RequestTrace, attach, mint_trace_id

    names = ["flat-serialized", "flat-critical-path"]
    cases = [CASES[n] for n in names]
    compiled = [_compiled(c) for c in cases]
    trace = RequestTrace(mint_trace_id(), "test", 0.0)
    with recording("summary") as rec, attach(trace):
        results = run_core_batch(
            [cg for _, _, cg, _ in compiled],
            cases[0].machine,
            cases[0].b,
            prios=[prio for _, _, _, prio in compiled],
            data_reuse=cases[0].data_reuse,
        )
    for name, res in zip(names, results):
        _assert_scalar(res, FIXTURE["scalar"][name])
    # one span per fused C batch, one per graph on the per-point path
    fused = _pick_engine(None) is not None
    expected = 1 if fused else len(names)
    assert len(_simulate_spans(trace.root.children)) == expected
    assert len([s for s in rec.spans if s.name == "simulate"]) == expected


def test_task_recording_batch_emits_one_span_per_graph():
    """A task-level recorder runs the batch graph by graph (each one
    writes the schedule record the recorder ingests): each of 3 graphs
    is one ``simulate`` span in the trace and in the recorder, and the
    results match the unrecorded runs bit for bit."""
    from repro.dag.compiled import compiled_from_eliminations
    from repro.hqr.hierarchy import hqr_elimination_list
    from repro.obs.tracing import RequestTrace, attach, mint_trace_id

    case = CASES["flat-serialized"]
    layout = case.layout()
    graphs = [
        compiled_from_eliminations(
            hqr_elimination_list(m, case.n, case.config), m, case.n,
            layout, case.machine, case.b,
        )
        for m in (8, 12, 16)
    ]
    bare = [run_core(cg, case.machine, case.b).result for cg in graphs]
    trace = RequestTrace(mint_trace_id(), "test", 0.0)
    with recording("tasks") as rec, attach(trace):
        results = run_core_batch(graphs, case.machine, case.b)
    for res, want in zip(results, bare):
        assert (res.makespan, res.busy_seconds, res.messages) == (
            want.makespan, want.busy_seconds, want.messages
        )
    traced = _simulate_spans(trace.root.children)
    recorded = [s for s in rec.spans if s.name == "simulate"]
    assert len(traced) == len(recorded) == 3
    assert sorted(map(id, traced)) == sorted(map(id, recorded))
    assert [s.attrs["ntasks"] for s in recorded] == [
        cg.ntasks for cg in graphs
    ]


@pytest.mark.parametrize("name", sorted(FIXTURE["faulty"]))
def test_fault_hooks_match_golden(name):
    """The fault capability branch, driven directly through FaultHooks."""
    from repro.resilience.faults import FaultSchedule
    from repro.resilience.simulate import ResilientSimulator

    fcase = FAULT_CASES[name]
    base = fcase.base
    graph = base.graph()
    sim = ResilientSimulator(
        base.machine,
        base.layout(),
        base.b,
        priority=base.priority_keys(graph),
        data_reuse=base.data_reuse,
        record_trace=True,
    )
    frozen = FIXTURE["faulty"][name]
    baseline = sim.run(graph).makespan
    assert float_hex(baseline) == frozen["baseline_makespan"]
    schedule = FaultSchedule.scenario(
        fcase.scenario,
        seed=fcase.seed,
        nodes=base.machine.nodes,
        horizon=baseline,
        severity=fcase.severity,
    )
    cg = compile_graph(graph, sim.layout, sim.machine, base.b)
    hooks = FaultHooks(
        schedule=schedule,
        replan=lambda dead: sim._replan_targets(graph, dead),
        fault_events=[],
    )
    out = run_core(
        cg, base.machine, base.b,
        prio=sim.priority_values(graph),
        data_reuse=base.data_reuse,
        record_trace=True,
        fault=hooks,
    )
    res, fo = out.result, out.fault
    assert float_hex(res.makespan) == frozen["makespan"]
    assert float_hex(res.busy_seconds) == frozen["busy_seconds"]
    assert float_hex(fo.wasted) == frozen["wasted_seconds"]
    assert res.messages == frozen["messages"]
    assert fo.executions - cg.ntasks == frozen["tasks_reexecuted"]
    assert fo.aborted == frozen["tasks_aborted"]
    assert fo.refetches == frozen["refetch_messages"]
    assert fo.dropped == frozen["messages_dropped"]
    assert fo.retransmits == frozen["retransmits"]
    assert list(fo.dead) == frozen["crashed_nodes"]
    assert trace_digest(res.trace) == frozen["trace"]


@pytest.mark.parametrize(
    "name", ["flat-serialized", "flat-critical-path", "hierarchical"]
)
def test_empty_schedule_fault_loop_is_bit_identical(name):
    """The old ``force_fault_loop`` verify engine, now a flag identity:
    fault hooks with an empty schedule == fault hooks disabled, bitwise.
    """
    from repro.resilience.faults import FaultSchedule
    from repro.resilience.simulate import ResilientSimulator

    case = CASES[name]
    graph = case.graph()
    sim = ResilientSimulator(
        case.machine,
        case.layout(),
        case.b,
        priority=case.priority_keys(graph),
        data_reuse=case.data_reuse,
    )
    res = sim.run_with_faults(
        graph, FaultSchedule(), baseline_makespan=0.0, force_fault_loop=True
    )
    frozen = FIXTURE["scalar"][name]
    _assert_scalar(res, frozen)
    assert res.tasks_reexecuted == 0
    assert res.tasks_aborted == 0
    assert res.wasted_seconds == 0.0
