"""End-to-end verification sweeps, divergence detection, and shrinking."""

import dataclasses
import json

from repro.verify import (
    VerifyCase,
    available_engines,
    replay_report,
    verify,
)
from repro.verify.engines import core_engine, reference_engine, result_key
from repro.verify.generator import sample_case
from repro.verify.runner import format_report, write_report
from repro.verify.shrink import shrink_case


def test_fixed_seed_sweep_is_clean():
    """The tier-1 bridge for ``repro verify``: a small fixed-seed budget
    must be bitwise-identical across every engine and oracle-clean."""
    report = verify(seed=0, budget=25)
    assert report["ok"] is True
    assert report["cases_run"] == 25
    assert report["failures"] == []
    names = report["engines"]
    assert names[0] == "core"
    # post-unification the product is two-way: core vs the C inner loop
    # (plus the engine-independent oracle); nothing else is registered
    assert set(names) <= {"core", "core-c"}
    from repro._ccore import native_available

    if native_available():
        assert "core-c" in names


def test_engine_registry_order_is_deterministic():
    engines = available_engines()
    assert list(engines) == list(available_engines())
    assert list(engines)[0] == "core"
    # the historical baseline name stays importable as an alias
    assert reference_engine is core_engine


def test_result_key_is_bitwise():
    case = sample_case(0, 1)
    from repro.dag.graph import TaskGraph
    from repro.hqr.hierarchy import hqr_elimination_list

    graph = TaskGraph.from_eliminations(
        hqr_elimination_list(case.m, case.n, case.config()), case.m, case.n
    )
    res = core_engine(case, graph)
    nudged = dataclasses.replace(res, makespan=res.makespan * (1.0 + 1e-15))
    assert result_key(res) != result_key(nudged)


def _lossy_engine(case, graph):
    """A deliberately perturbed engine: reports one phantom message."""
    res = core_engine(case, graph)
    return dataclasses.replace(res, messages=res.messages + 1)


def _late_trace_engine(case, graph):
    """Agrees on every compared field, but its trace starts one task
    before the machine could have (a schedule only the oracle sees)."""
    res = core_engine(case, graph)
    t, node, start, end = res.trace[-1]
    trace = res.trace[:-1] + [(t, node, start - 1.0, end - 1.0)]
    return dataclasses.replace(res, trace=trace)


def test_oracle_checks_every_traced_engine():
    """The oracle runs on each traced result, not only the baseline's:
    the C loop's trace included."""
    from repro.verify import verify_case

    case = sample_case(0, 0)
    engines = {"core": core_engine, "late": _late_trace_engine}
    failure = verify_case(case, engines=engines)
    assert failure is not None and failure.kind == "oracle"
    assert failure.detail["engine"] == "late"
    if "core-c" in available_engines():
        from repro.dag.graph import TaskGraph
        from repro.hqr.hierarchy import hqr_elimination_list
        from repro.verify.engines import core_c_engine

        plain = dataclasses.replace(case, batched=False)
        graph = TaskGraph.from_eliminations(
            hqr_elimination_list(plain.m, plain.n, plain.config()),
            plain.m, plain.n,
        )
        res = core_c_engine(plain, graph)
        assert res.trace == core_engine(plain, graph).trace
        assert res.comm_trace is not None


def test_perturbed_engine_is_caught_and_minimized():
    engines = {"core": core_engine, "lossy": _lossy_engine}
    report = verify(seed=0, budget=5, engines=engines, max_failures=1)
    assert report["ok"] is False
    assert report["cases_run"] == 1  # max_failures stops the sweep
    [failure] = report["failures"]
    assert failure["kind"] == "engine-divergence"
    assert "messages" in failure["detail"]["diverged"]["lossy"]
    # the perturbation fires on every case, so the shrinker must walk the
    # (m, n, a, p, q) lattice all the way to its floor
    mini = failure["minimized"]
    assert mini is not None
    assert (mini["m"], mini["n"], mini["a"], mini["p"], mini["q"]) == (2, 1, 1, 1, 1)
    assert "messages" in failure["minimized_detail"]["diverged"]["lossy"]
    text = format_report(report)
    assert "engine-divergence" in text and "minimized" in text


def test_shrink_stops_at_predicate_boundary():
    """The shrinker keeps only reductions that still fail — a failure
    needing m >= 4 and q >= 2 minimizes to exactly that boundary."""
    case = dataclasses.replace(
        sample_case(0, 0), m=17, n=5, a=4, p=3, q=3,
        layout_kind="grid", nodes=9,
    )

    def failing(c):
        return "boom" if c.m >= 4 and c.q >= 2 else None

    mini, failure = shrink_case(case, failing)
    assert failure == "boom"
    assert (mini.m, mini.q) == (4, 2)
    assert (mini.n, mini.a, mini.p) == (1, 1, 1)
    assert mini.nodes == mini.p * mini.q


def test_shrink_flaky_predicate_flagged():
    case = sample_case(0, 0)
    mini, failure = shrink_case(case, lambda c: None)
    assert mini == case and failure is None


def test_report_round_trip_and_replay(tmp_path):
    engines = {"core": core_engine, "lossy": _lossy_engine}
    report = verify(seed=1, budget=2, engines=engines, max_failures=1)
    assert not report["ok"]
    path = tmp_path / "VERIFY_test.json"
    write_report(report, str(path))
    loaded = json.loads(path.read_text())
    restored = VerifyCase.from_dict(loaded["failures"][0]["minimized"])
    assert restored.m == 2 and restored.n == 1
    # replayed against the real engines the perturbation is gone: fixed
    assert replay_report(loaded) == []


def test_replay_reports_still_broken_failures():
    case = sample_case(0, 3)
    report = {
        "failures": [
            {
                "case": case.to_dict(),
                "kind": "engine-divergence",
                "detail": {},
                "minimized": None,
                "minimized_detail": None,
            }
        ]
    }
    # the real engines agree on this case, so nothing reproduces
    assert replay_report(report) == []


def test_format_report_clean_summary():
    report = verify(seed=2, budget=3)
    text = format_report(report)
    assert "seed=2" in text and "OK" in text
