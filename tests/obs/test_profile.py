"""Harness self-profiling: spans as stage timers and the profile_run report."""

import pytest

from repro.obs.events import active, recording
from repro.obs.profile import format_profile, profile_run
from repro.obs.tracing import RequestTrace, attach, mint_trace_id, span


class TestStageTimers:
    """The profiler's stages are spans read back from a recorder."""

    def test_inactive_stage_is_noop(self):
        assert active() is None
        with span("anything") as sp:
            pass
        assert sp is None  # no trace, no recorder: nothing is timed

    def test_stages_accumulate(self):
        with recording("summary") as rec:
            with span("a"):
                pass
            with span("a"):
                pass
            with span("b"):
                pass
        totals = rec.totals()
        assert totals["a"]["calls"] == 2
        assert totals["b"]["calls"] == 1
        assert totals["a"]["seconds"] == pytest.approx(
            sum(sp.duration for sp in rec.spans if sp.name == "a")
        )
        assert "missing" not in totals

    def test_nested_stages_each_record(self):
        with recording("summary") as rec:
            with span("outer") as outer:
                with span("inner") as inner:
                    pass
        assert [sp.name for sp in rec.spans] == ["inner", "outer"]
        assert outer.children == [inner]
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_profiling_uninstalls_on_exit(self):
        with recording("summary"):
            assert active() is not None
        assert active() is None

    def test_to_dict(self):
        with recording("summary") as rec:
            with span("x") as sp:
                pass
        sp.start, sp.end = 1.0, 2.5
        assert rec.totals() == {"x": {"seconds": 1.5, "calls": 1}}


class TestSpanSinks:
    def test_one_span_reaches_trace_and_recorder(self):
        trace = RequestTrace(mint_trace_id(), "test", 0.0)
        with recording("summary") as rec, attach(trace):
            with span("graph", m=4) as sp:
                pass
        assert trace.root.children == [sp]
        assert rec.spans == [sp]
        assert sp.attrs == {"m": 4}

    def test_trace_only_and_recorder_only(self):
        trace = RequestTrace(mint_trace_id(), "test", 0.0)
        with attach(trace):
            with span("cache") as sp:
                pass
        assert trace.root.children == [sp]
        with recording("summary") as rec, attach(None):
            with span("cache") as sp:
                pass
        assert rec.spans == [sp]

    def test_nesting_under_a_trace(self):
        trace = RequestTrace(mint_trace_id(), "test", 0.0)
        with recording("summary") as rec, attach(trace):
            with span("service") as svc:
                with span("graph") as graph:
                    with span("dag.build") as build:
                        pass
                with span("simulate") as sim:
                    pass
        assert trace.root.children == [svc]
        assert svc.children == [graph, sim]
        assert graph.children == [build]
        assert set(rec.totals()) == {
            "service", "graph", "dag.build", "simulate",
        }

    def test_recorder_span_buffer_is_bounded(self):
        with recording("summary", max_events=2) as rec:
            for _ in range(5):
                with span("x"):
                    pass
        assert len(rec.spans) == 2
        assert rec.dropped_events["spans"] == 3
        assert rec.totals()["x"]["calls"] == 2

    def test_span_closes_on_exception(self):
        with recording("summary") as rec:
            with pytest.raises(RuntimeError):
                with span("boom"):
                    raise RuntimeError("x")
            with span("after") as after:
                pass
        assert [sp.name for sp in rec.spans] == ["boom", "after"]
        assert after.children == []


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """Isolated default graph cache, so every graph is built."""
    from repro.dag import cache as cache_mod

    c = cache_mod.CompiledGraphCache(tmp_path / "graphs")
    monkeypatch.setattr(cache_mod, "_default", c)
    return c


class TestProfileRun:
    def test_report_structure(self, fresh_cache):
        report = profile_run(m=16, n=4, sweep_points=2, with_cprofile=False)
        assert report["points"] == 2
        stages = report["stages"]
        # the runner's and the core's pre-wired spans all fired
        for name in ("graph", "hqr.compose", "dag.build", "simulate",
                     "dispatch"):
            assert name in stages, f"missing stage {name}"
        assert report["serial_wall_s"] > 0
        assert report["dispatch"]["total_s"] > 0
        assert report["cache_overhead_s"] >= 0
        assert "cprofile_top" not in report

    def test_cprofile_rows(self):
        report = profile_run(m=16, n=4, sweep_points=1, top=5)
        rows = report["cprofile_top"]
        assert rows and all("cumtime_s" in r for r in rows)
        assert len(rows) <= 5

    def test_format_profile(self):
        report = profile_run(m=16, n=4, sweep_points=2, with_cprofile=False)
        text = format_profile(report)
        assert "harness self-profile" in text
        assert "cache overhead" in text
