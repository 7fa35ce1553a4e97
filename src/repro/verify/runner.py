"""The ``repro verify`` driver: sample, cross-check, shrink, report.

One verification *case* runs through five checks:

1. the HQR elimination list passes
   :func:`repro.hqr.validate.check_elimination_list` (§II legality);
2. every engine executes it (exceptions are failures, not crashes);
3. all engines agree bitwise on
   :func:`~repro.verify.engines.result_key`;
4. every traced engine result passes every oracle invariant
   (:mod:`repro.verify.oracle`);
5. any failure is shrunk over ``(m, n, a, p, q)`` to a minimal repro.

:func:`verify` returns a JSON-serializable report;
:func:`replay_report` re-runs the minimized cases of a previous report,
closing the reproduce-a-failure loop documented in
``docs/verification.md``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.dag.graph import TaskGraph
from repro.hqr.hierarchy import hqr_elimination_list
from repro.hqr.validate import ValidationError, check_elimination_list
from repro.verify.engines import available_engines, result_key, run_engines
from repro.verify.generator import VerifyCase, generate_cases
from repro.verify.oracle import check_schedule
from repro.verify.shrink import shrink_case

#: fields of result_key, for human-readable divergence reports
KEY_FIELDS = ("makespan", "messages", "bytes_sent", "busy_seconds", "flops", "cores")


@dataclass
class CaseFailure:
    """One failed case: what broke, where, and the minimized repro."""

    case: VerifyCase
    kind: str  # "legality" | "engine-error" | "engine-divergence" | "oracle"
    detail: dict
    minimized: VerifyCase | None = None
    minimized_detail: dict | None = None

    def to_dict(self) -> dict:
        return {
            "case": self.case.to_dict(),
            "kind": self.kind,
            "detail": self.detail,
            "minimized": self.minimized.to_dict() if self.minimized else None,
            "minimized_detail": self.minimized_detail,
        }


def verify_case(
    case: VerifyCase,
    *,
    engines: dict[str, Callable] | None = None,
) -> CaseFailure | None:
    """Run one case through legality, all engines, and the oracle."""
    config = case.config()
    elims = hqr_elimination_list(case.m, case.n, config)
    try:
        check_elimination_list(elims, case.m, case.n)
    except ValidationError as err:
        return CaseFailure(case, "legality", {"error": str(err)})
    graph = TaskGraph.from_eliminations(elims, case.m, case.n)

    try:
        results = run_engines(case, graph, engines)
    except Exception as err:  # an engine crashing IS the finding
        return CaseFailure(
            case, "engine-error", {"error": f"{type(err).__name__}: {err}"}
        )

    names = list(results)
    ref_name = names[0]
    ref_key = result_key(results[ref_name])
    diverged = {}
    for name in names[1:]:
        key = result_key(results[name])
        if key != ref_key:
            diverged[name] = {
                f: (a, b)
                for f, a, b in zip(KEY_FIELDS, ref_key, key)
                if a != b
            }
    if diverged:
        return CaseFailure(
            case,
            "engine-divergence",
            {"baseline": ref_name, "diverged": diverged},
        )

    for name, res in results.items():
        if res.trace is None:
            continue
        violations = [asdict(v) for v in check_schedule(case, graph, res)]
        if violations:
            detail = {"engine": name, "violations": violations}
            return CaseFailure(case, "oracle", detail)
    return None


def verify(
    seed: int = 0,
    budget: int = 200,
    *,
    shrink: bool = True,
    engines: dict[str, Callable] | None = None,
    max_failures: int = 10,
    progress: Callable[[int, int], None] | None = None,
) -> dict:
    """Run the full differential sweep; returns the JSON-ready report.

    Stops sampling after ``max_failures`` distinct failures (each failure
    triggers a shrink, which re-runs many cases — unbounded failure
    collection on a badly broken engine would take forever).
    """
    engine_names = list((engines if engines is not None else available_engines()))
    t0 = time.perf_counter()
    failures: list[CaseFailure] = []
    cases_run = 0
    for case in generate_cases(seed, budget):
        failure = verify_case(case, engines=engines)
        cases_run += 1
        if progress is not None:
            progress(cases_run, budget)
        if failure is not None:
            if shrink:
                kind = failure.kind

                def still_fails(c: VerifyCase) -> CaseFailure | None:
                    f = verify_case(c, engines=engines)
                    return f if f is not None and f.kind == kind else None

                minimized, min_failure = shrink_case(failure.case, still_fails)
                if min_failure is not None:
                    failure.minimized = minimized
                    failure.minimized_detail = min_failure.detail
            failures.append(failure)
            if len(failures) >= max_failures:
                break
    return {
        "tool": "repro verify",
        "seed": seed,
        "budget": budget,
        "cases_run": cases_run,
        "engines": engine_names,
        "ok": not failures,
        "failures": [f.to_dict() for f in failures],
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
    }


def replay_report(report: dict) -> list[CaseFailure]:
    """Re-run the (minimized, else original) case of each reported failure.

    Returns the failures that still reproduce — an empty list means the
    bugs in the report are fixed.
    """
    still: list[CaseFailure] = []
    for entry in report.get("failures", []):
        payload = entry.get("minimized") or entry["case"]
        case = VerifyCase.from_dict(payload)
        failure = verify_case(case)
        if failure is not None:
            still.append(failure)
    return still


def write_report(report: dict, path: str) -> None:
    """Write the verification report as JSON."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_report(report: dict) -> str:
    """Human-readable summary of a verification report."""
    lines = [
        f"repro verify: seed={report['seed']} budget={report['budget']} "
        f"engines={', '.join(report['engines'])}",
        f"cases run: {report['cases_run']} in {report['elapsed_seconds']}s",
    ]
    if report["ok"]:
        lines.append(
            "OK: all cases bitwise-identical across engines and "
            "clean against every oracle invariant"
        )
        return "\n".join(lines)
    lines.append(f"FAILURES: {len(report['failures'])}")
    for entry in report["failures"]:
        case = VerifyCase.from_dict(entry["case"])
        lines.append(f"- [{entry['kind']}] {case.describe()}")
        if entry.get("minimized"):
            mini = VerifyCase.from_dict(entry["minimized"])
            lines.append(f"  minimized: {mini.describe()}")
            lines.append(f"  detail: {json.dumps(entry['minimized_detail'])}")
        else:
            lines.append(f"  detail: {json.dumps(entry['detail'])}")
    return "\n".join(lines)
