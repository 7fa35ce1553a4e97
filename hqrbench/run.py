"""Seeded, layered benchmark of the HQR planning pipeline and daemon.

Usage, from the checkout root::

    python3 hqrbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads (rationale in ``BENCHMARK.json``): ``sweep`` (``sweeps.py``)
and ``serve-warm`` (``serving.py``).  Each run times set-up in fresh
processes, warms up, measures for ``--seconds``, then checks every
output.

With ``--trace 0`` the last stdout line reports the ``end_to_end``
metrics of ``BENCHMARK.json``; with ``--trace 1`` it reports the
``per_layer`` metrics (see ``layers.py``), measured on traced
operations that alternate with untraced ones, so the traced run also
reports its own overhead.  The line before it holds the provenance,
the raw samples, and two figures reported without a bound:
``failed_ratio`` (0 on a correct run, and a bounded metric must never
be 0) and ``latency_p99_ms`` (its run-to-run spread on a shared 2-CPU
host exceeded the largest bound a metric may have).  The exit code is
0 only when every output checked out; a run that cannot measure the
intended program (no native core, more threads than CPUs, no sources)
exits 2 without a result.
Everything written goes under ``.bench_build/hqrbench``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import BenchError, log, prepare_environment, refuse_foreign_program
from layers import WORKLOADS, measured_on

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def metric_specs(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics this mode must report."""
    spec = json.loads(SPEC.read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def assemble(workload: str, trace: bool, out: dict) -> dict:
    """The result line (correct, attempted, failed, metrics) of a run."""
    values = dict(out["layers"] if trace else out["e2e"])
    specs = metric_specs(trace)
    if trace:
        for name in specs:
            if name not in values and not measured_on(name, workload):
                values[name] = 0.0  # layer idle on this workload
    missing = sorted(set(specs) - set(values))
    extra = sorted(set(values) - set(specs))
    if missing or extra:
        raise BenchError(f"metrics missing {missing}, unexpected {extra}")
    failed = out["failed"]
    return {
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in specs.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        prepare_environment()
        env = refuse_foreign_program()
        if args.workload == "sweep":
            import sweeps as workload_module
        else:
            import serving as workload_module
        out = workload_module.run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
        result = assemble(args.workload, bool(args.trace), out)
    except BenchError as exc:
        log(f"refusing to report: {exc}")
        return 2
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "failed_ratio": {
            "value": out["failed"] / out["attempted"], "unit": "ratio",
        },
        **out["details"],
    }
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    if not result["correct"]:
        log(f"{out['failed']} of {out['attempted']} outputs were wrong: "
            f"{out['details'].get('errors')}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
