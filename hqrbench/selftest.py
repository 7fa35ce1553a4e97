"""Self-test of the benchmark itself (not of the program it measures).

Run from the checkout root as ``python3 hqrbench/selftest.py``; it
takes a few seconds and starts no daemon.  It checks that:

* ``BENCHMARK.json`` has the expected keys and limits, its metric
  names match ``[A-Za-z0-9_.-]+``, and its ``per_layer`` list and
  workloads agree with ``layers.py``;
* two seeds give different request streams and point orders, and the
  output checks reach the same verdict on both;
* the output checks fail on an answer one ulp off;
* a result assembled for every workload and mode names exactly the
  metrics ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import random
import re
import shutil
import sys

from common import fresh_cache_dir, prepare_environment, run_dir, tail
from layers import LAYERS, WORKLOADS, measured_on

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
SEEDS = (1, 2)

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def check_spec() -> dict:
    from run import SPEC

    spec = json.loads(SPEC.read_text())
    expect(set(spec) == KEYS, "BENCHMARK.json has exactly the expected keys")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = [n for n in names if not NAME.fullmatch(n)]
    expect(not bad, f"every name matches [A-Za-z0-9_.-]+ {bad or ''}")
    expect(len(names) == len(set(names)), "every name is used once")
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(all(UNIT.fullmatch(u) for u in units), "every unit is well formed")
    expect(
        all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
        "every end-to-end bound is in (0, 0.25]",
    )
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(
        setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                   "bound": max(m["bound"] for m in spec["end_to_end"])}],
        "setup_s is in seconds, lower is better, with the largest bound",
    )
    expect(
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
        "workloads match layers.WORKLOADS",
    )
    expect(
        [m["name"] for m in spec["per_layer"]] == list(LAYERS),
        "per_layer matches the layer table in layers.py",
    )
    expect(
        all(len(w["why"]) <= 200 and "\n" not in w["why"]
            for w in spec["workloads"]),
        "every workload rationale is one line of at most 200 characters",
    )
    return spec


def check_seeds() -> None:
    import serving
    import sweeps

    streams = [
        list(itertools.islice(serving.request_stream(s), 200)) for s in SEEDS
    ]
    expect(streams[0] != streams[1], "serve-warm: seeds differ in stream")
    again = list(itertools.islice(serving.request_stream(1), 200))
    expect(again == streams[0], "serve-warm: a seed repeats its stream")

    verdicts = []
    for seed in SEEDS:
        stream = serving.request_stream(seed)
        samples = [
            serving.Sample(i, t, r, 0.0, 0.0, 200, {})
            for i, (t, r) in enumerate(itertools.islice(stream, 12))
        ]
        for s in samples:
            s.measured = True
        expected, _ = serving.expected_answers(samples, 0)
        for s in samples:  # answer as a correct daemon would
            mk, msgs, _ = expected[serving.canon(s.request)]
            s.body = {"makespan_s": mk, "messages": msgs}
        verdicts.append(serving.check_answers(samples, expected)[0])
        samples[3].body["makespan_s"] = math.nextafter(
            samples[3].body["makespan_s"], math.inf
        )
        expect(
            serving.check_answers(samples, expected)[0] == 1,
            f"serve check fails an answer one ulp off (seed {seed})",
        )
    expect(verdicts == [0, 0], "serve checks agree across seeds (all pass)")

    setup, points = sweeps.point_set()
    small = [p for p in points if p[0] <= 32]
    digest = json.loads(sweeps.DIGEST.read_text())
    verdicts, orders = [], []
    for seed in SEEDS:
        order = list(small)
        random.Random(f"sweep:{seed}").shuffle(order)
        orders.append(order)
        out = sweeps.run_pass(order, setup)
        # the digest's totals cover the full set; check the points only
        sub = {"results": digest["results"], "tasks": out["tasks"],
               "edges": out["edges"], "recorded_tasks": out["recorded_tasks"]}
        verdicts.append(sweeps.check_pass(order, out, sub))
        res = out["results"][0]
        out["results"][0] = dataclasses.replace(
            res, makespan=math.nextafter(res.makespan, 0.0)
        )
        # the skewed C result contradicts both the digest and the
        # recorded run of the same graph
        expect(
            len(sweeps.check_pass(order, out, sub)) == 2,
            f"sweep check fails a makespan one ulp off (seed {seed})",
        )
        out["results"][0] = res
        rec = out["recorded"][1]
        out["recorded"][1] = dataclasses.replace(rec, messages=rec.messages + 1)
        expect(
            len(sweeps.check_pass(order, out, sub)) == 1,
            f"sweep check fails a recorded run one message off (seed {seed})",
        )
    expect(orders[0] != orders[1], "sweep seeds permute point order")
    expect(verdicts == [[], []], "sweep checks agree across seeds (all pass)")


def check_results(spec: dict) -> None:
    from run import assemble

    e2e = {m["name"]: 1.0 for m in spec["end_to_end"]}
    for workload in WORKLOADS:
        for trace in (False, True):
            layers = {n: 1.0 for n in LAYERS if measured_on(n, workload)}
            out = {"attempted": 3, "failed": 0, "e2e": e2e, "layers": layers}
            res = assemble(workload, trace, out)
            want = spec["per_layer" if trace else "end_to_end"]
            expect(
                set(res) == {"correct", "attempted", "failed", "metrics"}
                and list(res["metrics"]) == [m["name"] for m in want]
                and all(NAME.fullmatch(k) for k in res["metrics"]),
                f"{workload} trace={int(trace)}: result names its metrics",
            )
    expect(tail(range(1, 1001))[0] == 990, "tail is p99 at 1000 samples")
    expect(tail(range(1, 101))[0] == 90, "tail keeps ten samples beyond it")
    expect(tail(range(1, 6))[0] == 5, "tail is the maximum below 11 samples")


def main() -> int:
    prepare_environment()
    work = run_dir("selftest")
    # in-process plans get their own empty graph cache
    os.environ["REPRO_CACHE_DIR"] = str(fresh_cache_dir(work / "cache"))
    try:
        spec = check_spec()
        check_seeds()
        check_results(spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
