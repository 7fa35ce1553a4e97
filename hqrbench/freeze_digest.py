"""Freeze the sweep workload's expected outputs into ``digest.json``.

Run from the checkout root as ``python3 hqrbench/freeze_digest.py``.
It runs one pass over the point set in canonical order and records
each point's (makespan, messages) from the unrecorded C core, together
with the point, elimination, task and edge totals and the size of the
recorded subset.  Re-freeze only when a change is meant to alter
simulated schedules.
"""

from __future__ import annotations

import json
import sys

from common import prepare_environment


def main() -> int:
    prepare_environment()
    import sweeps
    from repro.hqr.hierarchy import hqr_elimination_list

    setup, points = sweeps.point_set()
    out = sweeps.run_pass(points, setup)
    digest = {
        "points": len(points),
        "elims": sum(len(hqr_elimination_list(*p)) for p in points),
        "tasks": out["tasks"],
        "edges": out["edges"],
        "recorded_points": len(out["recorded"]),
        "recorded_tasks": out["recorded_tasks"],
        "results": {
            sweeps.point_key(*p): [r.makespan, r.messages]
            for p, r in zip(points, out["results"])
        },
    }
    sweeps.DIGEST.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sweeps.DIGEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
