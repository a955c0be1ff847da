"""Self-tests of the benchmark harness (not of isingspec).

    python3 perfbench/selftest.py        # from the repository root; exits 1 on failure

1. peak_rss_mb is the workload process's own: a run launched while this
   process holds a large buffer reports the same peak as one launched
   without it. The workload's own ru_maxrss, printed for contrast, carries
   this process's high-water mark across exec.
2. BENCHMARK.json names the same workloads and metrics, with the same
   units, as run.py reports.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

from run import END_TO_END, OUT, PER_LAYER, ROOT, launch
from workloads import WORKLOADS, Workload

BUFFER_MB = 600
SMALL = Workload("selftest", "quench", {"model.L": "12", "plan.n_steps": "20", "plan.shots": "1000"})


def rss_ignores_the_harness_buffer() -> list[str]:
    base = OUT / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    alone = launch(SMALL, "run", base / "alone", seed=0)
    buffer = np.ones(BUFFER_MB * 2**20 // 8)  # touched, so resident in this process
    held = launch(SMALL, "run", base / "held", seed=0)
    del buffer
    shutil.rmtree(base, ignore_errors=True)
    if alone["rc"] != 0 or held["rc"] != 0:
        return ["the small quench did not exit 0"]
    for key in ("peak_rss_mb", "ru_maxrss_mb"):
        print(f"{key}: alone {alone[key]:.1f}, while the harness holds {BUFFER_MB} MB {held[key]:.1f}")
    if held["peak_rss_mb"] > 1.1 * alone["peak_rss_mb"] + 5.0:
        return ["peak_rss_mb grows with the harness's memory"]
    return []


def benchmark_json_matches_the_harness() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workload names differ")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != END_TO_END:
        problems.append("end_to_end metrics differ")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != PER_LAYER:
        problems.append("per_layer metrics differ")
    return problems


def main() -> int:
    problems = rss_ignores_the_harness_buffer() + benchmark_json_matches_the_harness()
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
