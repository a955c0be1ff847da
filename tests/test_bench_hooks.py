"""The benchmark's launcher and tracer still find every name they patch.

perfbench/launch.py wraps the ``cli.cmd_*`` functions, and in ``trace`` mode
perfbench/tracing.py replaces module attributes by name (``cli.parse_trace_csv``,
``statevec.estimates_from_indices``, ...). A renamed or deleted target makes
the traced run crash, so a tiny quench and sweep are run through both.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from childenv import child_env

LAUNCH = Path(__file__).resolve().parent.parent / "perfbench" / "launch.py"


@pytest.mark.parametrize(
    "command, extra",
    [
        ("quench", {"plan.shots": 500, "plan.axes": "x,y"}),
        ("sweep", {"sweep.g_list": "0.4, 0.6"}),
        ("quench", {"plan.shots": 500, "noise.enabled": "true", "noise.trajectories": 4}),
        # gate-noisy and exact: every time point is turned in place axis by axis
        ("correlate", {"plan.axes": "x,y,z", "noise.enabled": "true", "noise.trajectories": 4}),
        # noiseless and exact: every time point is read on the k = 0 orbits
        ("correlate", {}),
        # gate- and readout-noisy, sampled: blocks of rows drawn in one pass,
        # then the correlator from the x bits
        ("correlate", {"plan.shots": 500, "noise.enabled": "true", "noise.trajectories": 4,
                       "noise.p01": 0.06, "noise.p10": 0.01}),
    ],
)
def test_traced_launch_runs_to_completion(tmp_path, command, extra):
    cfg = {"model.L": 4, "model.h": 0.3, "plan.dt": 0.2, "plan.n_steps": 40, **extra}
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    stamp = tmp_path / "stamp.json"
    res = subprocess.run(
        [sys.executable, str(LAUNCH), str(stamp), "trace", "--",
         command, "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(stamp.read_text())
    assert doc["rc"] == 0
    spans = doc["trace"]["spans"]
    assert "trotter.run_quench" in spans
    if extra.get("noise.enabled") == "true":
        # gate noise must go through noise.apply_gate_noise, the name the tracer wraps
        assert spans["noise.gate_noise"]["calls"] > 0
    if command == "correlate":
        # no rotated copies and no site_expectations calls
        assert doc["trace"]["counts"].get("copies", 0) == 0
        assert spans.get("statevec.expect", {"calls": 0})["calls"] == 0
    if command == "correlate" and extra:
        # the in-place paths: the correlator from every pair of sites, or
        # from the sampled x bits
        assert spans["obs.correlator"]["calls"] > 0
    elif command == "correlate":
        # the orbit path: no probability array and no all-pairs correlator
        assert "statevec.probs" not in spans
        assert "obs.correlator" not in spans
