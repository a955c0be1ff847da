"""Make the stored reference outputs the benchmark checks against.

    python3 perfbench/make_refs.py            # from the repository root

Each reference comes from the workload's own config (parsed by the CLI's
config parser) run through the isingspec API of the checked-out commit:

  quench_l20_shots  the exact trace (plan.shots = 0), plus the exact standard
                    deviation of the sampled site average at every point
  correlate_l16     the exact correlator G(r, t) on the recorded grid
  sweep_l12         the k = 0 ED gap e1 at every sweep point
  noisy_quench_l12  mean and run-to-run standard deviation of RUNS complete
                    runs with seeds REF_SEED + 0 .. RUNS - 1

Nothing is chosen by hand: rerunning this script at the same commit with the
same numpy and scipy rewrites every file byte for byte. refs/MANIFEST.json
records the commit, the versions and a hash of every file.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from isingspec import cli, edsolver, statevec, trotter  # noqa: E402
from run import environment  # noqa: E402
from workloads import REFS, WORKLOADS  # noqa: E402

REF_SEED = 1_000_000  # far from the small seeds the benchmark is run with
RUNS = 40


def _config(name: str, **overrides):
    cfg = cli.parse_config(WORKLOADS[name].config_text)
    return cfg.replace(**overrides) if overrides else cfg


def _sampled_std(state, axis: str, shots: int) -> float:
    """Exact standard deviation of the shot-averaged site mean of one axis."""
    probs = statevec.measurement_probabilities(state, axis)
    L = state.L
    site_mean = (L - 2.0 * np.bitwise_count(np.arange(probs.size))) / L
    mu = probs @ site_mean
    return math.sqrt(max(probs @ (site_mean - mu) ** 2, 0.0) / shots)


def quench_l20_shots() -> dict:
    cfg = _config("quench_l20_shots")
    params, plan = cfg.model_params(), cfg.quench_plan()
    record = trotter.run_quench(params, _config("quench_l20_shots", plan__shots=0).quench_plan())
    step = trotter.build_step(params, plan.dt)
    state = statevec.init_all_plus(params.L)
    std = {"y": [], "x": []}
    for k in range(plan.n_steps + 1):
        if k:
            for gate in step.gates:
                statevec.apply_gate(state, gate)
        for axis in std:
            std[axis].append(_sampled_std(state, axis, plan.shots))
    return {
        "L": params.L,
        "shots": plan.shots,
        "t": [float(t) for t in record.times],
        "sigma_y": [float(v) for v in record.aggregate("y")],
        "sigma_x": [float(v) for v in record.aggregate("x")],
        "sigma_y_sampled_std": std["y"],
        "sigma_x_sampled_std": std["x"],
    }


def correlate_l16() -> dict:
    cfg = _config("correlate_l16")
    record = trotter.run_quench(cfg.model_params(), cfg.quench_plan(), record_correlator=True)
    rs = range(1, cfg["model.L"] // 2 + 1)
    return {
        "t_r": [[float(t), r] for t in record.times for r in rs],
        "G": [float(v) for v in record.correlator.ravel()],
    }


def sweep_l12() -> dict:
    cfg = _config("sweep_l12")
    gs = [float(g) for g in cfg["sweep.g_list"]]
    e1 = [
        edsolver.solve_sector(cfg.model_params(g=g), n_low=cfg["spectro.n_low"]).gap(1)
        for g in gs
    ]
    return {"g": gs, "ed_e1": e1}


def noisy_quench_l12() -> dict:
    cfg = _config("noisy_quench_l12")
    params = cfg.model_params()
    traces = {"y": [], "x": []}
    for k in range(RUNS):
        record = trotter.run_quench(params, cfg.quench_plan(seed=REF_SEED + k))
        for axis in traces:
            traces[axis].append(record.aggregate(axis))
    out = {"runs": RUNS, "seeds": [REF_SEED, REF_SEED + RUNS - 1], "t": [float(t) for t in record.times]}
    for axis, rows in traces.items():
        arr = np.array(rows)
        out[f"sigma_{axis}_mean"] = [float(v) for v in arr.mean(axis=0)]
        out[f"sigma_{axis}_std"] = [float(v) for v in arr.std(axis=0, ddof=1)]
    return out



MAKERS = {
    "quench_l20_shots": quench_l20_shots,
    "correlate_l16": correlate_l16,
    "sweep_l12": sweep_l12,
    "noisy_quench_l12": noisy_quench_l12,
}


def main() -> int:
    REFS.mkdir(exist_ok=True)
    hashes = {}
    for name, make in MAKERS.items():
        print(f"making {name} ...", flush=True)
        text = json.dumps(make(), indent=1) + "\n"
        (REFS / f"{name}.json").write_text(text)
        hashes[f"{name}.json"] = hashlib.sha256(text.encode()).hexdigest()
    env = environment()
    manifest = {
        "generator": "python3 perfbench/make_refs.py",
        "git_rev": env["git_rev"],
        "src_sha256": env["src_sha256"],
        "python": env["python"],
        "numpy": env["numpy"],
        "scipy": env["scipy"],
        "blas": env["blas"],
        "noisy_ref_seed": REF_SEED,
        "noisy_ref_runs": RUNS,
        "configs": {name: w.config for name, w in WORKLOADS.items()},
        "sha256": hashes,
    }
    (REFS / "MANIFEST.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
