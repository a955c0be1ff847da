"""Benchmark workloads: one isingspec CLI command each, plus its output check.

Every workload is a config for one CLI command. The benchmark seed becomes the
CLI ``--seed``; nothing else about the inputs varies. The reasons for each
choice are in README.md beside this file.

Checks read the files one invocation wrote and compare them with the stored
references under ``refs/`` (made by ``make_refs.py``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict           # config keys written to the run's .cfg file
    sweep_points: int = 1

    @property
    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.config.items())

    @property
    def trajectories(self) -> int:
        if self.config.get("noise.enabled") == "true":
            return int(self.config["noise.trajectories"])
        return 1

    @property
    def points(self) -> int:
        """Recorded time points x trajectories x sweep points of one run."""
        return (int(self.config["plan.n_steps"]) + 1) * self.trajectories * self.sweep_points

    def cli_args(self, cfg_path: Path, out_dir: Path, seed: int) -> list[str]:
        args = [self.command, "--config", str(cfg_path), "--out", str(out_dir), "--seed", str(seed)]
        if self.command == "sweep":
            args += ["--parallel", "1"]
        return args

    def reference(self) -> dict:
        return json.loads((REFS / f"{self.name}.json").read_text())


# The criterion-9 physics with 3 instead of 400 steps: bandwidth-bound gates
# and rotated-copy sampling on a 16 MB state.
QUENCH_L20_SHOTS = Workload(
    "quench_l20_shots",
    "quench",
    {
        "model.L": "20", "model.g": "1.0", "model.h": "0.3",
        "plan.dt": "0.4", "plan.n_steps": "3", "plan.shots": "8192", "plan.axes": "x,y",
    },
)

# The README confinement sample at L = 16 with 80 instead of 150 steps: gates
# plus the exact correlator.
CORRELATE_L16 = Workload(
    "correlate_l16",
    "correlate",
    {"model.L": "16", "model.g": "0.25", "model.h": "0.2", "plan.dt": "0.2", "plan.n_steps": "80"},
)

# The README sweep sample with 200 instead of 400 steps, serial: per-call
# overhead, ED, spectroscopy. e1 still lands within 0.02 of ED at every point.
SWEEP_L12 = Workload(
    "sweep_l12",
    "sweep",
    {"model.L": "12", "model.h": "0.3", "plan.dt": "0.1", "plan.n_steps": "200"},
    sweep_points=11,
)

# The README noise defaults with 12 instead of 100 trajectories and 50 instead
# of 100 steps: with fewer trajectories, or later times, rare error-free
# trajectories give the traces tails too heavy for a standard-deviation check.
NOISY_QUENCH_L12 = Workload(
    "noisy_quench_l12",
    "quench",
    {
        "model.L": "12", "model.g": "0.5", "model.h": "0.3", "plan.dt": "0.4",
        "plan.n_steps": "50", "plan.shots": "8192",
        "noise.enabled": "true", "noise.p1": "0.001", "noise.p2": "0.01",
        "noise.p01": "0.02", "noise.p10": "0.02", "noise.trajectories": "12",
        "noise.mitigate": "true",
    },
)

WORKLOADS = {w.name: w for w in (QUENCH_L20_SHOTS, CORRELATE_L16, SWEEP_L12, NOISY_QUENCH_L12)}


# ------------------------------------------------------------------ parsing

def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    """Header and float rows of a CLI CSV (the provenance comment is skipped)."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [[float(c) for c in ln.split(",")] for ln in lines[1:]]


def read_trace(out_dir: Path) -> dict[str, list[float]]:
    header, rows = read_csv(out_dir / "trace.csv")
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


# ------------------------------------------------------------------- checks
# Each returns a list of problems; an empty list means the output is correct.

def _fraction_within(values, centre, envelope) -> float:
    inside = sum(abs(v - c) <= e for v, c, e in zip(values, centre, envelope))
    return inside / len(values)


def check_quench_l20_shots(out_dir: Path, ref: dict) -> list[str]:
    """Sampled traces within 4 standard deviations of the exact trace at >= 95 % of points.

    4/sqrt(L*shots) is 4 standard deviations only when sites are uncorrelated.
    Correlations make the true deviation up to 1.42x larger here (the exact
    value is in the reference), so the envelope is the larger of the two.
    """
    trace = read_trace(out_dir)
    problems = []
    if trace["t"] != ref["t"]:
        return ["time grid differs from the reference"]
    base = 4.0 / math.sqrt(ref["L"] * ref["shots"])
    for axis in ("sigma_y", "sigma_x"):
        env = [max(base, 4.0 * s) for s in ref[axis + "_sampled_std"]]
        frac = _fraction_within(trace[axis], ref[axis], env)
        if frac < 0.95:
            problems.append(f"{axis}: only {frac:.0%} of points within 4 std of exact")
    return problems


def check_correlate_l16(out_dir: Path, ref: dict) -> list[str]:
    """Correlator within 1e-10 of the reference, and the front stalls."""
    _, rows = read_csv(out_dir / "correlator.csv")
    problems = []
    if [(r[0], int(r[1])) for r in rows] != [(t, r) for t, r in ref["t_r"]]:
        problems.append("correlator grid differs from the reference")
    else:
        dev = max(abs(r[2] - g) for r, g in zip(rows, ref["G"]))
        if dev > 1e-10:
            problems.append(f"correlator deviates from the reference by {dev:.3g} > 1e-10")
    front = json.loads((out_dir / "front.json").read_text())
    if front["stalled"] is not True:
        problems.append("front.json: stalled is not true")
    return problems


def check_sweep_l12(out_dir: Path, ref: dict) -> list[str]:
    """e1 found at every point within max(d_omega, 0.05) of the ED gap."""
    points = json.loads((out_dir / "sweep.json").read_text())["points"]
    d_omega = json.loads((out_dir / "peaks_p00.json").read_text())["d_omega"]
    tol = max(d_omega, 0.05)
    if [p["g"] for p in points] != ref["g"]:
        return ["sweep points differ from the reference g list"]
    problems = []
    for p, e1 in zip(points, ref["ed_e1"]):
        got = p["extracted"].get("e1")
        if got is None:
            problems.append(f"g={p['g']}: no e1 peak")
        elif abs(got[0] - e1) > tol:
            problems.append(f"g={p['g']}: e1 {got[0]:.4f} vs ED {e1:.4f} (tol {tol:.4f})")
    return problems


def check_noisy_quench_l12(out_dir: Path, ref: dict) -> list[str]:
    """Traces within 5 ensemble standard deviations of the reference mean at >= 95 % of points.

    The reference holds the mean and the run-to-run standard deviation of K
    independent runs of this very config (trajectory and shot noise both
    included), so another RNG order passes while a noise model whose mean
    moves by many standard deviations fails. Five, not four: the traces are
    not Gaussian, and over 80 correct seeds a run needed up to 3.3.
    """
    trace = read_trace(out_dir)
    if trace["t"] != ref["t"]:
        return ["time grid differs from the reference"]
    k = ref["runs"]
    problems = []
    for axis in ("sigma_y", "sigma_x"):
        env = [5.0 * s * math.sqrt(1.0 + 1.0 / k) for s in ref[axis + "_std"]]
        frac = _fraction_within(trace[axis], ref[axis + "_mean"], env)
        if frac < 0.95:
            problems.append(f"{axis}: only {frac:.0%} of points inside the reference envelope")
    return problems


CHECKS = {
    "quench_l20_shots": check_quench_l20_shots,
    "correlate_l16": check_correlate_l16,
    "sweep_l12": check_sweep_l12,
    "noisy_quench_l12": check_noisy_quench_l12,
}


def data_files(out_dir: Path) -> dict[str, bytes]:
    """Every output file except run_stats.json, the one allowed to differ on re-runs."""
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name != "run_stats.json"
    }
