"""isingspec benchmark: run a workload's CLI command in fresh processes, time it, check it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a checkout. With --trace 0 the harness runs the
workload's command again and again for about S seconds, each run in a new
process, and reports medians of the end-to-end metrics over those runs. With
--trace 1 it runs the command untraced, then once with every layer wrapped in
spans, and reports per-layer metrics and the tracing overhead. Output files
are checked after timing stops.

Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. Raw per-run values and the
environment stamp go to .perfbench_out/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import CHECKS, WORKLOADS, data_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_RUNS = 2            # full command runs per untraced run, even when S is short
RUN_TIMEOUT_S = 120.0   # one command run that takes longer counts as failed
COPY_PROBE_MIB = 1200   # >= 4 x the 300 MiB L3 of the reference machine

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# (metric, unit); the names are fixed by BENCHMARK.json
PER_LAYER = (
    [(f"statevec.{k}.{f}", u) for k in ("gate_1q", "gate_2q")
     for f, u in (("calls", "count"), ("busy_s", "s"), ("ms_p50", "ms"), ("ms_p99", "ms"))]
    + [
        ("statevec.gate_gbs", "GB/s"),
        ("statevec.probs.calls", "count"),
        ("statevec.probs.busy_s", "s"),
        ("statevec.sample.calls", "count"),
        ("statevec.sample.busy_s", "s"),
        ("statevec.sample.self_s", "s"),
        ("statevec.expect.calls", "count"),
        ("statevec.expect.busy_s", "s"),
        ("statevec.estimates.busy_s", "s"),
        ("statevec.copies", "count"),
        ("trotter.run_quench.calls", "count"),
        ("trotter.run_quench.busy_s", "s"),
        ("trotter.run_quench.self_s", "s"),
        ("trotter.build_step.busy_s", "s"),
        ("trotter.steps", "count"),
        ("noise.gate_noise.calls", "count"),
        ("noise.gate_noise.busy_s", "s"),
        ("noise.paulis_inserted", "count"),
        ("noise.readout.busy_s", "s"),
        ("noise.readout.bits", "count"),
        ("obs.correlator.calls", "count"),
        ("obs.correlator.busy_s", "s"),
        ("obs.correlator.self_s", "s"),
        ("obs.front.busy_s", "s"),
        ("edsolver.basis.busy_s", "s"),
        ("edsolver.assemble.busy_s", "s"),
        ("edsolver.eigensolve.busy_s", "s"),
        ("edsolver.sector_dim", "count"),
        ("edsolver.basis_builds_per_L", "count"),
        ("spectro.fft.busy_s", "s"),
        ("spectro.peaks.busy_s", "s"),
        ("spectro.peaks_found", "count"),
        ("spectro.assigned_frac", "ratio"),
    ]
    + [(f"{m}.import_s", "s") for m in
       ("isingspec", "model", "statevec", "noise", "obs", "trotter", "edsolver", "spectro", "cli")]
    + [
        ("cli.render.busy_s", "s"),
        ("cli.parse_trace.calls", "count"),
        ("cli.parse_trace.busy_s", "s"),
        ("cli.bytes_written", "bytes"),
        ("cli.self_s", "s"),
    ]
    + [(f"layer.{m}.self_s", "s") for m in
       ("statevec", "trotter", "noise", "obs", "edsolver", "spectro", "cli")]
    + [
        ("trace.wall_s", "s"),
        ("trace.setup_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.accounted_frac", "ratio"),
        ("machine.copy_gbs", "GB/s"),
        ("machine.copy_array_mib", "MiB"),
        ("machine.l3_mib", "MiB"),
    ]
)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------- launching

def launch(workload, mode: str, run_dir: Path, seed: int) -> dict:
    """Start launch.py in a fresh process and return its timings (mode: run or trace)."""
    run_dir.mkdir(parents=True)
    cfg = run_dir / "run.cfg"
    cfg.write_text(workload.config_text)
    stamp_path = run_dir / "stamps.json"
    flags = ["-X", "importtime"] if mode == "trace" else []
    cmd = [sys.executable, *flags, str(HERE / "launch.py"), str(stamp_path), mode, "--",
           *workload.cli_args(cfg, run_dir / "out", seed)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    rec = {"mode": mode, "dir": str(run_dir.relative_to(ROOT))}
    with open(run_dir / "stderr.txt", "w") as err:
        t_launch = now()
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                  timeout=RUN_TIMEOUT_S, cwd=ROOT)
            rec["rc"] = proc.returncode
        except subprocess.TimeoutExpired:
            rec["rc"] = "timeout"
        t_end = now()
    rec["wall_s"] = t_end - t_launch
    if rec["rc"] == 0:
        stamps = json.loads(stamp_path.read_text())
        rec["setup_s"] = stamps["t_cmd"] - t_launch
        rec["peak_rss_mb"] = stamps["peak_rss_kb"] / 1024.0
        rec["ru_maxrss_mb"] = stamps["ru_maxrss_kb"] / 1024.0
        rec["points_per_s"] = workload.points / (rec["wall_s"] - rec["setup_s"])
        if "trace" in stamps:
            rec["trace"] = stamps["trace"]
    return rec


def check_runs(workload, runs: list[dict]) -> list[str]:
    """Check every command run's output; returns one line per failed run."""
    ref = workload.reference()
    first = None
    failures = []
    for rec in runs:
        if rec["rc"] != 0:
            problems = [f"exit code {rec['rc']}"]
        else:
            out_dir = ROOT / rec["dir"] / "out"
            problems = CHECKS[workload.name](out_dir, ref)
            files = data_files(out_dir)
            if first is None:
                first = files
            elif files != first:
                problems.append("data files differ from the first run with the same seed")
        rec["problems"] = problems
        if problems:
            failures.append(f"{rec['dir']}: " + "; ".join(problems))
    return failures


# ------------------------------------------------------------- environment

def _read_kv(path: str) -> dict:
    try:
        with open(path) as fh:
            pairs = (line.split(":", 1) for line in fh if ":" in line)
            return {k.strip(): v.strip() for k, v in pairs}
    except OSError:
        return {}


def cache_sizes() -> dict:
    """Data/unified cache sizes by level, as sysfs reports them (e.g. {'L2': '2048K'})."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _size_mib(text: str | None) -> float:
    if not text:
        return 0.0
    scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}
    return float(text[:-1]) * scale[text[-1]] if text[-1] in scale else float(text) / 2**20


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        rev = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "isingspec").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "mem_total": _read_kv("/proc/meminfo").get("MemTotal"),
        "cpu": _read_kv("/proc/cpuinfo").get("model name"),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "git_rev": rev,
        "src_sha256": src_hash.hexdigest(),
    }


def copy_bandwidth(mib: int = COPY_PROBE_MIB, repeats: int = 5) -> float:
    """Median numpy copy rate in GB/s, counting read + write bytes (computed).

    One array of `mib` MiB; each copy moves its first half onto its second.
    """
    import numpy as np

    a = np.ones(mib * 2**20 // 8)
    half = a.size // 2
    src, dst = a[:half], a[half:]
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t)
    del a, src, dst
    return 2 * half * 8 / statistics.median(times) / 1e9


# --------------------------------------------------------------- per layer

def import_times(stderr_text: str) -> dict[str, float]:
    """Import time of each isingspec module from ``-X importtime`` output.

    A module's time is its cumulative import time minus that of the isingspec
    modules it imports, so third-party imports count toward the isingspec
    module that pulls them in first.
    """
    pending: list[tuple[int, str, float, float]] = []  # depth, name, cumulative, nested isingspec
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        cum_s = float(cum) / 1e6
        nested = 0.0
        while pending and pending[-1][0] > depth:
            d, child, c_cum, c_nested = pending.pop()
            if d == depth + 1:
                nested += c_cum if child.split(".")[0] == "isingspec" else c_nested
        pending.append((depth, name, cum_s, nested))
        if name == "isingspec" or name.startswith("isingspec."):
            out[name.split(".")[-1] + ".import_s"] = cum_s - nested
    return out


def layer_metrics(traced: dict, untraced_wall: float, bytes_written: int,
                  imports: dict, copy_gbs: float, l3_mib: float) -> dict:
    spans, counts = traced["trace"]["spans"], traced["trace"]["counts"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    m = {}
    for name, _ in PER_LAYER:
        head, _, key = name.rpartition(".")
        if key in ("calls", "busy_s", "self_s", "ms_p50", "ms_p99") and not head.startswith("layer."):
            m[name] = span(head, key)
    gate_busy = span("statevec.gate_1q", "busy_s") + span("statevec.gate_2q", "busy_s")
    m["statevec.gate_gbs"] = counts.get("gate_bytes", 0) / gate_busy / 1e9 if gate_busy else 0.0
    m["statevec.copies"] = counts.get("copies", 0)
    m["trotter.steps"] = counts.get("steps", 0)
    m["noise.paulis_inserted"] = counts.get("paulis_inserted", 0)
    m["noise.readout.bits"] = counts.get("readout_bits", 0)
    m["edsolver.sector_dim"] = counts.get("sector_dim", 0)
    m["edsolver.basis_builds_per_L"] = (
        counts.get("basis_builds", 0) / counts["sector_Ls"] if counts.get("sector_Ls") else 0
    )
    m["spectro.peaks_found"] = counts.get("peaks_found", 0)
    m["spectro.assigned_frac"] = (
        counts.get("peaks_assigned", 0) / counts["peaks_matched"] if counts.get("peaks_matched") else 0.0
    )
    m["cli.bytes_written"] = bytes_written
    for module in ("isingspec", "model", "statevec", "noise", "obs", "trotter", "edsolver", "spectro", "cli"):
        m[f"{module}.import_s"] = imports.get(f"{module}.import_s", 0.0)
    for layer in ("statevec", "trotter", "noise", "obs", "edsolver", "spectro", "cli"):
        m[f"layer.{layer}.self_s"] = sum(
            s["self_s"] for n, s in spans.items() if n.split(".")[0] == layer
        )
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.setup_s"] = traced["setup_s"]
    m["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    m["trace.accounted_frac"] = (
        sum(s["self_s"] for s in spans.values()) / (traced["wall_s"] - traced["setup_s"])
    )
    m["machine.copy_gbs"] = copy_gbs
    m["machine.copy_array_mib"] = COPY_PROBE_MIB
    m["machine.l3_mib"] = l3_mib
    return m


# -------------------------------------------------------------------- runs

def _median(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs if key in r)


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    deadline = now() + seconds
    runs = []
    while True:
        runs.append(launch(workload, "run", out / f"run{len(runs)}", seed))
        estimate = _median(runs, "wall_s")
        reserve = 2 * estimate if trace else estimate  # room for the traced run
        if len(runs) >= (1 if trace else MIN_RUNS) and now() + reserve > deadline:
            break
    traced = launch(workload, "trace", out / "traced", seed) if trace else None
    timed_runs = runs + ([traced] if traced else [])
    failures = check_runs(workload, timed_runs)

    ok = [r for r in runs if r["rc"] == 0]
    if not ok:
        raise RuntimeError(f"{workload.name}: no run exited 0; see {out}/*/stderr.txt")
    env = environment()
    if trace:
        if traced["rc"] != 0:
            raise RuntimeError(f"{workload.name}: the traced run failed; see {out}/traced/stderr.txt")
        traced_dir = ROOT / traced["dir"]
        bytes_written = sum(p.stat().st_size for p in (traced_dir / "out").iterdir())
        imports = import_times((traced_dir / "stderr.txt").read_text())
        l3 = _size_mib(env["caches"].get("L3"))
        metrics = layer_metrics(traced, _median(ok, "wall_s"), bytes_written, imports,
                                copy_bandwidth(), l3)
        units = dict(PER_LAYER)
    else:
        metrics = {
            "wall_s": _median(ok, "wall_s"),
            "setup_s": _median(ok, "setup_s"),
            "points_per_s": _median(ok, "points_per_s"),
            "peak_rss_mb": _median(ok, "peak_rss_mb"),
        }
        units = dict(END_TO_END)
    failed = sum(1 for r in timed_runs if r["problems"])
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "points_per_run": workload.points,
        "attempted": len(timed_runs),
        "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "runs": timed_runs,
        "environment": env,
    }
    (out / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def print_result(result: dict) -> None:
    name = result["workload"]
    n_runs = sum(1 for r in result["runs"] if r["mode"] == "run")
    for line in result["failures"]:
        print(f"{name}  FAILED  {line}")
    for metric, mv in result["metrics"].items():
        print(f"{name}  {metric:32s} {mv['value']:14.6g} {mv['unit']}")
    if not result["trace"]:
        print(f"{name}  {'fail_rate':32s} {result['failed'] / result['attempted']:14.6g} "
              f"({result['failed']} of {result['attempted']} runs; medians over {n_runs} runs)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isingspec" / "cli.py").is_file():
        print(f"perfbench: no isingspec sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    # compile bytecode first, so that no run's setup_s includes compiling it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True,
                   stdout=subprocess.DEVNULL)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)))
            print_result(results[-1])
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(results[0]["environment"], sort_keys=True))
    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): v
            for r in results for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
