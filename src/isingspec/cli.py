"""Command line front end: config-driven, seeded, deterministic runs.

Configs are flat ``section.key = value`` text files (dotted keys, ``#``
comments). Every command reads one config, runs the corresponding pipeline
and writes data files into the configured output directory, never anywhere
else. Data files carry a provenance comment so they are self-describing, and
all floating point output uses repr() so re-runs are byte-identical and
values round-trip exactly.

Exit codes: 0 success, 1 usage or config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, edsolver, obs, spectro, statevec, trotter
from .model import ModelParams, NoiseParams, QuenchPlan


class ConfigError(ValueError):
    """Malformed config text, unknown key, or a value of the wrong type or range."""


def _from_config(cls, *args, **kwargs):
    """cls(*args, **kwargs), where a value the constructor rejects is a ConfigError."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(p) for p in text.split(",") if p.strip())


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _emit(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, (tuple, list)):
        return ",".join(_emit(x) for x in v)
    return str(v)


_DEFAULT_SWEEP = tuple(round(0.25 + 0.05 * k, 2) for k in range(11))

# key -> (parser, default); emit side is derived from the value type
_SCHEMA = {
    "model.L": (int, 12),
    "model.g": (_parse_float, 0.5),
    "model.h": (_parse_float, 0.3),
    "plan.dt": (_parse_float, 0.4),
    "plan.n_steps": (int, 100),
    "plan.shots": (int, 0),
    "plan.seed": (int, 0),
    "plan.axes": (_parse_str_list, ("x", "y")),
    "noise.enabled": (_parse_bool, False),
    "noise.p1": (_parse_float, 0.001),
    "noise.p2": (_parse_float, 0.01),
    "noise.p01": (_parse_float, 0.02),
    "noise.p10": (_parse_float, 0.02),
    "noise.trajectories": (int, 100),
    "noise.mitigate": (_parse_bool, True),
    "spectro.window": (str, "hann"),
    "spectro.pad_factor": (int, 8),
    "spectro.min_height_frac": (_parse_float, 0.05),
    "spectro.n_low": (int, 6),
    "spectro.trace": (str, ""),
    "spectro.join_ed": (_parse_bool, True),
    "sweep.g_list": (_parse_float_list, _DEFAULT_SWEEP),
    "correlate.threshold": (_parse_float, 0.02),
    "ed.n_low": (int, 6),
    "output.dir": (str, "out"),
    "output.format": (str, "csv"),
    "output.per_site": (_parse_bool, False),
}


@dataclass
class RunConfig:
    """A fully populated, normalized configuration."""

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def replace(self, **dotted) -> "RunConfig":
        out = dict(self.values)
        for k, v in dotted.items():
            out[k.replace("__", ".")] = v
        return RunConfig(out)

    def model_params(self, g: float | None = None) -> ModelParams:
        return _from_config(
            ModelParams,
            self["model.L"], self["model.g"] if g is None else g, self["model.h"]
        )

    def quench_plan(self, seed: int | None = None) -> QuenchPlan:
        noise = None
        if self["noise.enabled"]:
            noise = _from_config(
                NoiseParams,
                p1=self["noise.p1"],
                p2=self["noise.p2"],
                p01=self["noise.p01"],
                p10=self["noise.p10"],
                trajectories=self["noise.trajectories"],
                mitigate=self["noise.mitigate"],
            )
        return _from_config(
            QuenchPlan,
            dt=self["plan.dt"],
            n_steps=self["plan.n_steps"],
            shots=self["plan.shots"],
            measured_axes=self["plan.axes"],
            seed=self["plan.seed"] if seed is None else seed,
            noise=noise,
        )


def parse_config(text: str) -> RunConfig:
    """Flat dotted-key parser; unknown keys and bad values are config errors."""
    values = {k: d for k, (_, d) in _SCHEMA.items()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = (p.strip() for p in line.partition("="))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    if values["output.format"] not in ("csv", "json", "both"):
        raise ConfigError(f"output.format must be csv|json|both, got {values['output.format']!r}")
    return RunConfig(values)


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return parse_config("")
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_config(text)


# ---------------------------------------------------------------- renderers

def _provenance_line(pairs: dict) -> str:
    return "# " + " ".join(f"{k}={_emit(v)}" for k, v in sorted(pairs.items()))


def _json_text(doc: dict, prov: dict | None = None) -> str:
    """doc as key-sorted, indented JSON, with prov emitted under "provenance"."""
    if prov is not None:
        doc = {"provenance": {k: _emit(v) for k, v in prov.items()}, **doc}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _run_provenance(cfg: RunConfig, command: str, g: float | None = None, seed=None) -> dict:
    prov = {
        "isingspec": __version__,
        "command": command,
        "model.L": cfg["model.L"],
        "model.g": cfg["model.g"] if g is None else g,
        "model.h": cfg["model.h"],
        "plan.dt": cfg["plan.dt"],
        "plan.n_steps": cfg["plan.n_steps"],
        "plan.shots": cfg["plan.shots"],
        "plan.seed": cfg["plan.seed"] if seed is None else seed,
        "plan.axes": cfg["plan.axes"],
        "noise.enabled": cfg["noise.enabled"],
    }
    if cfg["noise.enabled"]:
        for k in ("p1", "p2", "p01", "p10", "trajectories", "mitigate"):
            prov[f"noise.{k}"] = cfg[f"noise.{k}"]
    return prov


def render_trace_csv(record, prov: dict, per_site: bool) -> str:
    axes = [a for a in ("y", "x", "z") if a in record.per_site]
    cols = ["t"] + [f"sigma_{a}" for a in axes]
    if per_site:
        L = record.per_site[axes[0]].shape[1]
        cols += [f"s{a}_{j}" for a in axes for j in range(1, L + 1)]
    rows = [_provenance_line(prov), ",".join(cols)]
    aggs = {a: record.aggregate(a) for a in axes}
    for k, t in enumerate(record.times):
        cells = [repr(float(t))] + [repr(float(aggs[a][k])) for a in axes]
        if per_site:
            cells += [
                repr(float(v)) for a in axes for v in record.per_site[a][k]
            ]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def render_trace_json(record, prov: dict) -> str:
    doc = {
        "times": [float(t) for t in record.times],
        "aggregate": {
            a: [float(v) for v in record.aggregate(a)] for a in sorted(record.per_site)
        },
        "per_site": {
            a: [[float(v) for v in row] for row in record.per_site[a]]
            for a in sorted(record.per_site)
        },
    }
    return _json_text(doc, prov)


def parse_trace_csv(text: str) -> tuple[dict, np.ndarray, dict[str, np.ndarray]]:
    """Read back a trace file: provenance dict, times, named value columns."""
    prov: dict = {}
    header = None
    data: list[list[float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for part in line[1:].split():
                if "=" in part:
                    k, _, v = part.partition("=")
                    prov[k] = v
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            continue
        data.append([float(c) for c in line.split(",")])
    if header is None or not data:
        raise ValueError("trace file holds no data rows")
    arr = np.asarray(data)
    cols = {name: arr[:, i] for i, name in enumerate(header)}
    if "t" not in cols:
        raise ValueError("trace file has no 't' column")
    return prov, cols.pop("t"), cols


def render_spectrum_csv(spectrum, prov: dict) -> str:
    rows = [_provenance_line(prov), "omega,power"]
    rows += [
        f"{repr(float(w))},{repr(float(p))}"
        for w, p in zip(spectrum.omega, spectrum.power)
    ]
    return "\n".join(rows) + "\n"


def render_spectrum_json(spectrum, prov: dict) -> str:
    doc = {
        "window": spectrum.window,
        "pad_factor": spectrum.pad_factor,
        "d_omega": float(spectrum.d_omega),
        "omega": [float(w) for w in spectrum.omega],
        "power": [float(p) for p in spectrum.power],
    }
    return _json_text(doc, prov)


def render_peaks_json(peaks, levels, prov: dict) -> str:
    doc = {
        "d_omega": float(peaks.d_omega),
        "peaks": [
            {
                "omega": float(p.omega),
                "height": float(p.height),
                "width": float(p.width),
                "label": p.label,
                "matched_value": None if p.matched_value is None else float(p.matched_value),
                "candidates": [[name, float(v)] for name, v in p.candidates],
            }
            for p in peaks.peaks
        ],
    }
    if levels is not None:
        doc["ed_gaps"] = [float(x) for x in levels.gaps]
    return _json_text(doc, prov)


# ----------------------------------------------------------------- commands

def _trace_files(cfg: RunConfig, record, prov: dict) -> dict[str, str]:
    files = {"trace.csv": render_trace_csv(record, prov, cfg["output.per_site"])}
    if cfg["output.format"] in ("json", "both"):
        files["trace.json"] = render_trace_json(record, prov)
    return files


def _spectrum_files(cfg: RunConfig, prov: dict, spectrum, peaks, levels) -> dict[str, str]:
    sprov = {
        **prov,
        "spectro.window": cfg["spectro.window"],
        "spectro.pad_factor": cfg["spectro.pad_factor"],
        "d_omega": float(spectrum.d_omega),
    }
    files = {"peaks.json": render_peaks_json(peaks, levels, sprov)}
    if cfg["output.format"] in ("csv", "both"):
        files["spectrum.csv"] = render_spectrum_csv(spectrum, sprov)
    if cfg["output.format"] in ("json", "both"):
        files["spectrum.json"] = render_spectrum_json(spectrum, sprov)
    return files


_SPECTRO_CHECKS = {f"spectro.{key}": check for key, check in spectro.SETTING_CHECKS.items()}
# the settings each command's analysis reads, with the library check for each;
# a sweep's spectrum is that of sigma_y over its n_steps + 1 recorded points
_SETTING_CHECKS = {
    "ed": {"model.L": edsolver.check_L, "ed.n_low": edsolver.check_n_low},
    "spectrum": _SPECTRO_CHECKS,
    "sweep": {
        **_SPECTRO_CHECKS,
        "plan.n_steps": lambda n: spectro.check_samples(n + 1),
        "plan.axes": spectro.check_axes,
    },
    "correlate": {"correlate.threshold": obs.check_threshold},
}


def _check_settings(command: str, cfg: RunConfig) -> None:
    """Reject out-of-range analysis settings before any computation runs."""
    checks = dict(_SETTING_CHECKS.get(command, {}))
    if command == "sweep" and cfg["spectro.join_ed"]:
        checks["model.L"] = edsolver.check_L  # the ED reference of every point
    for key, check in checks.items():
        try:
            check(cfg[key])
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc


def _spectro_settings(cfg: RunConfig) -> dict:
    return {
        "window": cfg["spectro.window"],
        "pad_factor": cfg["spectro.pad_factor"],
        "min_height_frac": cfg["spectro.min_height_frac"],
    }


def cmd_quench(cfg: RunConfig) -> dict[str, str]:
    record = trotter.run_quench(cfg.model_params(), cfg.quench_plan())
    return _trace_files(cfg, record, _run_provenance(cfg, "quench"))


def cmd_ed(cfg: RunConfig) -> dict[str, str]:
    params = cfg.model_params()
    # ed.n_low counts excitation gaps, so fetch the ground level plus n_low
    levels = edsolver.solve_sector(params, n_low=cfg["ed.n_low"] + 1)
    oracle_check = None
    if params.h == 0 and params.L % 2 == 0 and 4 <= params.L <= edsolver.ORACLE_L_MAX:
        oracle = edsolver.free_fermion_oracle(params.L, params.g)
        oracle_check = bool(edsolver.spectrum_contains(oracle, levels.eigenvalues))
    doc = {
        "model": {"L": params.L, "g": params.g, "h": params.h},
        "sector": "k=0",
        "dim": levels.dim,
        "method": levels.method,
        "residual": float(levels.residual),
        "eigenvalues": [float(x) for x in levels.eigenvalues],
        "levels": [float(x) for x in levels.levels],
        "multiplicities": [int(x) for x in levels.multiplicities],
        "gaps": [float(x) for x in levels.gaps],
        "oracle_check": oracle_check,
    }
    return {"levels.json": _json_text(doc)}


def cmd_spectrum(cfg: RunConfig, out_dir: Path) -> dict[str, str]:
    trace_path = Path(cfg["spectro.trace"]) if cfg["spectro.trace"] else out_dir / "trace.csv"
    if not trace_path.is_file():
        raise FileNotFoundError(f"trace file not found: {trace_path}")
    prov, times, cols = parse_trace_csv(trace_path.read_text())
    if "sigma_y" not in cols:
        raise ValueError("trace has no sigma_y column; spectroscopy needs it")
    levels = None
    if cfg["spectro.join_ed"] and all(f"model.{k}" in prov for k in ("L", "g", "h")):
        params = ModelParams(
            int(prov["model.L"]), float(prov["model.g"]), float(prov["model.h"])
        )
        levels = edsolver.solve_sector(params, n_low=cfg["spectro.n_low"])
    spectrum, peaks = spectro.analyze_series(
        spectro.TimeSeries(times, cols["sigma_y"]), levels, **_spectro_settings(cfg)
    )
    return _spectrum_files(cfg, prov, spectrum, peaks, levels)


def cmd_sweep(cfg: RunConfig, processes: int) -> dict[str, str]:
    gs = cfg["sweep.g_list"]
    if not gs:
        raise ConfigError("sweep.g_list is empty")
    if processes < 1:
        raise ConfigError(f"--parallel must be at least 1, got {processes}")
    if not cfg["model.h"] > 0:
        raise ConfigError(f"sweep needs model.h > 0 to define eta, got {cfg['model.h']!r}")
    points = spectro.eta_sweep(
        gs,
        cfg["model.h"],
        cfg.model_params(),
        cfg.quench_plan(),
        n_low=cfg["spectro.n_low"] if cfg["spectro.join_ed"] else None,
        processes=processes,
        **_spectro_settings(cfg),
    )

    files: dict[str, str] = {}
    rows, table = [], []
    for i, pt in enumerate(points):
        prov = _run_provenance(cfg, "quench", g=pt.g, seed=cfg["plan.seed"] + i)
        point_files = _trace_files(cfg, pt.record, prov)
        point_files.update(_spectrum_files(cfg, prov, pt.spectrum, pt.peaks, pt.levels))
        suffix = "" if len(points) == 1 else f"_p{i:02d}"
        for name, text in point_files.items():
            stem, _, ext = name.partition(".")
            files[f"{stem}{suffix}.{ext}"] = text
        extracted = {k: list(v) for k, v in pt.extracted.items()}
        cells = [repr(pt.g), repr(pt.h), repr(pt.eta)]
        for label in ("e1", "e2", "e3"):
            cells += [repr(v) for v in extracted[label]] if label in extracted else ["", ""]
        rows.append(",".join(cells))
        table.append({"g": pt.g, "h": pt.h, "eta": pt.eta, "extracted": extracted})

    prov = _run_provenance(cfg, "sweep")
    del prov["model.g"]
    prov["sweep.g_list"] = gs
    rows[:0] = [_provenance_line(prov), "g,h,eta,e1,e1_err,e2,e2_err,e3,e3_err"]
    files["sweep.csv"] = "\n".join(rows) + "\n"
    files["sweep.json"] = _json_text({"points": table}, prov)
    return files


def cmd_correlate(cfg: RunConfig) -> dict[str, str]:
    if "x" not in cfg["plan.axes"]:
        raise ConfigError("correlate needs 'x' in plan.axes")
    record = trotter.run_quench(cfg.model_params(), cfg.quench_plan(), record_correlator=True)
    prov = _run_provenance(cfg, "quench")
    files = _trace_files(cfg, record, prov)
    prov = {**prov, "command": "correlate"}
    field = obs.field_from_record(record)
    fit = obs.lightcone_front(field, threshold=cfg["correlate.threshold"])
    bound = 2.0 * obs.max_group_velocity(cfg["model.g"])

    rows = [_provenance_line(prov), "t,r,G"]
    for k, t in enumerate(field.times):
        for ri, r in enumerate(field.rs):
            rows.append(f"{repr(float(t))},{int(r)},{repr(float(field.values[k, ri]))}")
    front = {
        "threshold": float(fit.threshold),
        "velocity": None if np.isnan(fit.velocity) else float(fit.velocity),
        "stalled": bool(fit.stalled),
        "max_radius": int(fit.radii.max()) if fit.radii.size else 0,
        "dispersion_bound": float(bound),
        "fit_window": None if fit.window is None else [float(x) for x in fit.window],
        "times": [float(t) for t in fit.times],
        "radii": [int(r) for r in fit.radii],
        "sign_changes": [int(obs.oscillation_count(field, int(r))) for r in field.rs],
    }
    files["correlator.csv"] = "\n".join(rows) + "\n"
    files["front.json"] = _json_text(front, prov)
    return files


# --------------------------------------------------------------- entrypoint

class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 per the exit-code contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="isingspec", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("quench", "run one quench, write the observable trace"),
        ("ed", "zero-momentum exact diagonalization levels"),
        ("spectrum", "Fourier spectrum and labelled peaks of a trace"),
        ("sweep", "quench + spectroscopy across a list of g values"),
        ("correlate", "connected x-x correlator and light-cone front fit"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="config file (defaults apply when omitted)")
        p.add_argument("--out", help="output directory (overrides output.dir)")
        p.add_argument("--seed", type=int, help="override plan.seed")
        p.add_argument("--format", choices=("csv", "json", "both"), help="override output.format")
        if name == "spectrum":
            p.add_argument("--trace", help="input trace CSV (overrides spectro.trace)")
        if name == "sweep":
            p.add_argument("--parallel", type=int, default=1, metavar="K", help="most processes the points run on")
    return parser


def _dispatch(args, cfg: RunConfig, out_dir: Path) -> dict[str, str]:
    if args.command == "quench":
        return cmd_quench(cfg)
    if args.command == "ed":
        return cmd_ed(cfg)
    if args.command == "spectrum":
        return cmd_spectrum(cfg, out_dir)
    if args.command == "sweep":
        return cmd_sweep(cfg, processes=args.parallel)
    if args.command == "correlate":
        return cmd_correlate(cfg)
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    started = time.monotonic()
    statevec.pin_blas_threads()
    split_passes = statevec.split_passes
    trotter.trajectory_processes = 1
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = cfg.replace(plan__seed=args.seed)
        if args.out is not None:
            cfg = cfg.replace(output__dir=args.out)
        if args.format is not None:
            cfg = cfg.replace(output__format=args.format)
        if args.command == "spectrum" and getattr(args, "trace", None):
            cfg = cfg.replace(spectro__trace=args.trace)
        _check_settings(args.command, cfg)
        out_dir = Path(cfg["output.dir"])
        files = _dispatch(args, cfg, out_dir)
    except ConfigError as exc:
        print(f"isingspec: config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001  (CLI boundary: report, exit 2)
        print(f"isingspec: error: {exc}", file=sys.stderr)
        return 2

    # all computation succeeded; only now touch the filesystem
    stats = {
        "command": args.command,
        "elapsed_s": round(time.monotonic() - started, 3),
        "max_rss_kb": _peak_rss_kb(),
        "files": sorted(files),
        "threads": {
            "blas": statevec.blas_threads(),
            "scipy_blas": statevec.blas_threads("scipy"),
            "kernels": 2 if statevec.split_passes > split_passes else 1,
        },
        "trajectory_processes": trotter.trajectory_processes,
    }
    files["run_stats.json"] = _json_text(stats)
    try:
        _write_files(out_dir, files, args.command)
    except OSError as exc:
        print(f"isingspec: error: cannot write {out_dir}: {exc}", file=sys.stderr)
        return 2
    print(f"isingspec {args.command}: wrote {len(files)} files to {out_dir}")
    return 0


def _peak_rss_kb() -> int:
    """Peak RSS of this process and its finished children, in kB.

    VmHWM resets at exec, so unlike ru_maxrss of RUSAGE_SELF it does not
    inherit the high-water mark of the process that started this one.
    ru_maxrss is the fallback where /proc is missing.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _manifest(out_dir: Path, command: str) -> set[str]:
    """The plain file names that out_dir's run_stats.json lists, if an
    earlier run of this command wrote it; else the empty set."""
    try:
        stats = json.loads((out_dir / "run_stats.json").read_text())
        names = stats["files"] if stats["command"] == command else []
    except (OSError, ValueError, KeyError, TypeError):
        return set()
    if not isinstance(names, list):
        return set()
    return {n for n in names if isinstance(n, str) and n and Path(n).name == n}


def _write_files(out_dir: Path, files: dict[str, str], command: str) -> None:
    """Write all files into out_dir, or nothing.

    The files are staged in a temporary directory beside out_dir and then
    renamed into place (_swap_in). On failure the staging directory and any
    parent directories this call created are removed again.
    """
    missing = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    stage = None
    try:
        out_dir.parent.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
        for name in sorted(files):
            (stage / name).write_text(files[name])
        if out_dir.exists():
            _swap_in(stage, out_dir, sorted(files), _manifest(out_dir, command) - files.keys())
            stage.rmdir()
        else:
            umask = os.umask(0)
            os.umask(umask)
            stage.chmod(0o777 & ~umask)  # mkdtemp makes it private
            stage.rename(out_dir)
    except OSError:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
        for d in missing:  # deepest first
            if d.is_dir():
                d.rmdir()
        raise


def _swap_in(stage: Path, out_dir: Path, names: list[str], stale: set[str]) -> None:
    """Rename stage's files into out_dir and drop the stale ones, all or nothing.

    stale holds the files that the run_stats.json of an earlier run of the
    same command lists and this run does not write again. They, and the
    files this run replaces, are first moved aside into a directory beside
    out_dir, and deleted once every new file is in place. If a rename
    fails, the new files are removed and the old ones moved back. No other
    file is touched; another command's files stay, since `spectrum` reads
    the trace that `quench` left in the same directory.
    """
    aside = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.old.", dir=out_dir.parent))
    moved, placed = [], []
    try:
        for name in sorted({*names, *stale}):
            if (out_dir / name).is_file():
                os.replace(out_dir / name, aside / name)
                moved.append(name)
        for name in names:
            os.replace(stage / name, out_dir / name)
            placed.append(name)
    except OSError:
        for name in placed:
            (out_dir / name).unlink()
        for name in moved:
            os.replace(aside / name, out_dir / name)
        aside.rmdir()  # if a move back failed, the old files wait here
        raise
    shutil.rmtree(aside, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
