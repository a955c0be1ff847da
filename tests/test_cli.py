import json
import os
import subprocess
import sys

import numpy as np
import pytest

from childenv import child_env
from isingspec import cli, statevec, trotter


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "isingspec.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**child_env(), **(env or {})},
    )


def write_config(path, **overrides):
    lines = [f"{k} = {v}" for k, v in overrides.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ------------------------------------------------------------ config layer

def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(cli.ConfigError):
        cli.parse_config("model.coupling = 3\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config("model.L = twelve\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config("just some words\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config("output.format = yaml\n")


def test_config_parses_comments_booleans_and_lists():
    cfg = cli.parse_config(
        "# a comment\nmodel.L = 8  # trailing\nnoise.enabled = Yes\nsweep.g_list = 0.3, 0.5\n"
    )
    assert cfg["model.L"] == 8
    assert cfg["noise.enabled"] is True
    assert cfg["sweep.g_list"] == (0.3, 0.5)


# ------------------------------------------------------------------ quench

def test_quench_writes_a_full_trace(tmp_path):
    cfgfile = write_config(tmp_path / "run.cfg", **{"model.L": 8, "output.dir": tmp_path / "out"})
    res = run_cli("quench", "--config", cfgfile)
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert lines[0].startswith("# ")
    assert "model.L=8" in lines[0]
    assert lines[1] == "t,sigma_y,sigma_x"
    assert len(lines) == 2 + 101  # provenance + header + t = 0..40


def test_reruns_are_byte_identical(tmp_path):
    cfg = {"model.L": 6, "plan.n_steps": 30, "plan.shots": 100000, "plan.seed": 3}
    a = write_config(tmp_path / "a.cfg", **cfg, **{"output.dir": tmp_path / "a"})
    b = write_config(tmp_path / "b.cfg", **cfg, **{"output.dir": tmp_path / "b"})
    assert run_cli("quench", "--config", a).returncode == 0
    assert run_cli("quench", "--config", b).returncode == 0
    ta = (tmp_path / "a" / "trace.csv").read_bytes()
    tb = (tmp_path / "b" / "trace.csv").read_bytes()
    assert ta == tb


def test_seed_flag_changes_sampled_output(tmp_path):
    cfg = {"model.L": 6, "plan.n_steps": 20, "plan.shots": 5000}
    f = write_config(tmp_path / "run.cfg", **cfg, **{"output.dir": tmp_path / "out"})
    run_cli("quench", "--config", f)
    first = (tmp_path / "out" / "trace.csv").read_bytes()
    run_cli("quench", "--config", f, "--seed", "99", "--out", str(tmp_path / "out2"))
    assert first != (tmp_path / "out2" / "trace.csv").read_bytes()


def test_per_site_columns(tmp_path):
    f = write_config(
        tmp_path / "run.cfg",
        **{"model.L": 4, "plan.n_steps": 5, "output.per_site": "true",
           "output.dir": tmp_path / "out"},
    )
    assert run_cli("quench", "--config", f).returncode == 0
    header = (tmp_path / "out" / "trace.csv").read_text().splitlines()[1]
    assert header.split(",")[:3] == ["t", "sigma_y", "sigma_x"]
    assert "sy_1" in header and "sx_4" in header


@pytest.mark.parametrize("per_site", ["false", "true"])
def test_trace_csv_holds_every_measured_axis(tmp_path, capsys, per_site):
    f = write_config(
        tmp_path / "run.cfg",
        **{"model.L": 4, "plan.n_steps": 5, "plan.axes": "z,x", "output.per_site": per_site,
           "output.format": "both", "output.dir": tmp_path / "out"},
    )
    assert cli.main(["quench", "--config", f]) == 0, capsys.readouterr().err
    _, times, cols = cli.parse_trace_csv((tmp_path / "out" / "trace.csv").read_text())
    doc = json.loads((tmp_path / "out" / "trace.json").read_text())
    names = ["sigma_x", "sigma_z"]
    if per_site == "true":
        names += [f"s{a}_{j}" for a in "xz" for j in range(1, 5)]
    assert list(cols) == names
    for a in "xz":
        assert cols[f"sigma_{a}"].tolist() == doc["aggregate"][a]
        if per_site == "true":
            site_cols = np.stack([cols[f"s{a}_{j}"] for j in range(1, 5)], axis=1)
            assert site_cols.tolist() == doc["per_site"][a]


def test_format_json_mirrors_the_trace(tmp_path):
    f = write_config(
        tmp_path / "run.cfg",
        **{"model.L": 4, "plan.n_steps": 8, "output.dir": tmp_path / "out"},
    )
    assert run_cli("quench", "--config", f, "--format", "json").returncode == 0
    doc = json.loads((tmp_path / "out" / "trace.json").read_text())
    assert len(doc["times"]) == 9
    assert set(doc["aggregate"]) == {"x", "y"}
    # the CSV trace is the pipeline interchange format and is always present
    assert (tmp_path / "out" / "trace.csv").exists()


# ---------------------------------------------------------------------- ed

def test_ed_reports_the_requested_gap_count(tmp_path):
    f = write_config(
        tmp_path / "run.cfg",
        **{"model.L": 12, "model.g": 0.25, "model.h": 0.3, "ed.n_low": 6,
           "output.dir": tmp_path / "out"},
    )
    assert run_cli("ed", "--config", f).returncode == 0
    doc = json.loads((tmp_path / "out" / "levels.json").read_text())
    assert len(doc["gaps"]) == 6
    assert doc["dim"] == 352
    assert doc["oracle_check"] is None  # h != 0: no free-fermion reference


def test_ed_pure_bond_ground_energy(tmp_path):
    f = write_config(
        tmp_path / "run.cfg",
        **{"model.L": 3, "model.g": 0.0, "model.h": 0.0, "output.dir": tmp_path / "out"},
    )
    assert run_cli("ed", "--config", f).returncode == 0
    doc = json.loads((tmp_path / "out" / "levels.json").read_text())
    assert doc["levels"][0] == pytest.approx(-3.0, abs=1e-12)


def test_ed_oracle_flag_at_the_free_point(tmp_path):
    f = write_config(
        tmp_path / "run.cfg",
        **{"model.L": 8, "model.g": 0.5, "model.h": 0.0, "output.dir": tmp_path / "out"},
    )
    assert run_cli("ed", "--config", f).returncode == 0
    doc = json.loads((tmp_path / "out" / "levels.json").read_text())
    assert doc["oracle_check"] is True


# ------------------------------------------------------------------ spectrum

def test_spectrum_of_a_synthetic_tone_is_unassigned(tmp_path):
    t = np.arange(256) * 0.4
    rows = ["t,sigma_y"] + [f"{float(ti)!r},{float(np.cos(2.0 * ti))!r}" for ti in t]
    trace = tmp_path / "tone.csv"
    trace.write_text("\n".join(rows) + "\n")
    f = write_config(tmp_path / "run.cfg", **{"output.dir": tmp_path / "out"})
    res = run_cli("spectrum", "--config", f, "--trace", str(trace))
    assert res.returncode == 0, res.stderr
    doc = json.loads((tmp_path / "out" / "peaks.json").read_text())
    assert len(doc["peaks"]) == 1
    assert doc["peaks"][0]["label"] == "unassigned"
    assert abs(doc["peaks"][0]["omega"] - 2.0) < doc["d_omega"]


def test_spectrum_labels_the_lowest_gap(tmp_path):
    f = write_config(
        tmp_path / "run.cfg",
        **{"model.L": 8, "plan.dt": 0.1, "plan.n_steps": 400, "output.dir": tmp_path / "out"},
    )
    assert run_cli("quench", "--config", f).returncode == 0
    assert run_cli("spectrum", "--config", f).returncode == 0
    doc = json.loads((tmp_path / "out" / "peaks.json").read_text())
    labels = {p["label"] for p in doc["peaks"]}
    assert "e1" in labels


def test_spectrum_missing_input_leaves_no_partial_outputs(tmp_path):
    f = write_config(tmp_path / "run.cfg", **{"output.dir": tmp_path / "out"})
    res = run_cli("spectrum", "--config", f, "--trace", str(tmp_path / "nothere.csv"))
    assert res.returncode == 2
    assert "not found" in res.stderr
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------------- sweep

SWEEP_BASE = {
    "model.L": 6,
    "model.h": 0.3,
    "plan.dt": 0.2,
    "plan.n_steps": 80,
    "plan.seed": 7,
    "plan.shots": 2000,
}


def test_single_point_sweep_composes_from_quench_and_spectrum(tmp_path):
    sweep_cfg = write_config(
        tmp_path / "s.cfg", **SWEEP_BASE,
        **{"sweep.g_list": 0.5, "output.dir": tmp_path / "sweep"},
    )
    assert run_cli("sweep", "--config", sweep_cfg).returncode == 0
    quench_cfg = write_config(
        tmp_path / "q.cfg", **SWEEP_BASE,
        **{"model.g": 0.5, "output.dir": tmp_path / "composed"},
    )
    assert run_cli("quench", "--config", quench_cfg).returncode == 0
    assert run_cli("spectrum", "--config", quench_cfg).returncode == 0
    for name in ("trace.csv", "spectrum.csv", "peaks.json"):
        assert (tmp_path / "sweep" / name).read_bytes() == (
            tmp_path / "composed" / name
        ).read_bytes()


def test_parallel_sweep_equals_serial_bytes(tmp_path):
    cfg = dict(SWEEP_BASE, **{"sweep.g_list": "0.3, 0.5, 0.7"})
    ser = write_config(tmp_path / "ser.cfg", **cfg, **{"output.dir": tmp_path / "ser"})
    par = write_config(tmp_path / "par.cfg", **cfg, **{"output.dir": tmp_path / "par"})
    assert run_cli("sweep", "--config", ser).returncode == 0
    assert run_cli("sweep", "--config", par, "--parallel", "3").returncode == 0
    names = [p.name for p in sorted((tmp_path / "ser").iterdir()) if p.name != "run_stats.json"]
    assert "trace_p02.csv" in names
    for name in names:
        assert (tmp_path / "ser" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()


def test_gate_noisy_parallel_sweep_equals_serial_bytes(tmp_path):
    # a serial sweep forks trajectory workers for each point; in a --parallel
    # sweep every chunk, the CLI process's included, runs them itself
    cfg = dict(SWEEP_BASE, **{"sweep.g_list": "0.3, 0.5", "noise.enabled": "true", "noise.trajectories": 3})
    processes = {}
    for k in ("1", "2"):
        f = write_config(tmp_path / f"{k}.cfg", **cfg, **{"output.dir": tmp_path / k})
        res = run_cli("sweep", "--config", f, "--parallel", k)
        assert res.returncode == 0, res.stderr
        processes[k] = json.loads((tmp_path / k / "run_stats.json").read_text())["trajectory_processes"]
    assert processes == {"1": min(3, statevec.cpus()), "2": 1}
    names = [p.name for p in sorted((tmp_path / "1").iterdir()) if p.name != "run_stats.json"]
    assert "trace_p01.csv" in names
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_rerun_bytes_do_not_depend_on_the_blas_thread_setting(tmp_path):
    # the first point of the benchmark's L = 12 sweep; its ED gaps once
    # changed in the last digits with OPENBLAS_NUM_THREADS
    cfg = {"model.L": 12, "model.h": 0.3, "plan.dt": 0.1, "plan.n_steps": 200, "sweep.g_list": 0.25}
    for threads in ("1", "2"):
        f = write_config(tmp_path / f"{threads}.cfg", **cfg, **{"output.dir": tmp_path / threads})
        res = run_cli("sweep", "--config", f, env={"OPENBLAS_NUM_THREADS": threads})
        assert res.returncode == 0, res.stderr
    names = [p.name for p in sorted((tmp_path / "1").iterdir()) if p.name != "run_stats.json"]
    assert "peaks.json" in names
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_ed_bytes_do_not_depend_on_the_blas_thread_setting(tmp_path):
    # an L = 20 sector takes eigsh, which runs on scipy's own OpenBLAS; the
    # eigenvalues once changed in the last digits with OPENBLAS_NUM_THREADS
    import scipy.sparse.linalg  # noqa: F401  (loads that library, as eigsh does)

    cfg = {"model.L": 20, "model.g": 1.0, "model.h": 0.3}
    for threads in ("1", "2"):
        f = write_config(tmp_path / f"{threads}.cfg", **cfg, **{"output.dir": tmp_path / threads})
        res = run_cli("ed", "--config", f, env={"OPENBLAS_NUM_THREADS": threads})
        assert res.returncode == 0, res.stderr
        stats = json.loads((tmp_path / threads / "run_stats.json").read_text())
        assert stats["threads"]["scipy_blas"] == (1 if statevec.blas_threads("scipy") else None)
    assert (tmp_path / "1" / "levels.json").read_bytes() == (tmp_path / "2" / "levels.json").read_bytes()


def test_sweep_table_has_one_row_per_point(tmp_path):
    f = write_config(
        tmp_path / "s.cfg", **SWEEP_BASE,
        **{"sweep.g_list": "0.4, 0.6", "output.dir": tmp_path / "out"},
    )
    assert run_cli("sweep", "--config", f).returncode == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("g,h,eta,e1,e1_err")
    assert len(lines) == 2 + 2
    doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert [pt["g"] for pt in doc["points"]] == [0.4, 0.6]


def test_gate_noisy_sweep_table_names_its_noise(tmp_path):
    cfg = dict(SWEEP_BASE, **{"sweep.g_list": "0.4, 0.6", "noise.enabled": "true", "noise.trajectories": 2})
    f = write_config(tmp_path / "s.cfg", **cfg, **{"output.dir": tmp_path / "out"})
    res = run_cli("sweep", "--config", f)
    assert res.returncode == 0, res.stderr
    head = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[0].split()
    assert "noise.enabled=true" in head
    assert any(cell.startswith("noise.p2=") for cell in head)
    prov = json.loads((tmp_path / "out" / "sweep.json").read_text())["provenance"]
    assert prov["noise.enabled"] == "true" and "noise.p2" in prov and "model.g" not in prov


@pytest.mark.parametrize("h", ["0.0", "-0.2"])
def test_sweep_without_a_longitudinal_field_is_a_config_error(tmp_path, h):
    f = write_config(
        tmp_path / "s.cfg", **dict(SWEEP_BASE, **{"model.h": h}),
        **{"sweep.g_list": "0.4, 0.6", "output.dir": tmp_path / "out"},
    )
    res = run_cli("sweep", "--config", f)
    assert res.returncode == 1, res.stderr
    assert "config error" in res.stderr and "model.h > 0" in res.stderr
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- correlate

def test_correlate_outputs(tmp_path):
    f = write_config(
        tmp_path / "c.cfg",
        **{"model.L": 8, "model.g": 0.25, "model.h": 0.0, "plan.dt": 0.2,
           "plan.n_steps": 40, "output.dir": tmp_path / "out"},
    )
    res = run_cli("correlate", "--config", f)
    assert res.returncode == 0, res.stderr
    front = json.loads((tmp_path / "out" / "front.json").read_text())
    assert front["stalled"] is False
    assert front["velocity"] <= 1.2 * front["dispersion_bound"]
    rows = [
        line.split(",")
        for line in (tmp_path / "out" / "correlator.csv").read_text().splitlines()[2:]
    ]
    t0 = [float(g) for t, r, g in rows if float(t) == 0.0]
    assert len(t0) == 4 and all(abs(v) < 1e-12 for v in t0)


def test_correlate_needs_the_x_axis(tmp_path):
    f = write_config(
        tmp_path / "c.cfg",
        **{"model.L": 6, "plan.axes": "y", "output.dir": tmp_path / "out"},
    )
    res = run_cli("correlate", "--config", f)
    assert res.returncode == 1
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------- conventions

def test_exit_codes_for_config_problems(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.L = twelve\n")
    assert run_cli("quench", "--config", str(bad)).returncode == 1
    bad.write_text("frob.nicate = 1\n")
    assert run_cli("quench", "--config", str(bad)).returncode == 1
    assert run_cli("quench", "--config", str(tmp_path / "missing.cfg")).returncode == 1
    assert run_cli("frobnicate").returncode == 1
    assert run_cli().returncode == 1


def test_undecodable_config_is_a_config_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfe model.L = 4\n")
    res = run_cli("quench", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("isingspec: config error: ")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr
    assert {p.name for p in tmp_path.iterdir()} == {"run.cfg"}


def test_nothing_written_outside_the_output_directory(tmp_path):
    f = write_config(
        tmp_path / "run.cfg",
        **{"model.L": 4, "plan.n_steps": 5, "output.dir": tmp_path / "out"},
    )
    before = {p.name for p in tmp_path.iterdir()}
    res = run_cli("quench", "--config", f, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    after = {p.name for p in tmp_path.iterdir()}
    assert after - before == {"out"}


def test_run_stats_sidecar(tmp_path):
    f = write_config(
        tmp_path / "run.cfg",
        **{"model.L": 4, "plan.n_steps": 5, "output.dir": tmp_path / "out"},
    )
    assert run_cli("quench", "--config", f).returncode == 0
    stats = json.loads((tmp_path / "out" / "run_stats.json").read_text())
    assert stats["command"] == "quench"
    assert stats["max_rss_kb"] > 0
    assert "trace.csv" in stats["files"]
    # the CLI pins BLAS to one thread; a 4-site state never splits a kernel pass
    assert stats["threads"] == {"blas": 1 if statevec.blas_threads() else None, "scipy_blas": None, "kernels": 1}


def test_run_stats_records_split_kernel_passes_at_18_sites(tmp_path):
    f = write_config(
        tmp_path / "run.cfg",
        **{"model.L": 18, "plan.n_steps": 1, "output.dir": tmp_path / "out"},
    )
    assert cli.main(["quench", "--config", f]) == 0
    stats = json.loads((tmp_path / "out" / "run_stats.json").read_text())
    kernels = min(2, statevec.cpus())
    assert stats["threads"] == {
        "blas": 1 if statevec.blas_threads() else None,
        "scipy_blas": statevec.blas_threads("scipy"),
        "kernels": kernels,
    }


@pytest.mark.parametrize("trajectories", [None, 1, 3])
def test_run_stats_records_trajectory_processes(tmp_path, trajectories):
    noise = {} if trajectories is None else {"noise.enabled": "true", "noise.trajectories": trajectories}
    f = write_config(
        tmp_path / "run.cfg",
        **{"model.L": 6, "plan.n_steps": 5, **noise, "output.dir": tmp_path / "out"},
    )
    assert run_cli("quench", "--config", f).returncode == 0
    stats = json.loads((tmp_path / "out" / "run_stats.json").read_text())
    assert stats["trajectory_processes"] == min(trajectories or 1, statevec.cpus())


@pytest.mark.parametrize("line", ["model.g = nan", "model.h = inf", "plan.dt = inf"])
def test_non_finite_physics_exits_1_and_writes_nothing(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model.L = 4\nplan.n_steps = 3\n{line}\noutput.dir = {tmp_path / 'out'}\n")
    res = run_cli("quench", "--config", str(cfg))
    assert res.returncode == 1, res.stderr
    assert "finite" in res.stderr
    assert {p.name for p in tmp_path.iterdir()} == {"run.cfg"}


# every row runs with plan.n_steps = 10 unless it sets its own, so a sweep
# passes its spectrum check (plan.n_steps >= 7) and reaches the row's check
@pytest.mark.parametrize(
    "command, lines, shown",
    [
        ("quench", "model.L = 30", "L=30 outside"),
        ("quench", "plan.dt = -0.4", "dt must be"),
        ("quench", "plan.n_steps = 0", "n_steps must be"),
        ("quench", "plan.shots = -5", "shots must be"),
        ("quench", "noise.enabled = true\nnoise.p1 = 1.5", "p1=1.5"),
        # mitigation cannot invert a readout channel with p_eff >= 0.5
        ("quench", "plan.shots = 200\nnoise.enabled = true\nnoise.p1 = 0\nnoise.p2 = 0\n"
                   "noise.p01 = 0.5\nnoise.p10 = 0.5", "p01=0.5, p10=0.5"),
        ("quench", "plan.shots = 200\nnoise.enabled = true\nnoise.p1 = 0\nnoise.p2 = 0\n"
                   "noise.p01 = 0.7\nnoise.p10 = 0.6", "p01=0.7, p10=0.6"),
        ("ed", "model.L = 30", "model.L: "),
        ("sweep", "plan.n_steps = 0", "plan.n_steps: "),
        ("correlate", "plan.dt = -0.4", "dt must be"),
        ("ed", "ed.n_low = -3", "ed.n_low: "),
        ("sweep", "spectro.pad_factor = 0", "spectro.pad_factor: "),
        ("sweep", "spectro.window = foo", "spectro.window: "),
        ("sweep", "spectro.min_height_frac = 1.5", "spectro.min_height_frac: "),
        ("sweep", "spectro.min_height_frac = -1", "spectro.min_height_frac: "),
        ("correlate", "correlate.threshold = -1", "correlate.threshold: "),
        ("quench", "plan.seed = -1", "seed must be"),
        ("sweep", "plan.seed = -1", "seed must be"),
    ],
)
def test_out_of_range_values_exit_1_and_write_nothing(tmp_path, command, lines, shown):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model.L = 4\nplan.n_steps = 10\n{lines}\noutput.dir = {tmp_path / 'out'}\n")
    res = run_cli(command, "--config", str(cfg))
    assert res.returncode == 1, res.stderr
    assert "config error" in res.stderr and shown in res.stderr, res.stderr
    assert {p.name for p in tmp_path.iterdir()} == {"run.cfg"}


def test_negative_seed_flag_exits_1_and_writes_nothing(tmp_path):
    f = write_config(tmp_path / "run.cfg", **{"model.L": 4, "plan.n_steps": 3, "output.dir": tmp_path / "out"})
    res = run_cli("quench", "--config", f, "--seed", "-3")
    assert res.returncode == 1, res.stderr
    assert "config error" in res.stderr and "seed" in res.stderr
    assert {p.name for p in tmp_path.iterdir()} == {"run.cfg"}


# --parallel exists on sweep alone, and a count below 1 is one line of config error
@pytest.mark.parametrize(
    "command, k, shown, lines",
    [
        ("sweep", "0", "config error: --parallel must be at least 1, got 0", 1),
        ("sweep", "-3", "config error: --parallel must be at least 1, got -3", 1),
        ("quench", "2", "unrecognized arguments: --parallel 2", 2),
    ],
)
def test_parallel_below_one_or_off_the_sweep_exits_1_and_writes_nothing(tmp_path, command, k, shown, lines):
    f = write_config(
        tmp_path / "run.cfg",
        **{"model.L": 4, "plan.n_steps": 10, "sweep.g_list": "0.3, 0.5", "output.dir": tmp_path / "out"},
    )
    res = run_cli(command, "--config", f, "--parallel", k)
    assert res.returncode == 1, res.stderr
    assert shown in res.stderr and len(res.stderr.splitlines()) == lines, res.stderr
    assert {p.name for p in tmp_path.iterdir()} == {"run.cfg"}


@pytest.mark.parametrize("command, line", [("ed", "ed.n_low = -3"), ("sweep", "spectro.n_low = 0")])
def test_n_low_below_one_fails_and_writes_nothing(tmp_path, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"model.L = 6\nplan.n_steps = 20\nsweep.g_list = 0.5\n{line}\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    res = run_cli(command, "--config", str(cfg))
    assert res.returncode == 1, res.stderr
    assert "n_low must be >= 1" in res.stderr
    assert {p.name for p in tmp_path.iterdir()} == {"run.cfg"}


@pytest.mark.parametrize(
    "command, key, value, shown",
    [
        ("ed", "ed.n_low", "-3", "got -3"),
        ("sweep", "spectro.pad_factor", "0", "got 0"),
        ("spectrum", "spectro.window", "foo", "got 'foo'"),
        ("sweep", "spectro.min_height_frac", "1.5", "got 1.5"),
        ("correlate", "correlate.threshold", "-1", "got -1.0"),
        # inputs the ED reference or the spectrum would reject after the quench
        ("ed", "model.L", "21", "L=21 outside supported range [2, 20]"),
        ("sweep", "model.L", "21", "L=21 outside supported range [2, 20]"),
        ("sweep", "plan.n_steps", "2", "need at least 8 samples for a spectrum, got 3"),
        ("sweep", "plan.axes", "x", "needs 'y' among the measured axes, got ('x',)"),
    ],
)
def test_analysis_setting_errors_name_the_key_and_value(tmp_path, capsys, monkeypatch, command, key, value, shown):
    def no_quench(*args, **kwargs):
        raise AssertionError("no quench may run before the settings are checked")

    monkeypatch.setattr(trotter, "run_quench", no_quench)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model.L = 6\n{key} = {value}\noutput.dir = {tmp_path / 'out'}\n")
    assert cli.main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {key}: " in err and shown in err
    assert {p.name for p in tmp_path.iterdir()} == {"run.cfg"}


def test_commands_load_neither_scipy_signal_nor_sparse_linalg(tmp_path):
    f = write_config(
        tmp_path / "run.cfg",
        **{"model.L": 8, "plan.dt": 0.2, "plan.n_steps": 40, "sweep.g_list": "0.4, 0.6",
           "output.dir": tmp_path / "out"},
    )
    script = (
        "import sys\n"
        "from isingspec import cli\n"
        "for command in ('quench', 'correlate', 'ed', 'sweep', 'spectrum'):\n"
        f"    assert cli.main([command, '--config', {f!r}]) == 0, command\n"
        "print(sorted(m for m in ('scipy.signal', 'scipy.sparse.linalg') if m in sys.modules))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path,
        env=child_env(),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-2:] == ["[]", "[]"]
    assert (tmp_path / "out" / "peaks.json").exists()


def test_exact_runs_do_not_import_numpy_random(tmp_path):
    # a noiseless exact run draws nothing, so it builds no seed sequence
    keys = {"model.L": 8, "plan.dt": 0.2, "plan.n_steps": 40, "sweep.g_list": "0.4, 0.6"}
    exact = write_config(tmp_path / "exact.cfg", **keys, **{"output.dir": tmp_path / "exact"})
    sampled = write_config(
        tmp_path / "sampled.cfg", **keys, **{"plan.shots": 100, "output.dir": tmp_path / "sampled"}
    )
    script = (
        "import sys\n"
        "from isingspec import cli\n"
        "for args in (['quench'], ['correlate'], ['sweep', '--parallel', '1']):\n"
        f"    assert cli.main([*args, '--config', {exact!r}]) == 0, args\n"
        "print('numpy.random' in sys.modules)\n"
        f"assert cli.main(['quench', '--config', {sampled!r}]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path,
        env=child_env(),
    )
    assert res.returncode == 0, res.stderr
    assert [ln for ln in res.stdout.splitlines() if ln in ("False", "True")] == ["False", "True"]


@pytest.mark.parametrize("out", ["afile/sub", "afile"])
def test_output_dir_on_a_regular_file_exits_2_and_creates_nothing(tmp_path, out):
    (tmp_path / "afile").write_text("")
    f = write_config(
        tmp_path / "run.cfg",
        **{"model.L": 4, "plan.n_steps": 3, "output.dir": tmp_path / out},
    )
    before = sorted(tmp_path.rglob("*"))
    res = run_cli("quench", "--config", f)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "cannot write" in res.stderr
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "afile").read_text() == ""


def test_a_rerun_deletes_the_files_an_earlier_run_wrote_and_this_one_did_not(tmp_path):
    out = tmp_path / "out"
    f = write_config(tmp_path / "run.cfg", **{"model.L": 4, "plan.n_steps": 5, "output.dir": out})
    assert run_cli("quench", "--config", f, "--format", "both").returncode == 0
    assert {"trace.csv", "trace.json"} <= {p.name for p in out.iterdir()}
    noisy = write_config(
        tmp_path / "noisy.cfg",
        **{"model.L": 4, "plan.n_steps": 5, "plan.shots": 200, "noise.enabled": "true",
           "noise.trajectories": 2, "output.dir": out},
    )
    assert run_cli("quench", "--config", noisy, "--format", "csv").returncode == 0
    stats = json.loads((out / "run_stats.json").read_text())
    assert {p.name for p in out.iterdir()} == {*stats["files"], "run_stats.json"} == {"trace.csv", "run_stats.json"}


def test_a_rerun_keeps_files_no_run_stats_lists(tmp_path):
    out = tmp_path / "out"
    f = write_config(tmp_path / "run.cfg", **{"model.L": 4, "plan.n_steps": 5, "output.dir": out})
    assert run_cli("quench", "--config", f, "--format", "both").returncode == 0
    (out / "notes.txt").write_text("mine\n")
    assert run_cli("quench", "--config", f, "--format", "csv").returncode == 0
    assert {p.name for p in out.iterdir()} == {"trace.csv", "run_stats.json", "notes.txt"}
    assert (out / "notes.txt").read_text() == "mine\n"


@pytest.mark.parametrize("failing_call", [2, 5])
def test_a_failed_rename_leaves_the_previous_run_intact(tmp_path, monkeypatch, capsys, failing_call):
    # the re-run moves run_stats.json, trace.csv and the stale trace.json
    # aside (calls 1-3), then renames run_stats.json and trace.csv in (4-5)
    out = tmp_path / "out"
    f = write_config(tmp_path / "run.cfg", **{"model.L": 4, "plan.n_steps": 5, "output.dir": out})
    assert cli.main(["quench", "--config", f, "--format", "both"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    calls = []

    def replace(src, dst, _orig=os.replace):
        calls.append(dst)
        if len(calls) == failing_call:
            raise OSError("rename failed")
        return _orig(src, dst)

    rerun = write_config(tmp_path / "rerun.cfg", **{"model.L": 4, "plan.n_steps": 6, "output.dir": out})
    monkeypatch.setattr(os, "replace", replace)
    assert cli.main(["quench", "--config", rerun, "--format", "csv"]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert {p.name for p in tmp_path.iterdir()} == {"run.cfg", "rerun.cfg", "out"}
