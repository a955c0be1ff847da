"""A sweep's quenches and ED references, in chunks run by trotter.forked_results.

eta_sweep runs its points in min(--parallel, points, CPUs) contiguous
chunks of quenches and ED references, the first in this process and each
other in a forked worker. With one chunk whose quenches fork no trajectory
workers, while a second CPU is free, one forked worker solves every ED
reference instead. Each sweep here is compared with its one-CPU twin, made
by reporting one CPU to statevec.cpus(). Wrappers around
edsolver.solve_sector and trotter.run_quench reach the workers through
fork. The --parallel CLI failure runs in a child process with a timeout, so
that a sweep that hangs fails the test instead.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from childenv import child_env
from isingspec import cli, edsolver, spectro, trotter
from isingspec import statevec as sv
from isingspec.model import ModelParams, NoiseParams, QuenchPlan

TEMPLATE = ModelParams(6, 0.5, 0.3)
G_LIST = [0.3, 0.5, 0.7]
PLAN = QuenchPlan(dt=0.2, n_steps=40, seed=3)


def sweep(monkeypatch, cpus, plan=PLAN, **settings):
    """eta_sweep over G_LIST as if on `cpus` CPUs."""
    monkeypatch.setattr(sv.os, "cpu_count", lambda: cpus)
    points = spectro.eta_sweep(G_LIST, 0.3, TEMPLATE, plan, **settings)
    assert multiprocessing.active_children() == []
    return points


def wrap_solver(monkeypatch, before=lambda params: None):
    """Call before(params) ahead of each solve, and tag the levels with the
    id of the process that solved them."""

    def solve(params, n_low=6, _orig=edsolver.solve_sector):
        before(params)
        levels = _orig(params, n_low)
        levels.pid = os.getpid()
        return levels

    monkeypatch.setattr(edsolver, "solve_sector", solve)


def assert_equal_points(a, b):
    assert (a.g, a.h) == (b.g, b.h)
    assert np.array_equal(a.record.times, b.record.times)
    assert a.record.per_site.keys() == b.record.per_site.keys()
    for ax in a.record.per_site:
        assert np.array_equal(a.record.per_site[ax], b.record.per_site[ax]), ax
    assert a.record.correlator is None and b.record.correlator is None
    assert np.array_equal(a.spectrum.omega, b.spectrum.omega)
    assert np.array_equal(a.spectrum.power, b.spectrum.power)
    assert (a.spectrum.window, a.spectrum.pad_factor, a.spectrum.dt, a.spectrum.n_samples) == (
        b.spectrum.window, b.spectrum.pad_factor, b.spectrum.dt, b.spectrum.n_samples
    )
    assert a.peaks.peaks == b.peaks.peaks
    assert a.peaks.d_omega == b.peaks.d_omega
    for name in ("eigenvalues", "levels", "multiplicities"):
        assert np.array_equal(getattr(a.levels, name), getattr(b.levels, name)), name
    assert (a.levels.method, a.levels.residual, a.levels.dim) == (
        b.levels.method, b.levels.residual, b.levels.dim
    )


@pytest.mark.parametrize("shots", [0, 2000], ids=["exact", "sampled"])
def test_ed_worker_sweep_equals_the_one_cpu_sweep(monkeypatch, shots):
    wrap_solver(monkeypatch)
    plan = QuenchPlan(dt=0.2, n_steps=80, seed=11, shots=shots)
    forked = sweep(monkeypatch, 2, plan)
    serial = sweep(monkeypatch, 1, plan)
    assert len(forked) == len(serial) == len(G_LIST)
    for a, b in zip(forked, serial):
        assert a.levels.pid != os.getpid()
        assert b.levels.pid == os.getpid()
        assert any(p.label != "unassigned" for p in a.peaks)
        assert_equal_points(a, b)


def test_a_parallel_sweep_runs_on_no_more_processes_than_cpus(monkeypatch):
    # 3 points on 2 CPUs: point 0 in this process, points 1 and 2 in one worker
    wrap_solver(monkeypatch)
    forked = sweep(monkeypatch, 2, processes=3)
    serial = sweep(monkeypatch, 1, processes=3)
    pids = [p.levels.pid for p in forked]
    assert pids[0] == os.getpid() and pids[1] == pids[2] != os.getpid()
    for a, b in zip(forked, serial):
        assert b.levels.pid == os.getpid()
        assert_equal_points(a, b)


def test_forked_workers_keep_the_blas_pin_and_one_cpu(monkeypatch):
    # fork copies numpy's BLAS pin, so the workers need no initializer
    monkeypatch.setattr(sv.os, "cpu_count", lambda: 2)
    sv.pin_blas_threads()
    probe = lambda: (os.getpid(), sv.blas_threads(), sv.cpus())  # noqa: E731
    here, there = trotter.forked_results(probe, [[()], [()]])
    assert multiprocessing.active_children() == []
    assert here == (os.getpid(), 1, 1)
    assert there[0] != os.getpid() and there[1:] == (1, 1)
    assert sv.cpus() == 2
    with sv.serial_passes():
        assert sv.cpus() == 1


def solved_here(params):
    assert multiprocessing.parent_process() is None, "an ED reference ran in a worker"


def test_gate_noisy_sweep_starts_no_ed_worker(monkeypatch, tmp_path):
    # its trajectory workers hold the second CPU
    wrap_solver(monkeypatch, solved_here)
    monkeypatch.setattr(sv.os, "cpu_count", lambda: 2)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model.L = 6\nmodel.h = 0.3\nplan.dt = 0.2\nplan.n_steps = 40\nsweep.g_list = 0.4, 0.6\n"
        "noise.enabled = true\nnoise.trajectories = 3\n"
    )
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "run_stats.json").read_text())["trajectory_processes"] == 2
    assert multiprocessing.active_children() == []


def test_one_trajectory_noisy_sweep_uses_the_ed_worker(monkeypatch):
    # one trajectory runs in one process, so the second CPU is free
    wrap_solver(monkeypatch)
    plan = QuenchPlan(dt=0.2, n_steps=40, seed=3, shots=500, noise=NoiseParams(trajectories=1))
    forked = sweep(monkeypatch, 2, plan)
    serial = sweep(monkeypatch, 1, plan)
    for a, b in zip(forked, serial):
        assert a.levels.pid != os.getpid()
        assert_equal_points(a, b)


def test_a_sweep_without_references_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    serial = sweep(monkeypatch, 1, n_low=None)
    monkeypatch.setattr(os, "fork", no_fork)
    points = sweep(monkeypatch, 2, n_low=None)
    monkeypatch.undo()
    for a, b in zip(points, serial):
        assert a.levels is None and b.levels is None
        assert a.peaks.peaks == b.peaks.peaks
        assert np.array_equal(a.record.per_site["y"], b.record.per_site["y"])


def stall(params):
    time.sleep(30)


def exit_silently(params):
    os._exit(3)


def not_converged(params):
    raise edsolver.ConvergenceError("eigensolver residual 1.00e-03 exceeds 1e-08", 1e-3)


def wrap_quench(monkeypatch, failing_g):
    """Make trotter.run_quench raise at g = failing_g."""

    def run_quench(params, plan, *args, _orig=trotter.run_quench):
        if params.g == failing_g:
            raise ValueError("quench failed")
        return _orig(params, plan, *args)

    monkeypatch.setattr(trotter, "run_quench", run_quench)


def test_a_failing_quench_terminates_the_ed_worker(monkeypatch):
    # the worker stalls, so the sweep ends soon only if it is terminated
    wrap_solver(monkeypatch, stall)
    wrap_quench(monkeypatch, 0.5)
    started = time.monotonic()
    with pytest.raises(ValueError, match="^quench failed$"):
        sweep(monkeypatch, 2)
    assert time.monotonic() - started < 15
    assert multiprocessing.active_children() == []


def test_an_ed_worker_that_dies_silently_is_an_error(monkeypatch):
    wrap_solver(monkeypatch, exit_silently)
    with pytest.raises(RuntimeError, match="exited with code 3"):
        sweep(monkeypatch, 2)
    assert multiprocessing.active_children() == []


def test_an_ed_failure_in_the_worker_reaches_the_caller(monkeypatch):
    wrap_solver(monkeypatch, not_converged)
    with pytest.raises(edsolver.ConvergenceError, match="residual 1.00e-03") as info:
        sweep(monkeypatch, 2)
    assert info.value.residual == 1e-3
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "failure, message",
    [("quench", "quench failed"), ("exit", "exited with code 3"), ("convergence", "residual 1.00e-03")],
)
def test_cli_failures_beside_the_ed_worker_exit_2_and_write_nothing(
    monkeypatch, tmp_path, capsys, failure, message
):
    if failure == "quench":
        wrap_quench(monkeypatch, 0.5)
    else:
        wrap_solver(monkeypatch, exit_silently if failure == "exit" else not_converged)
    monkeypatch.setattr(sv.os, "cpu_count", lambda: 2)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.L = 6\nmodel.h = 0.3\nplan.dt = 0.2\nplan.n_steps = 40\nsweep.g_list = 0.3, 0.5, 0.7\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_an_ed_failure_in_a_parallel_sweep_exits_2_and_writes_nothing(tmp_path):
    # the chunk in the CLI process fails and the worker is terminated; a
    # worker's exception that could not be unpickled once hung the sweep
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.L = 6\nmodel.h = 0.3\nplan.dt = 0.2\nplan.n_steps = 40\nsweep.g_list = 0.3, 0.5\n")
    script = (
        "import os\n"
        "from isingspec import cli, edsolver\n"
        "os.cpu_count = lambda: 2\n"
        "def solve_sector(params, n_low=6):\n"
        "    raise edsolver.ConvergenceError('eigensolver residual 1.00e-03 exceeds 1e-08', 1e-3)\n"
        "edsolver.solve_sector = solve_sector\n"
        f"raise SystemExit(cli.main(['sweep', '--config', {str(cfg)!r}, '--parallel', '2', '--out', 'out']))\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path,
        env=child_env(), timeout=60,
    )
    assert res.returncode == 2, res.stderr
    assert "residual 1.00e-03" in res.stderr
    assert not (tmp_path / "out").exists()
