"""Gate-noise trajectories spread over processes.

run_quench runs the first contiguous chunk of trajectories itself and forks
one worker per later chunk. Each run here is compared with its one-process
twin, made by reporting one CPU to statevec.cpus(), which every process
count is read through. Failing runs are made by wrapping
trotter._Rows.take, which writes each turned time point's rows: a
worker inherits the wrapper through fork, and the wrapper finds trajectory
t from its measurement stream, whose spawn key is (t, 1), and the time
point from its index.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from isingspec import cli
from isingspec import statevec as sv
from isingspec import trotter
from isingspec.model import ModelParams, NoiseParams, QuenchPlan

NOISE = NoiseParams(p1=0.01, p2=0.02, p01=0.0, p10=0.0, trajectories=4)
READOUT = NoiseParams(p1=0.01, p2=0.02, p01=0.03, p10=0.01, trajectories=4, mitigate=True)


def run(monkeypatch, cpus, params, plan, **kwargs):
    """run_quench as if on `cpus` CPUs; returns the record and the process count."""
    monkeypatch.setattr(sv.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(trotter, "trajectory_processes", 1)
    record = trotter.run_quench(params, plan, **kwargs)
    assert multiprocessing.active_children() == []
    return record, trotter.trajectory_processes


def assert_equal_records(a, b):
    assert np.array_equal(a.times, b.times)
    assert a.per_site.keys() == b.per_site.keys()
    for ax in a.per_site:
        assert np.array_equal(a.per_site[ax], b.per_site[ax]), ax
    assert (a.correlator is None) == (b.correlator is None)
    if a.correlator is not None:
        assert np.array_equal(a.correlator, b.correlator)


# 5 trajectories split 2 + 3
UNEVEN = QuenchPlan(dt=0.3, n_steps=12, shots=1001, seed=5, noise=NoiseParams(p1=0.01, p2=0.02, trajectories=5))
# 3 shots over 5 trajectories: the last two get none
SHOTLESS = QuenchPlan(dt=0.3, n_steps=12, shots=3, seed=6, noise=NoiseParams(p1=0.01, p2=0.02, trajectories=5))


@pytest.mark.parametrize(
    "plan, correlator",
    [
        # sampled, with readout twirl and mitigation
        (QuenchPlan(dt=0.3, n_steps=12, shots=2000, seed=3, measured_axes=("x", "y"), noise=READOUT), False),
        # gate-noisy exact: every pair of sites feeds the correlator
        (QuenchPlan(dt=0.3, n_steps=12, seed=4, measured_axes=("x", "y", "z"), noise=NOISE), True),
        (UNEVEN, False),
        (SHOTLESS, False),
    ],
    ids=["sampled-readout", "exact-correlator", "uneven", "shotless"],
)
def test_forked_trajectories_equal_the_one_process_run(monkeypatch, plan, correlator):
    params = ModelParams(7, 0.5, 0.3)
    forked, processes = run(monkeypatch, 2, params, plan, record_correlator=correlator)
    assert processes == 2
    serial, processes = run(monkeypatch, 1, params, plan, record_correlator=correlator)
    assert processes == 1
    assert_equal_records(forked, serial)


@pytest.mark.parametrize(
    "params, plan, correlator",
    [
        # gate- and readout-noisy, sampled, with the correlator
        (ModelParams(7, 0.5, 0.3), QuenchPlan(dt=0.3, n_steps=12, shots=2000, seed=3, measured_axes=("x", "y"), noise=READOUT), True),
        # a noiseless correlate, drawn on the k = 0 orbits
        (ModelParams(8, 0.5, 0.2), QuenchPlan(dt=0.25, n_steps=10, shots=4000, measured_axes=("x",), seed=4), True),
        # gate-noisy and exact: rows of all 2**L probabilities, read a block
        # at a time, with the correlator from every pair of sites
        (ModelParams(7, 0.5, 0.3), QuenchPlan(dt=0.3, n_steps=12, seed=4, measured_axes=("x", "y", "z"), noise=NOISE), True),
        (ModelParams(7, 0.5, 0.3), UNEVEN, False),
        (ModelParams(7, 0.5, 0.3), SHOTLESS, False),
    ],
    ids=["sampled-readout-correlator", "orbit-correlate", "exact-correlator", "uneven", "shotless"],
)
def test_block_size_and_process_count_change_nothing(monkeypatch, params, plan, correlator):
    # a budget of one float holds one row per block; the default holds several
    records = []
    for block in (trotter.BLOCK_FLOATS, 1):
        monkeypatch.setattr(trotter, "BLOCK_FLOATS", block)
        for cpus in (1, 2):
            records.append(run(monkeypatch, cpus, params, plan, record_correlator=correlator)[0])
    for record in records[1:]:
        assert_equal_records(records[0], record)


def test_one_trajectory_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    params = ModelParams(7, 0.5, 0.3)
    for noise in (None, NoiseParams(trajectories=1)):
        plan = QuenchPlan(dt=0.3, n_steps=5, shots=100, noise=noise)
        serial, _ = run(monkeypatch, 1, params, plan)
        monkeypatch.setattr(os, "fork", no_fork)
        record, processes = run(monkeypatch, 2, params, plan)
        monkeypatch.undo()
        assert processes == 1
        assert_equal_records(record, serial)


def test_gate_noisy_L18_workers_leave_the_parent_passes_serial(monkeypatch):
    # two busy processes on two CPUs: the parent's kernel passes must not add
    # a thread of their own, although its 2**18 amplitudes would split
    params = ModelParams(18, 0.5, 0.3)
    plan = QuenchPlan(dt=0.4, n_steps=2, measured_axes=("x", "y"), noise=NoiseParams(trajectories=2))
    passes = sv.split_passes
    forked, processes = run(monkeypatch, 2, params, plan)
    assert processes == 2
    assert sv.split_passes == passes
    serial, _ = run(monkeypatch, 1, params, plan)
    assert_equal_records(forked, serial)


def failing_measure(monkeypatch, trajectory, action):
    """Make the sampled run call action() at the first time point of `trajectory`."""

    def take(rows, state, k, *args, _orig=trotter._Rows.take):
        if rows.rng.bit_generator.seed_seq.spawn_key == (trajectory, 1) and k == 0:
            action()
        return _orig(rows, state, k, *args)

    monkeypatch.setattr(trotter._Rows, "take", take)


def fail():
    raise ValueError("trajectory failed")


def stall():
    time.sleep(30)


# 5 trajectories on two processes: this one runs trajectories 0-1, the worker 2-4
@pytest.mark.parametrize(
    "failures",
    [
        [(4, fail)],
        # the worker stalls, so the run ends soon only if the worker is terminated
        [(2, stall), (0, fail)],
    ],
    ids=["worker", "parent"],
)
def test_a_failing_trajectory_raises_and_leaves_no_process(monkeypatch, failures):
    for trajectory, action in failures:
        failing_measure(monkeypatch, trajectory, action)
    plan = QuenchPlan(dt=0.3, n_steps=6, shots=500, noise=NoiseParams(trajectories=5))
    started = time.monotonic()
    with pytest.raises(ValueError, match="^trajectory failed$"):
        run(monkeypatch, 2, ModelParams(6, 0.5, 0.3), plan)
    assert time.monotonic() - started < 15
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_silently_is_an_error(monkeypatch):
    failing_measure(monkeypatch, 3, lambda: os._exit(3))
    plan = QuenchPlan(dt=0.3, n_steps=6, shots=500, noise=NoiseParams(trajectories=5))
    with pytest.raises(RuntimeError, match="exited with code 3"):
        run(monkeypatch, 2, ModelParams(6, 0.5, 0.3), plan)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("trajectory", [0, 4], ids=["parent", "worker"])
def test_cli_failures_exit_as_the_serial_run_and_write_nothing(monkeypatch, tmp_path, capsys, trajectory):
    failing_measure(monkeypatch, trajectory, fail)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.L = 6\nplan.n_steps = 6\nplan.shots = 500\nnoise.enabled = true\nnoise.trajectories = 5\n")
    codes = {}
    for cpus in (1, 2):
        monkeypatch.setattr(sv.os, "cpu_count", lambda: cpus)
        out = tmp_path / f"out{cpus}"
        codes[cpus] = cli.main(["quench", "--config", str(cfg), "--out", str(out)])
        assert "trajectory failed" in capsys.readouterr().err
        assert not out.exists()
        assert multiprocessing.active_children() == []
    assert codes == {1: 2, 2: 2}
