"""The x-frame Trotter engine against dense references and a gate-by-gate replay."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from isingspec import noise, obs, statevec as sv, trotter
from isingspec.model import ModelParams, QuenchPlan
from isingspec.noise import NoiseParams

fields = st.one_of(st.just(0.0), st.floats(0.0, 1.5))


def dense_correlator(psi: np.ndarray, L: int) -> np.ndarray:
    """G(r) = (1/L) sum_i [<X_i X_{i+r}> - <X_i><X_{i+r}>] from dense operators."""
    xpsi = [oracles.op_at(oracles.X, j, L) @ psi for j in range(1, L + 1)]
    m = [float(np.real(np.vdot(psi, v))) for v in xpsi]
    out = []
    for r in range(1, L // 2 + 1):
        acc = 0.0
        for i in range(L):
            j = (i + r) % L
            acc += float(np.real(np.vdot(xpsi[i], xpsi[j]))) - m[i] * m[j]
        out.append(acc / L)
    return np.array(out)


@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(L=st.integers(2, 9), g=fields, h=fields,
       dt=st.floats(0.0, 0.8, exclude_min=True))
def test_exact_quench_matches_dense_step_products(L, g, h, dt):
    n = 3
    rec = trotter.run_quench(
        ModelParams(L, g, h), QuenchPlan(dt=dt, n_steps=n), record_correlator=True
    )
    U = oracles.step_unitary(L, g, h, dt)
    psi = np.full(2**L, 2.0 ** (-L / 2), dtype=complex)
    for k in range(n + 1):
        for axis in "xy":
            expected = [oracles.site_expectation(psi, axis, j, L) for j in range(1, L + 1)]
            assert np.abs(rec.per_site[axis][k] - expected).max() < 1e-12
        assert np.abs(rec.correlator[k] - dense_correlator(psi, L)).max() < 1e-12
        psi = U @ psi


def replay_noisy_quench(params, plan, nz):
    """run_quench's noisy exact path rebuilt from the gate list, gate by gate,
    and measured on unturned copies."""
    L = params.L
    step = trotter.build_step(params, plan.dt)
    n_rec = plan.n_steps + 1
    sums = {ax: np.zeros((n_rec, L)) for ax in plan.measured_axes}
    corr = np.zeros((n_rec, L // 2))
    for traj in np.random.SeedSequence(plan.seed).spawn(nz.trajectories):
        gate_ss, _ = traj.spawn(2)
        rng = np.random.default_rng(gate_ss)
        state = sv.init_all_plus(L)
        for k in range(n_rec):
            if k > 0:
                for gate in step.gates:
                    sv.apply_gate(state, gate)
                    kind = "1q" if len(gate.sites) == 1 else "2q"
                    noise.apply_gate_noise(state, kind, gate.sites, nz, rng)
            for ax in plan.measured_axes:
                sums[ax][k] += sv.site_expectations(state, ax)
            corr[k] += obs.correlator_profile(sv.measurement_probabilities(state, "x"))
    n = nz.trajectories
    return {ax: v / n for ax, v in sums.items()}, corr / n


# L = 2: bonds (1,2) and (2,1) share both sites; L = 3: the wrap bond gets a
# layer of its own; g = h = 0: there is no on-site layer
@pytest.mark.parametrize(
    "L, g, h",
    [(6, 0.5, 0.3), (7, 0.5, 0.3), (2, 0.5, 0.3), (3, 0.5, 0.3), (5, 0.0, 0.0)],
    ids=["6", "7", "2", "3", "5-zero-fields"],
)
def test_noisy_quench_equals_gate_by_gate_replay(L, g, h):
    params = ModelParams(L, g, h)
    nz = NoiseParams(p1=0.05, p2=0.2, p01=0.0, p10=0.0, trajectories=5)
    # x, y and z: the run carries the turn from y to z and undoes z in the next step
    plan = QuenchPlan(dt=0.4, n_steps=6, measured_axes=("x", "y", "z"), seed=11, noise=nz)
    rec = trotter.run_quench(params, plan, record_correlator=True)
    per_site, corr = replay_noisy_quench(params, plan, nz)
    for ax in "xyz":
        assert np.abs(rec.per_site[ax] - per_site[ax]).max() < 1e-12
    assert np.abs(rec.correlator - corr).max() < 1e-12
    # the noise really acted: the trace is not the noiseless one. At g = h = 0
    # every trajectory stays a product of sx eigenstates, so sy reads 0 and
    # only sx shows the flips.
    ideal = trotter.run_quench(params, QuenchPlan(dt=0.4, n_steps=6))
    ax = "y" if g or h else "x"
    assert np.abs(rec.per_site[ax] - ideal.per_site[ax]).max() > 1e-3


def test_mixed_axis_probabilities_match_dense_rotations():
    rng = np.random.default_rng(9)
    L = 6
    amps = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
    state = sv.StateVector(L, amps / np.linalg.norm(amps))
    axes = ("x", "y", "z", "y", "x", "y")
    rotation = {"x": sv.HADAMARD, "y": sv.HADAMARD @ sv.S_DAGGER, "z": np.eye(2)}
    psi = oracles.hadamard_all(state.amplitudes)
    for j, ax in enumerate(axes, start=1):
        psi = oracles.op_at(rotation[ax], j, L) @ psi
    assert np.abs(sv.measurement_probabilities(state, axes) - np.abs(psi) ** 2).max() < 1e-12


def test_x_frame_measurements_match_the_lab_frame():
    rng = np.random.default_rng(5)
    L = 5
    amps = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
    lab = amps / np.linalg.norm(amps)
    framed = sv.StateVector(L, oracles.hadamard_all(lab))
    rotation = {"x": sv.HADAMARD, "y": sv.HADAMARD @ sv.S_DAGGER, "z": np.eye(2)}
    for axes in ("x", "y", "z", ("x", "y", "z", "y", "x")):
        psi = lab
        for j, ax in enumerate(axes * L if len(axes) == 1 else axes, start=1):
            psi = oracles.op_at(rotation[ax], j, L) @ psi
        diff = sv.measurement_probabilities(framed, axes) - np.abs(psi) ** 2
        assert np.abs(diff).max() < 1e-12
    for axis in "xyz":
        expected = [oracles.site_expectation(lab, axis, j, L) for j in range(1, L + 1)]
        assert np.abs(sv.site_expectations(framed, axis) - expected).max() < 1e-12
    probs = sv.measurement_probabilities(framed, "x")
    assert np.abs(obs.correlator_profile(probs) - dense_correlator(lab, L)).max() < 1e-12


def test_noiseless_step_allocates_under_a_quarter_of_the_state():
    L = 16
    layers = trotter.frame_layers(ModelParams(L, 0.5, 0.3), 0.4)
    state = sv.init_all_plus(L)
    for layer in layers:  # warm up: first calls may allocate lazily
        layer.apply(state)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for layer in layers:
            layer.apply(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < state.amplitudes.nbytes / 4


@pytest.mark.parametrize("axis", ["y", "z"])
def test_undo_folded_step_and_turns_allocate_under_a_quarter_of_the_state(axis):
    # the step that undoes a readout turn, and the turn itself with its phase
    # vectors built inside the window; a turn's only state-sized array is the
    # probabilities it returns
    L = 16
    layers = trotter.frame_layers(ModelParams(L, 0.5, 0.3), 0.4, undo=sv.readout_turn(None, axis))
    state = sv.init_all_plus(L)
    for layer in layers:  # warm up: first calls may allocate lazily
        layer.apply(state)
    sv.turn_weights(state.copy(), axis)
    sv._rotation_blocks.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for layer in layers:
            layer.apply(state)
        step_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        probs = sv.to_probabilities(sv.turn_weights(state, axis))
        turn_peak = tracemalloc.get_traced_memory()[1] - base - probs.nbytes
    finally:
        tracemalloc.stop()
    assert step_peak < state.amplitudes.nbytes / 4
    assert turn_peak < state.amplitudes.nbytes / 4


def test_exact_time_point_allocates_under_a_quarter_of_the_state():
    # one noiseless exact time point as run_quench takes it: the folded step,
    # then the orbit gather and the top-bit overlap, with the correlator
    L = 16
    layers = trotter.frame_layers(ModelParams(L, 0.5, 0.3), 0.4, fold_right=True)
    state = sv.init_all_plus(L)

    def time_point():
        for layer in layers:
            layer.apply(state)
        sums = sv.orbit_sums(state, True)
        return sv.top_site_expectations(state, layers[-1].phase, sums), obs.invariant_correlator_profile(state, sums)

    time_point()  # warm up: builds the cached orbits and their table
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        values, G = time_point()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.shape == (L // 2,) and set(values) == {"x", "y", "z"}
    assert peak - base < state.amplitudes.nbytes / 4


def test_sampled_time_point_allocates_under_a_quarter_of_the_state():
    # one noiseless sampled time point as run_quench takes it: the step that
    # undoes the y turn, then x and y written as rows of orbit weights and
    # drawn on the k = 0 orbits; no 2**L float64 array of probabilities or
    # their CDF is made
    L = 16
    layers = trotter.frame_layers(ModelParams(L, 0.5, 0.3), 0.4, undo=sv.readout_turn(None, "y"))
    state = sv.init_all_plus(L)
    values = {ax: np.full((2, L), np.nan) for ax in "xy"}
    streams = np.random.SeedSequence(3).spawn(2)
    rows = trotter._Rows(L, ("x", "y"), 4096, True, streams, None, values, None, None)

    def time_point(k):
        for layer in layers:
            layer.apply(state)
        rows.take(state, k, last=True)

    time_point(0)  # warm up: builds the cached orbits and turn layers
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        time_point(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not np.isnan(values["x"]).any() and not np.isnan(values["y"]).any()
    assert peak - base < state.amplitudes.nbytes / 4
