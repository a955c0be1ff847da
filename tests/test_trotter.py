import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import oracles
from isingspec import noise, obs
from isingspec import statevec as sv
from isingspec import trotter
from isingspec.model import ModelParams, NoiseParams, QuenchPlan


def run_step_dense(step: trotter.TrotterStep) -> np.ndarray:
    """Multiply the step's gates into one dense unitary, first gate rightmost."""
    U = np.eye(2**step.L, dtype=complex)
    for gate in step.gates:
        U = oracles.embed_gate(gate.matrix, gate.sites, step.L) @ U
    return U


def test_single_site_step_matrix_is_the_closed_form():
    import scipy.linalg

    g, h, dt = 0.45, 0.3, 0.37
    expected = scipy.linalg.expm(1j * dt * (g * oracles.Z + h * oracles.X))
    assert np.abs(trotter.single_site_step_matrix(g, h, dt) - expected).max() < 1e-12


def test_bond_layers_for_even_and_odd_length():
    odd, even = trotter._bond_layers(6)
    assert odd == [1, 3, 5]
    assert even == [2, 4, 6]
    # odd rings move the wrap bond (L, 1) into the even layer
    odd, even = trotter._bond_layers(5)
    assert odd == [1, 3]
    assert even == [2, 4, 5]


def test_step_unitary_matches_dense_oracle():
    for L in (4, 5):
        p = ModelParams(L, 0.45, 0.25)
        step = trotter.build_step(p, dt=0.3)
        expected = oracles.step_unitary(L, p.g, p.h, 0.3)
        assert np.abs(run_step_dense(step) - expected).max() < 1e-10


def test_step_gate_budget():
    p = ModelParams(6, 0.5, 0.3)
    step = trotter.build_step(p, dt=0.4)
    counts = step.gate_counts
    assert counts["1q"] == 6
    assert counts["2q"] == 6
    assert counts["cnot"] == 0


def test_native_decomposition_preserves_the_unitary():
    p = ModelParams(4, 0.5, 0.3)
    step = trotter.build_step(p, dt=0.4)
    native = trotter.decompose_to_native(step)
    assert native.native
    # each xx rotation costs 2 cnots plus single-qubit frame changes
    assert native.gate_counts["cnot"] == 2 * step.gate_counts["2q"]
    assert np.abs(run_step_dense(native) - run_step_dense(step)).max() < 1e-10


def test_native_decomposition_edge_angles():
    for theta in (0.0, np.pi / 2, -1.3):
        gate = sv.xx_rotation_gate(theta, 1, 2)
        step = trotter.TrotterStep([gate], dt=theta, L=2)
        native = trotter.decompose_to_native(step)
        assert np.abs(run_step_dense(native) - gate.matrix).max() < 1e-10


def test_first_order_convergence_toward_exact_evolution():
    # fixed horizon T: the state error of the product formula shrinks like dt
    p = ModelParams(6, 0.5, 0.3)
    T = 2.4
    errs = []
    dts = [0.2, 0.1, 0.05]
    exact = sv.exact_evolve(sv.init_all_plus(p.L), p, dt=T, n_steps=1)[-1]
    for dt in dts:
        st = sv.init_all_plus(p.L)
        step = trotter.build_step(p, dt)
        for _ in range(round(T / dt)):
            for gate in step.gates:
                sv.apply_gate(st, gate)
        errs.append(np.linalg.norm(st.amplitudes - exact.amplitudes))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 0.8 < slope < 1.2


def test_commuting_quench_is_exact_and_stationary():
    # g = h = 0 leaves only mutually commuting bonds; |+...+> is an eigenstate
    p = ModelParams(8, 0.0, 0.0)
    rec = trotter.run_quench(p, QuenchPlan(dt=0.4, n_steps=25))
    assert np.abs(rec.sigma_y).max() < 1e-12
    assert np.abs(rec.sigma_x - 1.0).max() < 1e-12


def test_quench_record_shape_and_grid():
    p = ModelParams(6, 0.5, 0.3)
    rec = trotter.run_quench(p, QuenchPlan(dt=0.4, n_steps=10))
    assert rec.times.shape == (11,)
    assert np.abs(np.diff(rec.times) - 0.4).max() < 1e-12
    assert rec.per_site["y"].shape == (11, 6)
    assert rec.sigma_x[0] == pytest.approx(1.0)
    assert rec.sigma_y[0] == pytest.approx(0.0)
    assert rec.correlator is None


def test_quench_trace_matches_dense_gate_product():
    p = ModelParams(4, 0.6, 0.2)
    n = 3
    rec = trotter.run_quench(p, QuenchPlan(dt=0.3, n_steps=n))
    U = oracles.step_unitary(p.L, p.g, p.h, 0.3)
    psi = np.full(2**p.L, 2.0 ** (-p.L / 2), dtype=complex)
    for k in range(1, n + 1):
        psi = U @ psi
        assert rec.sigma_y[k] == pytest.approx(
            oracles.mean_expectation(psi, "y", p.L), abs=1e-10
        )
        assert rec.sigma_x[k] == pytest.approx(
            oracles.mean_expectation(psi, "x", p.L), abs=1e-10
        )


def test_translation_symmetry_of_per_site_traces():
    # uniform couplings on a ring: every site sees the same history
    p = ModelParams(8, 0.5, 0.3)
    rec = trotter.run_quench(p, QuenchPlan(dt=0.4, n_steps=15))
    for axis in ("x", "y"):
        spread = np.ptp(rec.per_site[axis], axis=1)
        assert spread.max() < 1e-9


def test_noiseless_exact_run_measures_without_copies_or_site_loops(monkeypatch):
    calls = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(sv.StateVector, "copy")
    counted(sv, "site_expectations")
    counted(obs, "correlator_tables")
    p = ModelParams(12, 0.5, 0.3)
    plan = QuenchPlan(dt=0.1, n_steps=20, measured_axes=("x", "y", "z"))
    trotter.run_quench(p, plan, record_correlator=True)
    assert not calls
    # a gate-noisy exact run is turned in place axis by axis: still no copy and
    # no site_expectations; only its correlator reads every pair of sites
    nz = NoiseParams(p1=0.01, p2=0.01, p01=0.0, p10=0.0, trajectories=1)
    trotter.run_quench(p, replace(plan, n_steps=2, noise=nz), record_correlator=True)
    assert set(calls) == {"correlator_tables"}


def test_aggregate_unknown_axis_lists_what_was_measured():
    p = ModelParams(4, 0.5, 0.3)
    rec = trotter.run_quench(p, QuenchPlan(dt=0.4, n_steps=2, measured_axes=("y",)))
    with pytest.raises(KeyError, match="y"):
        rec.aggregate("z")


def test_correlator_requires_x_axis():
    p = ModelParams(4, 0.5, 0.3)
    plan = QuenchPlan(dt=0.4, n_steps=2, measured_axes=("y",))
    with pytest.raises(ValueError, match="x"):
        trotter.run_quench(p, plan, record_correlator=True)


def test_correlator_record_shape():
    p = ModelParams(6, 0.25, 0.0)
    rec = trotter.run_quench(p, QuenchPlan(dt=0.4, n_steps=5), record_correlator=True)
    assert rec.correlator.shape == (6, 3)
    # product initial state has no connected correlations
    assert np.abs(rec.correlator[0]).max() < 1e-12


def test_sampled_quench_reproducible_and_near_exact():
    p = ModelParams(6, 0.5, 0.3)
    plan = QuenchPlan(dt=0.4, n_steps=8, shots=20000, seed=9)
    a = trotter.run_quench(p, plan)
    b = trotter.run_quench(p, plan)
    assert np.array_equal(a.sigma_y, b.sigma_y)
    exact = trotter.run_quench(p, QuenchPlan(dt=0.4, n_steps=8))
    se = 1.0 / np.sqrt(p.L * plan.shots)
    assert np.abs(a.sigma_y - exact.sigma_y).max() < 6 * se


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -0.1])
def test_step_builders_and_exact_evolution_reject_a_bad_dt(dt):
    p = ModelParams(4, 0.5, 0.3)
    with pytest.raises(ValueError, match="dt"):
        trotter.build_step(p, dt)
    with pytest.raises(ValueError, match="dt"):
        trotter.frame_layers(p, dt)
    with pytest.raises(ValueError, match="dt"):
        sv.exact_evolve(sv.init_all_plus(4), p, dt=dt, n_steps=1)


def reference_sampled_quench(params: ModelParams, plan: QuenchPlan, correlator: bool = False) -> dict[str, np.ndarray]:
    """run_quench's sampled per-site traces from unfolded layers and copy-based sampling.

    The state is never rotated: each axis is sampled from a rotated copy,
    row by row in run_quench's order (time points in turn, x first), on the
    same streams and with the same weights as run_quench: each trajectory's
    measurement stream gives every row's uniforms and its readout stream
    every row's flips. Draws go through oracles.sample_indices with gate
    noise, and through oracles.sample_orbit_layout without, since the state
    then stays translation invariant and run_quench samples it on its orbits.
    With correlator, key "G" holds G(r, t) from the x bits.
    """
    L, nz = params.L, plan.noise
    gate_noise = nz is not None and nz.has_gate_noise
    readout = nz if nz is not None and nz.has_readout_error else None
    p_mitigate = nz.p_eff if readout is not None and nz.mitigate else 0.0
    layers = trotter.frame_layers(params, plan.dt, split_bonds=gate_noise)
    n_traj = nz.trajectories if gate_noise else 1
    n_rec = plan.n_steps + 1
    order = sorted(plan.measured_axes, key=lambda ax: ax != "x")
    per_site = {ax: np.zeros((n_rec, L)) for ax in plan.measured_axes}
    if correlator:
        per_site["G"] = np.zeros((n_rec, L // 2))
    total = 0
    for t, traj_ss in enumerate(np.random.SeedSequence(plan.seed).spawn(n_traj)):
        shots = plan.shots // n_traj + (1 if t < plan.shots % n_traj else 0)
        total += shots
        gate_rng, meas_rng, flip_rng = map(np.random.default_rng, traj_ss.spawn(3))
        state = sv.init_all_plus(L)
        for k in range(n_rec):
            for layer in layers if k > 0 else ():
                layer.apply(state)
                if gate_noise:
                    noise.apply_gate_noise(state, layer.kind, layer.sites, nz, gate_rng)
            for ax in order:
                probs = sv.measurement_probabilities(state, ax)
                if gate_noise:
                    bits = oracles.bits_from_indices(*oracles.sample_indices(probs, shots, meas_rng), L)
                else:
                    bits = oracles.bits_from_indices(oracles.sample_orbit_layout(probs, shots, meas_rng), 1, L)
                if readout is not None:
                    bits = oracles.twirled_flips(bits, readout.p_eff, flip_rng)
                per_site[ax][k] += shots * noise.trex_mitigate(oracles.estimates_from_bits(bits), p_mitigate)
                if correlator and ax == "x":
                    per_site["G"][k] += shots * obs.correlator_profile_from_bits(bits, 1.0 - 2.0 * p_mitigate)
    return {ax: v / total for ax, v in per_site.items()}


@pytest.mark.parametrize("g, h", [(0.5, 0.3), (0.0, 0.0)])
@pytest.mark.parametrize("L", [2, 3, 5, 8])
# every order _sampling_order yields: x first, then the others as given;
# a noiseless run with one turned axis folds that turn's right phases
@pytest.mark.parametrize(
    "axes", [("y",), ("z",), ("y", "x"), ("x", "y", "z"), ("x",), ("x", "z"), ("z", "y"), ("y", "z", "x")]
)
@pytest.mark.parametrize("gate_noise, asymmetric", [(False, False), (False, True), (True, False), (True, True)])
def test_sampled_run_with_folded_rotations_equals_copy_based_sampling(g, h, L, axes, gate_noise, asymmetric):
    # run_quench rotates the state in place and undoes the rotation within the
    # next step's first layer; the draws must land on the same indices
    nz = NoiseParams(
        p1=0.02 if gate_noise else 0.0, p2=0.05 if gate_noise else 0.0,
        p01=0.06 if asymmetric else 0.0, p10=0.01 if asymmetric else 0.0, trajectories=3,
    )
    plan = QuenchPlan(dt=0.3, n_steps=6, shots=600, seed=L, measured_axes=axes, noise=nz)
    params = ModelParams(L, g, h)
    rec = trotter.run_quench(params, plan)
    expected = reference_sampled_quench(params, plan if not nz.is_null else replace(plan, noise=None))
    for ax in axes:
        assert np.array_equal(rec.per_site[ax], expected[ax]), ax


@pytest.mark.parametrize("axes", [("x", "y"), ("y", "x", "z"), ("z", "x")])
@pytest.mark.parametrize("asymmetric", [False, True])
def test_sampled_correlator_read_before_a_folded_turn_equals_copy_based_sampling(axes, asymmetric):
    # the x rows are read between the bond diagonal, which holds the y turn's
    # right phases when y is the one turned axis, and the y turn
    nz = NoiseParams(p1=0.0, p2=0.0, p01=0.06 if asymmetric else 0.0, p10=0.01 if asymmetric else 0.0)
    plan = QuenchPlan(dt=0.3, n_steps=6, shots=600, seed=9, measured_axes=axes, noise=nz if asymmetric else None)
    params = ModelParams(6, 0.5, 0.3)
    rec = trotter.run_quench(params, plan, record_correlator=True)
    expected = reference_sampled_quench(params, plan, correlator=True)
    assert np.array_equal(rec.correlator, expected["G"])
    for ax in axes:
        assert np.array_equal(rec.per_site[ax], expected[ax]), ax


def take_only_the_orbit_path(monkeypatch):
    def orbit_weights(state, axes, carried=None, out=None, orbits=False, folded=False, _orig=sv.turn_weights):
        if not orbits:
            raise AssertionError("a noiseless state was sampled from its full CDF")
        return _orig(state, axes, carried, out, orbits, folded)

    monkeypatch.setattr(sv, "turn_weights", orbit_weights)


def test_readout_noisy_sampled_quench_on_the_orbits_stays_near_the_exact_values(monkeypatch):
    # readout error leaves the state alone, so the run samples its orbits;
    # twirling and TREX mitigation must still undo the flips on average
    take_only_the_orbit_path(monkeypatch)
    params = ModelParams(6, 0.8, 0.4)
    nz = NoiseParams(p1=0.0, p2=0.0, p01=0.06, p10=0.02)
    plan = QuenchPlan(dt=0.3, n_steps=8, shots=4000, measured_axes=("x", "y", "z"), seed=3, noise=nz)
    rec = trotter.run_quench(params, plan)
    exact = trotter.run_quench(params, replace(plan, shots=0, noise=None))
    q = 1.0 - 2.0 * nz.p_eff
    for ax in "xyz":
        e = exact.per_site[ax]
        se = np.sqrt(1.0 - (q * e) ** 2) / (q * np.sqrt(plan.shots))
        # the largest |deviation| / se over these 162 values was 4.5 in 40 seeds
        assert (np.abs(rec.per_site[ax] - e) < 6.0 * se).all(), ax


def test_noiseless_sampled_correlator_on_the_orbits_stays_near_the_exact_one(monkeypatch):
    # correlate's run: G(r, t) from the x bits that the orbit sampler draws
    take_only_the_orbit_path(monkeypatch)
    params = ModelParams(8, 0.5, 0.2)
    plan = QuenchPlan(dt=0.25, n_steps=10, shots=4000, measured_axes=("x",), seed=4)
    rec = trotter.run_quench(params, plan, record_correlator=True)
    exact = trotter.run_quench(params, replace(plan, shots=0), record_correlator=True)
    # every G(r, t) spread by at most 0.44 / sqrt(shots) over 40 seeds, and
    # the largest deviation was 1.8 of this se
    se = 0.5 / np.sqrt(plan.shots)
    assert np.abs(rec.correlator - exact.correlator).max() < 4.0 * se
    assert np.abs(exact.correlator).max() > 10.0 * se  # there is a signal to miss


def test_folded_layers_are_built_once_per_sampled_run(monkeypatch):
    calls = []

    def counting(mats, _orig=sv.fuse_site_matrices):
        calls.append(len(mats))
        return _orig(mats)

    monkeypatch.setattr(sv, "fuse_site_matrices", counting)
    nz = NoiseParams(p1=0.01, p2=0.02, p01=0.03, p10=0.01, trajectories=2)
    counts = {}
    for g, h in ((0.5, 0.3), (0.0, 0.0)):
        for n_steps in (3, 30):
            sv._rotation_blocks.cache_clear()
            calls.clear()
            plan = QuenchPlan(dt=0.2, n_steps=n_steps, shots=100, measured_axes=("x", "y", "z"), noise=nz)
            trotter.run_quench(ModelParams(6, g, h), plan)
            counts[g, n_steps] = len(calls)
    assert counts[0.5, 3] == counts[0.5, 30] and counts[0.0, 3] == counts[0.0, 30]


@pytest.mark.parametrize(
    "noise_params",
    [None, NoiseParams(p1=0.01, p2=0.05, p01=0.03, p10=0.01, trajectories=1)],
    ids=["noiseless", "gate-and-readout-noisy"],
)
def test_sampled_run_holds_under_two_states_of_memory(noise_params):
    # the state is rotated in place and its CDF overwrites its outcome
    # weights, which live only while their block holds rows, and gate-noise
    # Paulis are applied by chunks, so no rotated copy or second 2**L
    # float64 array is alive at the peak
    L = 16
    plan = QuenchPlan(dt=0.4, n_steps=2, shots=4096, measured_axes=("x", "y"), noise=noise_params)
    trotter.run_quench(ModelParams(4, 0.5, 0.3), plan)  # warm up: first calls import lazily
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trotter.run_quench(ModelParams(L, 0.5, 0.3), plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 2 * 16 * 2**L
