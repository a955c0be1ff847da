import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies

import oracles
from isingspec import edsolver, noise, obs, statevec as sv, trotter
from isingspec.model import AXES, ModelParams, NoiseParams, QuenchPlan

# test-local states are named st, so the strategies module keeps its name
fields = strategies.one_of(strategies.just(0.0), strategies.floats(0.0, 1.5))


def random_state(L: int, rng) -> sv.StateVector:
    amps = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
    amps /= np.linalg.norm(amps)
    return sv.StateVector(L, amps)


def random_invariant_state(L: int, rng) -> sv.StateVector:
    """Random k = 0 orbit coefficients, expanded to a translation-invariant state."""
    basis = edsolver.build_zero_momentum_basis(L)
    coeffs = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    coeffs /= np.linalg.norm(coeffs)
    orbit = basis.index_of[basis.rep_of]
    return sv.StateVector(L, (coeffs / np.sqrt(basis.periods))[orbit])


def rx(theta: float, site: int) -> sv.Gate:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return sv.Gate(np.array([[c, -1j * s], [-1j * s, c]]), (site,), "rx")


def test_all_plus_state():
    st = sv.init_all_plus(3)
    assert np.allclose(oracles.hadamard_all(st.amplitudes), np.full(8, 8**-0.5))
    assert st.norm() == pytest.approx(1.0)


def test_basis_state_and_bitstring_use_site_one_as_lowest_bit():
    st = sv.StateVector(3, oracles.hadamard_all(oracles.basis_state(3, 1)))
    assert sv.measurement_probabilities(st, "z")[1] == pytest.approx(1.0)
    assert np.allclose(sv.site_expectations(st, "z"), [-1.0, 1.0, 1.0])
    # site 1 is column 0 of the bit matrix
    bits = sv.bits_from_indices(np.array([1, 4, 5]), np.array([1, 1, 1]), 3)
    assert bits.tolist() == [[1, 0, 0], [0, 0, 1], [1, 0, 1]]


def test_gate_constructor_rejects_non_unitary():
    with pytest.raises(ValueError):
        sv.Gate(np.array([[1.0, 0.0], [1.0, 1.0]]), (1,))
    with pytest.raises(ValueError):
        sv.Gate(np.eye(4), (2, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gate_constructor_rejects_non_finite_matrices(bad):
    with pytest.raises(ValueError, match="not unitary"):
        sv.Gate(np.full((2, 2), bad), (1,))
    m = np.eye(4, dtype=complex)
    m[1, 2] = bad
    with pytest.raises(ValueError, match="not unitary"):
        sv.Gate(m, (1, 2))


def test_single_qubit_gates_match_dense_embedding():
    rng = np.random.default_rng(11)
    L = 5
    for gate in (sv.h_gate(2), sv.Gate(sv.PAULI_X, (4,)), sv.Gate(sv.S_DAGGER, (1,)),
                 rx(0.7, 3), sv.rz_gate(-1.2, 5)):
        st = random_state(L, rng)
        lab = oracles.embed_gate(gate.matrix, gate.sites, L) @ oracles.hadamard_all(st.amplitudes)
        expected = oracles.hadamard_all(lab)
        sv.apply_gate(st, gate)
        assert np.abs(st.amplitudes - expected).max() < 1e-12


def test_two_qubit_gates_match_dense_embedding():
    rng = np.random.default_rng(12)
    L = 5
    for gate in (sv.cnot_gate(2, 4), sv.cnot_gate(4, 2),
                 sv.xx_rotation_gate(0.37, 1, 5), sv.cnot_gate(5, 1)):
        st = random_state(L, rng)
        lab = oracles.embed_gate(gate.matrix, gate.sites, L) @ oracles.hadamard_all(st.amplitudes)
        expected = oracles.hadamard_all(lab)
        sv.apply_gate(st, gate)
        assert np.abs(st.amplitudes - expected).max() < 1e-12


def test_cnot_truth_table():
    # control site 1, target site 2: flips bit 2 only when bit 1 is set
    for idx, expected in ((0, 0), (1, 3), (2, 2), (3, 1)):
        st = sv.StateVector(2, oracles.hadamard_all(oracles.basis_state(2, idx)))
        sv.apply_gate(st, sv.cnot_gate(1, 2))
        assert sv.measurement_probabilities(st, "z")[expected] == pytest.approx(1.0)


def test_xx_rotation_matches_exponential():
    theta = 0.83
    gate = sv.xx_rotation_gate(theta, 1, 2)
    xx = np.kron(oracles.X, oracles.X)
    expected = np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * xx
    assert np.abs(gate.matrix - expected).max() < 1e-12


def test_norm_survives_a_long_random_circuit():
    rng = np.random.default_rng(7)
    L = 8
    st = random_state(L, rng)
    for _ in range(1000):
        kind = rng.integers(3)
        if kind == 0:
            sv.apply_gate(st, rx(rng.uniform(-3, 3), int(rng.integers(1, L + 1))))
        elif kind == 1:
            a, b = rng.choice(np.arange(1, L + 1), size=2, replace=False)
            sv.apply_gate(st, sv.xx_rotation_gate(rng.uniform(-3, 3), int(a), int(b)))
        else:
            a, b = rng.choice(np.arange(1, L + 1), size=2, replace=False)
            sv.apply_gate(st, sv.cnot_gate(int(a), int(b)))
    assert abs(st.norm() - 1.0) < 1e-9


def test_expectations_on_product_states():
    st = sv.init_all_plus(4)
    for axis, value in (("x", 1.0), ("y", 0.0), ("z", 0.0)):
        assert sv.site_expectations(st, axis) == pytest.approx([value] * 4)
    st = sv.StateVector(4, oracles.hadamard_all(oracles.basis_state(4, 0)))
    assert sv.site_expectations(st, "z")[1] == pytest.approx(1.0)


def test_site_expectations_match_dense_oracle():
    rng = np.random.default_rng(21)
    L = 6
    st = random_state(L, rng)
    for axis in "xyz":
        vals = sv.site_expectations(st, axis)
        lab = oracles.hadamard_all(st.amplitudes)
        expected = [oracles.site_expectation(lab, axis, j, L) for j in range(1, L + 1)]
        assert np.abs(vals - expected).max() < 1e-12


def x_frame_trotter_state(params: ModelParams, dt: float, n_steps: int, fold_right: bool = False) -> sv.StateVector:
    """|+...+> after n_steps noiseless Trotter steps, in the x frame run_quench uses."""
    st = sv.init_all_plus(params.L)
    layers = trotter.frame_layers(params, dt, fold_right=fold_right)
    for _ in range(n_steps):
        for layer in layers:
            layer.apply(st)
    return st


def assert_one_site_values_match_every_site(st: sv.StateVector) -> None:
    top = sv.top_site_expectations(st)
    for axis in "xyz":
        assert np.abs(sv.site_expectations(st, axis) - top[axis]).max() < 1e-12
    invariant = obs.invariant_correlator_profile(st)
    assert invariant.shape == (st.L // 2,)
    assert np.abs(invariant - obs.correlator_profile(sv.measurement_probabilities(st, "x"))).max() < 1e-12


def assert_folded_state_reads_as_the_physical_one(params: ModelParams, dt: float, n_steps: int) -> None:
    """The state evolved by the fold_right layers (D_R psi up to a global
    phase), read with the bond layer's phase, gives the physical state's
    full-space values."""
    physical = x_frame_trotter_state(params, dt, n_steps)
    folded = x_frame_trotter_state(params, dt, n_steps, fold_right=True)
    top = sv.top_site_expectations(folded, trotter.frame_layers(params, dt, fold_right=True)[-1].phase)
    for axis in "xyz":
        assert np.abs(sv.site_expectations(physical, axis) - top[axis]).max() < 1e-12
    invariant = obs.invariant_correlator_profile(folded)
    assert np.abs(invariant - obs.correlator_profile(sv.measurement_probabilities(physical, "x"))).max() < 1e-12


@settings(max_examples=60, deadline=None, database=None)
@given(
    L=strategies.integers(2, 9),
    g=fields,
    h=fields,
    dt=strategies.floats(0.05, 0.8),
    n_steps=strategies.integers(0, 5),
    seed=strategies.integers(0, 2**32 - 1),
)
@example(L=5, g=0.0, h=0.0, dt=0.3, n_steps=3, seed=0)
@example(L=6, g=0.7, h=0.0, dt=0.3, n_steps=3, seed=0)
def test_translation_invariant_states_are_measured_at_one_site(L, g, h, dt, n_steps, seed):
    assert_one_site_values_match_every_site(random_invariant_state(L, np.random.default_rng(seed)))
    assert_one_site_values_match_every_site(x_frame_trotter_state(ModelParams(L, g, h), dt, n_steps))
    assert_folded_state_reads_as_the_physical_one(ModelParams(L, g, h), dt, n_steps)


def test_translation_invariant_states_are_measured_at_one_site_at_L16():
    assert_one_site_values_match_every_site(random_invariant_state(16, np.random.default_rng(16)))
    assert_one_site_values_match_every_site(x_frame_trotter_state(ModelParams(16, 0.25, 0.2), 0.2, 12))
    assert_folded_state_reads_as_the_physical_one(ModelParams(16, 0.25, 0.2), 0.2, 12)


def test_measurement_probabilities_z_basis_is_amplitude_squared():
    rng = np.random.default_rng(3)
    st = random_state(4, rng)
    probs = sv.measurement_probabilities(st, "z")
    assert np.abs(probs - np.abs(oracles.hadamard_all(st.amplitudes)) ** 2).max() < 1e-14
    assert probs.sum() == pytest.approx(1.0)


def test_measurement_probabilities_normalized_in_rotated_bases():
    rng = np.random.default_rng(4)
    st = random_state(5, rng)
    for axes in ("x", "y", ("x", "y", "z", "x", "y")):
        probs = sv.measurement_probabilities(st, axes)
        assert probs.min() >= -1e-15
        assert probs.sum() == pytest.approx(1.0)


def test_sampled_estimates_converge_to_exact_expectations():
    # 20 random states; every per-site estimate within 5 standard errors
    rng = np.random.default_rng(90)
    L, shots = 5, 200_000
    for trial in range(20):
        st = random_state(L, rng)
        axis = "xyz"[trial % 3]
        exact = sv.site_expectations(st, axis)
        idx, counts = sv.sample_index_counts(st, axis, shots, np.random.default_rng(trial))
        est = sv.estimates_from_indices(idx, counts, L)
        se = np.sqrt(np.maximum(1.0 - exact**2, 1e-12) / shots)
        assert np.all(np.abs(est - exact) < 5.0 * se + 1e-12)


def test_sample_counts_keys_and_total():
    st = sv.init_all_plus(3)
    idx, counts = sv.sample_index_counts(st, "z", 4096, 5)
    assert counts.sum() == 4096
    assert np.all((0 <= idx) & (idx < 8))
    # x-basis measurement of |+++> is deterministic
    idx, counts = sv.sample_index_counts(st, "x", 512, 5)
    assert idx.tolist() == [0]
    assert counts.tolist() == [512]


def test_sampling_is_reproducible_by_seed():
    rng = np.random.default_rng(17)
    st = random_state(4, rng)
    a = sv.sample_index_counts(st, "y", 1000, 123)
    b = sv.sample_index_counts(st, "y", 1000, 123)
    c = sv.sample_index_counts(st, "y", 1000, 124)
    assert all(np.array_equal(u, v) for u, v in zip(a, b))
    assert not all(np.array_equal(u, v) for u, v in zip(a, c))


rates = strategies.one_of(strategies.just(0.0), strategies.floats(0.0, 0.3))


@settings(max_examples=80, deadline=None)
@given(
    L=strategies.integers(1, 10),
    mixed=strategies.booleans(),
    shots=strategies.integers(1, 5000),
    p01=rates,
    p10=rates,
    seed=strategies.integers(0, 2**32 - 1),
    data=strategies.data(),
)
def test_sampler_makes_the_oracle_samplers_draws(L, mixed, shots, p01, p10, seed, data):
    assume(p01 != p10)  # asymmetric readout
    axis = strategies.sampled_from(AXES)
    axes = tuple(data.draw(strategies.lists(axis, min_size=L, max_size=L))) if mixed else data.draw(axis)
    st = random_state(L, np.random.default_rng(seed))
    nz = NoiseParams(p1=0.0, p2=0.0, p01=p01, p10=p10)

    rng = np.random.default_rng(seed)
    idx, counts = oracles.sample_indices(sv.measurement_probabilities(st, axes), shots, rng)
    bits = oracles.bits_from_indices(idx, counts, L)
    twirled = oracles.twirled_readout(bits, p01, p10, rng)
    expected = (idx, counts, bits, twirled, oracles.estimates_from_bits(twirled))

    before = st.amplitudes.copy()
    samplers = {
        "copy": lambda rng: sv.sample_index_counts(st, axes, shots, rng),
        "in place": lambda rng: np.unique(
            sv.draw_shots(sv.turn_weights(st.copy(), axes)[None], shots, rng), return_counts=True
        ),
    }
    for name, sample in samplers.items():
        rng = np.random.default_rng(seed)
        idx, counts = sample(rng)
        bits = sv.bits_from_indices(idx, counts, L)
        twirled = noise.twirled_readout(bits, nz, rng)
        got = (idx, counts, bits, twirled, sv.estimates_from_bits(twirled))
        for a, b in zip(got, expected, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(st.amplitudes, before)  # the copy path leaves the state alone


def test_in_place_sampling_rotates_the_state_from_the_carried_axes():
    L = 5
    st = random_state(L, np.random.default_rng(8))
    held = st.copy()
    for carried, axes in ((None, "y"), ("y", "z"), ("z", ("x", "y", "z", "y", "x")), (("x", "y", "z", "y", "x"), "x")):
        sv.turn_weights(held, axes, carried)
        assert np.abs(np.abs(held.amplitudes) ** 2 - sv.measurement_probabilities(st, axes)).max() < 1e-12
    # undoing the last rotation gives the state back
    sv.apply_site_blocks(held, sv.fuse_site_matrices([sv.readout_turn(None, "x")] * L))
    assert np.abs(held.amplitudes - st.amplitudes).max() < 1e-12


@pytest.mark.parametrize("L", [1, 2, 3, 5])
def test_turned_weights_normalize_to_the_probabilities_of_the_turned_state(L):
    st = random_state(L, np.random.default_rng(8))
    held = st.copy()
    mixed = tuple("xyzyx"[:L])
    for carried, axes in ((None, "x"), ("x", "y"), ("y", "z"), ("z", mixed)):
        probs = sv.to_probabilities(sv.turn_weights(held, axes, carried))
        assert not np.shares_memory(probs, held.amplitudes)
        assert np.abs(probs - sv.measurement_probabilities(st, axes)).max() < 1e-12
        assert np.abs(probs - np.abs(held.amplitudes) ** 2).max() < 1e-12


@pytest.mark.parametrize("L", [2, 3, 5, 6, 9])
def test_orbit_sampler_makes_the_orbit_oracles_draws(L):
    # from a rotated copy, and after turns carried from the previous axis
    st = random_invariant_state(L, np.random.default_rng(L))
    held = st.copy()
    for carried, axis in ((None, "x"), ("x", "y"), ("y", "z"), ("z", "y")):
        expected = oracles.sample_orbit_layout(sv.measurement_probabilities(st, axis), 3000, np.random.default_rng(L))
        weights = sv.turn_weights(held, axis, carried, orbits=True)
        got = sv.draw_shots(weights[None], 3000, np.random.default_rng(L), L)[0]
        assert np.array_equal(got, expected), axis
        assert np.abs(np.abs(held.amplitudes) ** 2 - sv.measurement_probabilities(st, axis)).max() < 1e-12


def invariant_states(L: int):
    yield "random", random_invariant_state(L, np.random.default_rng(L))
    yield "t = 0", sv.init_all_plus(L)
    for g, h in ((0.0, 0.0), (0.8, 0.4)):
        st = sv.init_all_plus(L)
        for layer in trotter.frame_layers(ModelParams(L, g, h), 0.3) * 3:
            layer.apply(st)
        yield f"g = {g}, h = {h}", st


@pytest.mark.parametrize("L", [2, 3, 5, 6, 9])  # 6 and 9 have orbits of period < L; 9 is odd
def test_orbit_sampler_draws_the_outcome_probabilities(L):
    shots = 200_000
    for name, st in invariant_states(L):
        for axis in "xyz":
            p = sv.measurement_probabilities(st, axis)
            weights = sv.turn_weights(st.copy(), axis, orbits=True)
            seen = np.bincount(sv.draw_shots(weights[None], shots, np.random.default_rng(7), L)[0], minlength=2**L)
            # per-index binomial bounds; over 40 seeds of all these cases the
            # correct sampler's largest |z| was 6.0 (small counts have long tails)
            bound = 7.0 * np.sqrt(shots * p * (1.0 - p)) + 1e-6
            assert (np.abs(seen - shots * p) <= bound).all(), (name, axis)


def test_samplers_reject_fewer_than_one_shot():
    st = sv.init_all_plus(4)
    with pytest.raises(ValueError, match="plan.shots = 0"):
        sv.sample_index_counts(st, "y", 0, 1)
    for orbits in (False, True):
        with pytest.raises(ValueError, match="plan.shots = 0"):
            sv.draw_shots(sv.turn_weights(st, "y", orbits=orbits)[None], 0, 1, 4 if orbits else None)


@pytest.mark.parametrize("L", range(1, 10))
def test_bit_marginals_of_a_block_equal_each_row_alone(L):
    # trotter reads a block of exact rows in one call; each row must get the
    # numbers it got alone, to the last bit
    rng = np.random.default_rng(L)
    for rows in range(1, 5):
        block = rng.random((rows, 2**L))
        alone = np.array([sv.bit_marginals(row, L) for row in block])
        assert np.array_equal(sv.bit_marginals(block, L), alone)


def test_bits_from_indices_round_trip():
    idx = np.array([0, 3, 5])
    counts = np.array([2, 1, 1])
    bits = sv.bits_from_indices(idx, counts, 3)
    assert bits.shape == (4, 3)
    # index 5 = 101 -> site bits (1, 0, 1)
    assert bits[3].tolist() == [1, 0, 1]
    assert sv.estimates_from_bits(bits).shape == (3,)


def test_energy_expectation_matches_dense_hamiltonian():
    # random states that are not translation invariant, so every term counts
    rng = np.random.default_rng(31)
    p = ModelParams(6, 0.45, 0.25)
    dense = oracles.hamiltonian(p.L, p.g, p.h)
    for _ in range(5):
        st = random_state(p.L, rng)
        psi = oracles.hadamard_all(st.amplitudes)
        expected = float(np.real(np.vdot(psi, dense @ psi)))
        assert sv.energy_expectation(st, p) == pytest.approx(
            expected, abs=1e-12
        )


def test_energy_expectation_of_polarized_state():
    p = ModelParams(12, 0.5, 0.3)
    st = sv.init_all_plus(12)
    # -L - h*L for the fully x-polarized state
    assert sv.energy_expectation(st, p) == pytest.approx(-15.6, abs=1e-12)


def test_exact_evolve_matches_dense_expm():
    rng = np.random.default_rng(41)
    p = ModelParams(6, 0.6, 0.2)
    st = random_invariant_state(p.L, rng)
    snaps = sv.exact_evolve(st, p, dt=0.3, n_steps=5)
    assert len(snaps) == 6
    for k in (1, 3, 5):
        expected = oracles.hadamard_all(oracles.evolve(oracles.hadamard_all(st.amplitudes), p.L, p.g, p.h, 0.3 * k))
        assert np.abs(snaps[k].amplitudes - expected).max() < 1e-10


@settings(max_examples=40, deadline=None, database=None)
@given(L=strategies.integers(2, 9), g=fields, h=fields, dt=strategies.floats(0.01, 1.0))
def test_sector_evolution_of_the_polarized_state_matches_dense_expm(L, g, h, dt):
    p = ModelParams(L, g, h)
    start = sv.init_all_plus(L)
    snaps = sv.exact_evolve(start, p, dt=dt, n_steps=3)
    for k, snap in enumerate(snaps):
        expected = oracles.hadamard_all(oracles.evolve(oracles.hadamard_all(start.amplitudes), L, g, h, dt * k))
        assert np.abs(snap.amplitudes - expected).max() < 1e-10


def test_exact_evolve_rejects_a_state_that_is_not_translation_invariant():
    p = ModelParams(5, 0.5, 0.3)
    with pytest.raises(ValueError, match="translation-invariant"):
        sv.exact_evolve(sv.StateVector(5, oracles.basis_state(5, 1)), p, dt=0.1, n_steps=1)
    with pytest.raises(ValueError, match="translation-invariant"):
        sv.exact_evolve(random_state(5, np.random.default_rng(2)), p, dt=0.1, n_steps=1)


def test_exact_evolve_record_every_keeps_last_step():
    p = ModelParams(4, 0.5, 0.3)
    snaps = sv.exact_evolve(sv.init_all_plus(4), p, dt=0.1, n_steps=7, record_every=3)
    # k = 0, 3, 6 and always the final k = 7
    assert len(snaps) == 4


def test_exact_evolve_lanczos_path_conserves_energy():
    # the k = 0 sector has 2,192 dims at L = 15 (dense eigensystem) and
    # 4,116 at L = 16, above DENSE_EIG_MAX, which takes expm_multiply
    for L in (15, 16):
        p = ModelParams(L, 0.5, 0.3)
        st = sv.init_all_plus(L)
        e0 = sv.energy_expectation(st, p)
        snaps = sv.exact_evolve(st, p, dt=0.05, n_steps=4, record_every=4)
        drift = abs(sv.energy_expectation(snaps[-1], p) - e0)
        assert drift < 1e-8
        assert abs(snaps[-1].norm() - 1.0) < 1e-10


def test_exact_evolve_takes_either_sector_matrix_type(monkeypatch):
    # DENSE_EIG_MAX = 0 hands exact_evolve a sparse matrix and expm_multiply
    p = ModelParams(8, 0.5, 0.3)
    dense = sv.exact_evolve(sv.init_all_plus(8), p, dt=0.2, n_steps=5)
    monkeypatch.setattr(edsolver, "DENSE_EIG_MAX", 0)
    sparse = sv.exact_evolve(sv.init_all_plus(8), p, dt=0.2, n_steps=5)
    for a, b in zip(dense, sparse, strict=True):
        assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-10


def test_exact_evolve_at_14_sites_stays_in_the_sector():
    # a full-space dense H at L = 14 would take 2.1 GB; the sector has 1,182 dims
    p = ModelParams(14, 0.5, 0.3)
    st = sv.init_all_plus(14)
    tracemalloc.start()
    try:
        snaps = sv.exact_evolve(st, p, dt=0.1, n_steps=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(snaps) == 5
    assert peak < 200e6


def test_rotation_blocks_are_built_once_per_run_and_read_only(monkeypatch):
    calls = []

    def counting(mats, _orig=sv.fuse_site_matrices):
        calls.append(len(mats))
        return _orig(mats)

    monkeypatch.setattr(sv, "fuse_site_matrices", counting)
    counts = []
    for n_steps in (5, 50):
        sv._rotation_blocks.cache_clear()
        calls.clear()
        trotter.run_quench(
            ModelParams(8, 0.5, 0.3), QuenchPlan(dt=0.1, n_steps=n_steps, measured_axes=("x", "y", "z"))
        )
        counts.append(len(calls))
    # one build for the step layer and one per measured axis, whatever n_steps
    assert counts[0] == counts[1] <= 4
    blocks = sv._rotation_blocks(("y",) * 8)
    assert blocks
    for _, _, m in blocks:
        with pytest.raises(ValueError):
            m[0, 0] = 0.0


@pytest.fixture
def split_every_pass(monkeypatch):
    """Kernel passes split at every size, as on a host with two CPUs."""
    monkeypatch.setattr(sv, "SPLIT_MIN", 2)
    monkeypatch.setattr(sv.os, "cpu_count", lambda: 2)


def test_step_state_is_the_step_unitary_on_a_vector():
    rng = np.random.default_rng(6)
    for L, g, h in ((2, 0.5, 0.3), (5, 0.7, 0.0), (6, 0.0, 0.0)):
        psi = random_state(L, rng).amplitudes
        expected = oracles.step_unitary(L, g, h, 0.3) @ psi
        assert np.abs(oracles.step_state(psi, L, g, h, 0.3) - expected).max() < 1e-12


# L <= 4 rings have one block, starting at bit 0: no half to split off, so
# that block runs serially while the phase passes still split
@pytest.mark.parametrize("L", [2, 3, 4, 5, 7, 10])
@pytest.mark.parametrize("g, h", [(0.5, 0.3), (0.0, 0.0)])
def test_split_kernel_passes_match_dense_oracles(split_every_pass, L, g, h):
    rng = np.random.default_rng(L)
    hadamards = oracles.hadamard_all(np.eye(2**L))
    lab = random_state(L, rng).amplitudes
    passes = sv.split_passes

    # one Trotter step, both kernels: fused site blocks and phase diagonals
    st = sv.StateVector(L, hadamards @ lab)
    for layer in trotter.frame_layers(ModelParams(L, g, h), 0.3, split_bonds=True):
        layer.apply(st)
    expected = hadamards @ oracles.step_state(lab, L, g, h, 0.3)
    assert np.abs(st.amplitudes - expected).max() < 1e-12

    # the y-rotated copy behind measurement_probabilities
    rotated = hadamards @ st.amplitudes
    for j in range(1, L + 1):
        rotated = oracles.op_at(sv.HADAMARD @ sv.S_DAGGER, j, L) @ rotated
    assert np.abs(sv.measurement_probabilities(st, "y") - np.abs(rotated) ** 2).max() < 1e-12

    # distinct random unitaries per site, with identity sites in between
    mats = [None if j % 3 == 1 else np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            for j in range(L)]
    st = sv.StateVector(L, lab.copy())
    sv.apply_site_blocks(st, sv.fuse_site_matrices(mats))
    expected = lab
    for j, m in enumerate(mats, start=1):
        if m is not None:
            expected = oracles.op_at(m, j, L) @ expected
    assert np.abs(st.amplitudes - expected).max() < 1e-12
    assert sv.split_passes > passes


def u2(phi: float, a: float, b: float, c: float) -> np.ndarray:
    """e^{i phi} Rz(a) Ry(b) Rz(c): every 2x2 unitary for some angles."""
    rz = lambda t: np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
    ry = np.array([[np.cos(b / 2), -np.sin(b / 2)], [np.sin(b / 2), np.cos(b / 2)]])
    return np.exp(1j * phi) * rz(a) @ ry @ rz(c)


# generic angles, the degenerate ones (b = 0: diagonal, b = pi: anti-diagonal)
# and angles within 1e-9 of them
angles = strategies.one_of(
    strategies.floats(-np.pi, np.pi),
    strategies.sampled_from([0.0, np.pi, -np.pi, np.pi / 2]),
    strategies.floats(-1e-9, 1e-9),
    strategies.floats(-1e-9, 1e-9).map(lambda e: np.pi + e),
)
site_matrices = strategies.one_of(
    strategies.none(),
    strategies.builds(u2, angles, angles, angles, angles),
    strategies.sampled_from([sv.HADAMARD, sv.PAULI_X, sv.PAULI_Z, 1j * sv.HADAMARD]),  # real with det = -1, and i H
    strategies.builds(lambda phi, m: np.exp(1j * phi) * m, angles, strategies.sampled_from([sv.HADAMARD, sv.S_DAGGER])),
)


@settings(max_examples=150, deadline=None, database=None)
@given(data=strategies.data(), L=strategies.sampled_from([1, 2, 3, 5, 7]), split=strategies.booleans())
def test_site_layer_kernel_matches_dense_site_products(data, L, split):
    mats = data.draw(strategies.lists(site_matrices, min_size=L, max_size=L))
    lab = random_state(L, np.random.default_rng(L)).amplitudes
    expected = lab
    for j, m in enumerate(mats, start=1):
        if m is not None:
            expected = oracles.op_at(m, j, L) @ expected
    st = sv.StateVector(L, lab.copy())
    with pytest.MonkeyPatch.context() as mp:
        if split:  # as the split_every_pass fixture, which hypothesis cannot take
            mp.setattr(sv, "SPLIT_MIN", 2)
            mp.setattr(sv.os, "cpu_count", lambda: 2)
        sv.apply_site_blocks(st, sv.fuse_site_matrices(mats))
    assert np.abs(st.amplitudes - expected).max() < 1e-12


def test_split_u2_stays_finite_at_a_subnormal_angle():
    # numpy's complex division overflows on a subnormal divisor; found by the test above
    m = u2(0.0, 0.0, 2.225073858507203e-309, 1.0)
    left, rot, right = sv.split_u2(m)
    assert np.abs(np.diag(left) @ rot @ np.diag(right) - m).max() < 1e-15


def test_split_passes_are_byte_identical_to_serial_at_L18(monkeypatch):
    L = 18
    assert 1 << L >= sv.SPLIT_MIN
    rng = np.random.default_rng(18)
    amps = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
    layers = trotter.frame_layers(ModelParams(L, 1.0, 0.3), 0.4)
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(sv.os, "cpu_count", lambda: cpus)
        passes = sv.split_passes
        st = sv.StateVector(L, amps / np.linalg.norm(amps))
        for layer in layers:
            layer.apply(st)
        results.append((st.amplitudes, sv.measurement_probabilities(st, "y")))
        assert (sv.split_passes > passes) == (cpus == 2)
    (serial_amps, serial_probs), (split_amps, split_probs) = results
    assert np.array_equal(split_amps, serial_amps)
    assert np.array_equal(split_probs, serial_probs)

