import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from isingspec import obs, statevec as sv, trotter
from isingspec.model import ModelParams, QuenchPlan
from isingspec.obs import CorrelatorField


def x_ghz(L: int) -> sv.StateVector:
    """(|+...+> + |-...->)/sqrt(2): <XX> = 1 everywhere, <X> = 0."""
    amps = np.zeros(2**L, dtype=complex)
    amps[0] = 1 / np.sqrt(2)
    amps[-1] = 1 / np.sqrt(2)
    return sv.StateVector(L, amps)  # x-frame amplitudes: |0...0> is |+...+>


def test_product_state_has_no_connected_correlations():
    st = sv.init_all_plus(6)
    for r in range(1, 4):
        assert abs(obs.correlator_profile(sv.measurement_probabilities(st, "x"))[r - 1]) < 1e-12


def test_ghz_state_is_fully_correlated():
    st = x_ghz(6)
    for r in range(1, 4):
        assert obs.correlator_profile(sv.measurement_probabilities(st, "x"))[r - 1] == pytest.approx(1.0, abs=1e-12)


def test_profile_matches_sitewise_average():
    rng = np.random.default_rng(6)
    amps = rng.normal(size=2**6) + 1j * rng.normal(size=2**6)
    st = sv.StateVector(6, amps / np.linalg.norm(amps))
    prof = obs.correlator_profile(sv.measurement_probabilities(st, "x"))
    assert prof.shape == (3,)
    x = sv.site_expectations(st, "x")
    for r in range(1, 4):
        acc = 0.0
        for j in range(6):
            k = (j + r) % 6
            pair = st.copy()
            # <X_j X_k> via parity of the two rotated bits
            sv.apply_gate(pair, sv.h_gate(j + 1))
            sv.apply_gate(pair, sv.h_gate(k + 1))
            probs = np.abs(oracles.hadamard_all(pair.amplitudes)) ** 2
            idx = np.arange(2**6)
            signs = 1.0 - 2.0 * (((idx >> j) & 1) ^ ((idx >> k) & 1))
            acc += float(probs @ signs) - x[j] * x[k]
        assert prof[r - 1] == pytest.approx(acc / 6, abs=1e-10)


def test_profile_from_bits_converges():
    rng = np.random.default_rng(44)
    st = x_ghz(6)
    idx, counts = sv.sample_index_counts(st, "x", 100_000, rng)
    bits = sv.bits_from_indices(idx, counts, 6)
    prof = obs.correlator_profile_from_bits(bits)
    assert np.abs(prof - 1.0).max() < 0.02


@settings(max_examples=60, deadline=None, database=None)
@given(
    L=st.integers(2, 9),
    shots=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    p_one=st.floats(0.0, 1.0),
    mitigation=st.one_of(st.just(1.0), st.floats(0.2, 1.0)),
)
def test_sampled_correlator_matches_the_pair_loop(L, shots, seed, p_one, mitigation):
    bits = (np.random.default_rng(seed).random((shots, L)) < p_one).astype(np.uint8)
    got = obs.correlator_profile_from_bits(bits, mitigation)
    want = oracles.sampled_correlator(bits, mitigation)
    assert got.shape == (L // 2,)
    assert np.abs(got - want).max() <= 1e-12


def test_field_from_record_requires_the_correlator():
    p = ModelParams(6, 0.25, 0.0)
    rec = trotter.run_quench(p, QuenchPlan(dt=0.4, n_steps=3))
    with pytest.raises(ValueError):
        obs.field_from_record(rec)
    rec = trotter.run_quench(p, QuenchPlan(dt=0.4, n_steps=3), record_correlator=True)
    fld = obs.field_from_record(rec)
    assert fld.L == 6
    assert fld.values.shape == (4, 3)
    assert fld.rs.tolist() == [1, 2, 3]


def test_field_from_record_takes_L_from_the_site_traces():
    # L // 2 correlator columns cannot tell L = 7 from L = 6
    rec = trotter.run_quench(
        ModelParams(7, 0.25, 0.1), QuenchPlan(dt=0.4, n_steps=3), record_correlator=True
    )
    fld = obs.field_from_record(rec)
    assert fld.L == 7
    assert fld.rs.tolist() == [1, 2, 3]
    assert fld.values.shape == (4, 3)


def synthetic_front(v: float, L: int = 12, n: int = 60, dt: float = 0.25) -> CorrelatorField:
    times = np.arange(n + 1) * dt
    rs = np.arange(1, L // 2 + 1)
    values = (rs[None, :] <= v * times[:, None]).astype(float) * 0.1
    return CorrelatorField(times, values, L)


def test_front_velocity_on_a_synthetic_cone():
    fld = synthetic_front(v=1.5)
    fit = obs.lightcone_front(fld, threshold=0.02)
    assert fit.has_front
    assert not fit.stalled
    assert fit.velocity == pytest.approx(1.5, rel=0.15)
    assert fit.radii.max() == 6


def test_front_that_never_starts():
    fld = CorrelatorField(np.arange(8) * 0.5, np.zeros((8, 5)), 10)
    fit = obs.lightcone_front(fld, threshold=0.02)
    assert not fit.has_front
    assert fit.stalled
    assert np.isnan(fit.velocity)


def test_stalled_front_is_flagged():
    # front reaches r = 2 and freezes well short of L // 2
    times = np.arange(40) * 0.25
    values = np.zeros((40, 6))
    values[5:, 0] = 0.1
    values[10:, 1] = 0.1
    fit = obs.lightcone_front(CorrelatorField(times, values, 12), threshold=0.02)
    assert fit.stalled
    assert fit.radii.max() == 2


def test_threshold_must_be_positive():
    with pytest.raises(ValueError):
        obs.lightcone_front(synthetic_front(1.0), threshold=0.0)


def test_oscillation_count_on_a_cosine():
    times = np.arange(101) * 0.1
    values = np.zeros((101, 4))
    values[:, 1] = 0.05 * np.cos(2.0 * times)  # extrema at t = k*pi/2, k = 1..6
    fld = CorrelatorField(times, values, 8)
    assert obs.oscillation_count(fld, 2) == 6
    assert obs.oscillation_count(fld, 1) == 0  # flat channel
    with pytest.raises(ValueError):
        obs.oscillation_count(fld, 5)


def test_oscillation_count_ignores_tiny_wiggles():
    times = np.arange(50) * 0.1
    rng = np.random.default_rng(2)
    values = np.zeros((50, 3))
    values[:, 0] = np.linspace(0, 1, 50) + rng.normal(scale=1e-9, size=50)
    fld = CorrelatorField(times, values, 6)
    assert obs.oscillation_count(fld, 1, min_step=1e-6) == 0


def test_max_group_velocity_saturates_at_criticality():
    assert obs.max_group_velocity(0.25) == pytest.approx(0.5)
    assert obs.max_group_velocity(1.0) == pytest.approx(2.0)
    assert obs.max_group_velocity(3.0) == pytest.approx(2.0)


def test_free_quench_front_obeys_the_light_cone():
    p = ModelParams(12, 0.25, 0.0)
    rec = trotter.run_quench(p, QuenchPlan(dt=0.2, n_steps=60), record_correlator=True)
    fld = obs.field_from_record(rec)
    fit = obs.lightcone_front(fld, threshold=0.02)
    assert fit.has_front and not fit.stalled
    assert fit.velocity <= 1.2 * 2 * obs.max_group_velocity(p.g)
