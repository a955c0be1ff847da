import numpy as np
import pytest

import oracles
from isingspec import noise, statevec as sv, trotter
from isingspec.model import ModelParams, QuenchPlan
from isingspec.noise import NoiseParams


def test_probability_validation():
    with pytest.raises(ValueError):
        NoiseParams(p1=-0.1)
    with pytest.raises(ValueError):
        NoiseParams(p2=1.0)
    with pytest.raises(ValueError):
        NoiseParams(p01=1.5)
    with pytest.raises(ValueError):
        NoiseParams(trajectories=0)


@pytest.mark.parametrize("p01, p10", [(0.5, 0.5), (0.7, 0.6)])
def test_mitigation_needs_p_eff_below_one_half(p01, p10):
    with pytest.raises(ValueError, match="p01 \\+ p10 < 1"):
        NoiseParams(p1=0, p2=0, p01=p01, p10=p10, mitigate=True)
    assert NoiseParams(p1=0, p2=0, p01=p01, p10=p10, mitigate=False).p_eff >= 0.5


def test_p_eff_is_the_rate_average():
    nz = NoiseParams(p01=0.08, p10=0.03)
    assert nz.p_eff == pytest.approx(0.055)


def test_null_params_flags():
    nz = NoiseParams(p1=0, p2=0, p01=0, p10=0)
    assert nz.is_null
    assert not nz.has_gate_noise
    assert not nz.has_readout_error


def test_gate_noise_flip_rate():
    # single site, |0>: any inserted X or Y shows up as a z-flip
    with pytest.warns(UserWarning, match="noisier"):
        nz = NoiseParams(p1=0.2, p2=0.0, p01=0, p10=0)
    rng = np.random.default_rng(8)
    flips = 0
    n = 4000
    for _ in range(n):
        st = sv.StateVector(1, oracles.hadamard_all(oracles.basis_state(1, 0)))
        noise.apply_gate_noise(st, "1q", (1,), nz, rng)
        if sv.site_expectations(st, "z")[0] < 0:
            flips += 1
    rate = flips / n
    expected = nz.p1 * 2 / 3  # one third of the inserted Paulis are Z
    se = np.sqrt(expected * (1 - expected) / n)
    assert abs(rate - expected) < 4 * se


@pytest.mark.parametrize("L", [4, 5], ids=["even-ring", "odd-ring"])
def test_gate_noise_trajectories_average_to_the_density_matrix(monkeypatch, L):
    # Exact trajectories against the dense channel of oracles.noisy_site_expectations.
    # Each trajectory's values are taken as forked_results hands them to
    # run_quench, so the standard error comes from the trajectory spread.
    # With 800 trajectories the correct code's largest |error| / se on the
    # site-averaged traces was 3.0 over seeds 0-29 on both rings; the
    # mutants rng.integers(2) (no z Paulis), sites[:1] (one site per bond)
    # and p2 for one-site gates reached 6.3 or more. Per site, the correct
    # code reached 3.9 and rng.integers(2) fell to 4.1, so the test reads
    # the site averages.
    trajectories = []

    def recording(run, chunks, _orig=trotter.forked_results):
        for out in _orig(run, chunks):
            trajectories.append(out)
            yield out

    monkeypatch.setattr(trotter, "forked_results", recording)
    monkeypatch.setattr(sv.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(trotter, "trajectory_processes", 1)
    n, k = 800, 5.0
    nz = NoiseParams(p1=0.02, p2=0.08, p01=0.0, p10=0.0, trajectories=n)
    plan = QuenchPlan(dt=0.4, n_steps=8, seed=1, measured_axes=("x", "y", "z"), noise=nz)
    record = trotter.run_quench(ModelParams(L, 0.5, 0.3), plan)
    assert trotter.trajectory_processes == 2 and len(trajectories) == n
    expected = oracles.noisy_site_expectations(L, 0.5, 0.3, 0.4, 8, nz.p1, nz.p2)
    for axis in "xyz":
        values = np.array([out[1][axis].mean(axis=1) for out in trajectories])
        assert np.allclose(values.mean(axis=0), record.aggregate(axis), rtol=0, atol=1e-12)
        error = np.abs(values.mean(axis=0) - expected[axis].mean(axis=1))
        se = values.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(error <= k * se + 1e-12), (axis, error / np.where(se > 0, se, np.inf))


def test_gate_noise_kind_must_be_known():
    nz = NoiseParams()
    with pytest.raises(ValueError):
        noise.apply_gate_noise(sv.init_all_plus(2), "3q", (1,), nz, np.random.default_rng(0))


def test_readout_error_rates():
    nz = NoiseParams(p01=0.08, p10=0.03)
    rng = np.random.default_rng(12)
    shots = 200_000
    zeros = np.zeros((shots, 1), dtype=np.uint8)
    ones = np.ones((shots, 1), dtype=np.uint8)
    r01 = oracles.readout_error(zeros, nz.p01, nz.p10, rng).mean()
    r10 = 1.0 - oracles.readout_error(ones, nz.p01, nz.p10, rng).mean()
    assert abs(r01 - 0.08) < 4 * np.sqrt(0.08 * 0.92 / shots)
    assert abs(r10 - 0.03) < 4 * np.sqrt(0.03 * 0.97 / shots)


def test_twirl_symmetrizes_the_channel():
    # after the twirl both bit values flip at the same effective rate
    nz = NoiseParams(p01=0.08, p10=0.03)
    rng = np.random.default_rng(13)
    shots = 200_000
    zeros = np.zeros((shots, 1), dtype=np.uint8)
    ones = np.ones((shots, 1), dtype=np.uint8)
    f0 = noise.twirled_readout(zeros, nz, rng).mean()
    f1 = 1.0 - noise.twirled_readout(ones, nz, rng).mean()
    se = np.sqrt(nz.p_eff * (1 - nz.p_eff) / shots)
    assert abs(f0 - nz.p_eff) < 4 * se
    assert abs(f1 - nz.p_eff) < 4 * se


def test_twirled_flips_draw_the_channel_of_the_twirl():
    # run_quench's readout draw against the twirl itself, bit by bit
    # (oracles.twirled_readout), on an asymmetric channel: zeros and ones
    # each flip at p_eff, two bits of one shot flip together at p_eff**2, and
    # a row's flip count is Binomial(shots L, p_eff). Over 40 seeds the
    # correct code's largest |z| was 3.1 (both bits), 2.7 (rates and count
    # means) and 2.4 (count variances); without the twirl zeros flip at
    # p01, 61 standard errors away.
    nz = NoiseParams(p01=0.06, p10=0.01)
    p, L, rows, shots = nz.p_eff, 2, 200, 1000
    n, N = rows * shots, shots * L
    for value in (0, 3):  # every bit 0, then every bit 1
        indices = np.full((rows, shots), value, dtype=np.int64)
        noise.twirled_flips(indices, L, nz, np.random.default_rng([20, value]))
        bits = np.full((n, L), value & 1, dtype=np.uint8)
        twirl = oracles.twirled_readout(bits, nz.p01, nz.p10, np.random.default_rng([20, value])) ^ bits
        draws = {"flips": sv.bits_from_indices(indices ^ value, None, L), "twirl": twirl.reshape(rows, shots, L)}
        for name, flipped in draws.items():
            rate = flipped.reshape(n, L).mean(axis=0)
            both = flipped.reshape(n, L).all(axis=1).mean()
            counts = flipped.sum(axis=(1, 2))
            assert (np.abs(rate - p) < 4.5 * np.sqrt(p * (1 - p) / n)).all(), (name, value)
            assert abs(both - p * p) < 4.5 * np.sqrt(p * p * (1 - p * p) / n), (name, value)
            assert abs(counts.mean() - N * p) < 4.5 * np.sqrt(N * p * (1 - p) / rows), (name, value)
            assert abs(counts.var(ddof=1) / (N * p * (1 - p)) - 1) < 4.5 * np.sqrt(2 / (rows - 1)), (name, value)


def test_trex_inverts_the_symmetric_channel_exactly():
    truth = np.array([-0.8, -0.1, 0.0, 0.4, 0.95])
    p_eff = 0.055
    raw = (1 - 2 * p_eff) * truth
    assert np.abs(noise.trex_mitigate(raw, p_eff) - truth).max() < 1e-14
    assert noise.trex_mitigate(0.5, 0.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        noise.trex_mitigate(0.5, 0.5)
    with pytest.raises(ValueError):
        noise.trex_mitigate(0.5, float("nan"))


def test_run_quench_mitigates_through_trex_mitigate(monkeypatch):
    # the function criterion 7 checks is the one a sampled quench calls
    params = ModelParams(4, 0.5, 0.3)
    nz = NoiseParams(p1=0, p2=0, p01=0.08, p10=0.03)
    plan = QuenchPlan(dt=0.4, n_steps=3, shots=500, measured_axes=("x", "y"), seed=4, noise=nz)
    plain = trotter.run_quench(params, plan)
    calls = []

    def counted(raw, p_eff, _orig=noise.trex_mitigate):
        calls.append((p_eff, np.shape(raw)))
        return _orig(raw, p_eff)

    monkeypatch.setattr(noise, "trex_mitigate", counted)
    wrapped = trotter.run_quench(params, plan)
    # each call mitigates a block of rows of site values
    assert {p_eff for p_eff, _ in calls} == {nz.p_eff}
    assert all(shape[1:] == (params.L,) for _, shape in calls)
    assert sum(shape[0] for _, shape in calls) == 8  # 2 axes x 4 time points
    for ax in ("x", "y"):
        assert np.array_equal(wrapped.per_site[ax], plain.per_site[ax])


def test_mitigated_estimates_recover_expectations():
    # the full chain: sample -> twirl -> average -> invert
    rng = np.random.default_rng(14)
    nz = NoiseParams(p01=0.08, p10=0.03)
    L, shots = 4, 100_000
    amps = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
    st = sv.StateVector(L, amps / np.linalg.norm(amps))
    exact = sv.site_expectations(st, "z")
    idx, counts = sv.sample_index_counts(st, "z", shots, rng)
    bits = sv.bits_from_indices(idx, counts, L)
    noisy = noise.twirled_readout(bits, nz, rng)
    est = noise.trex_mitigate(sv.estimates_from_bits(noisy), nz.p_eff)
    se = np.sqrt(np.maximum(1 - exact**2, 1e-12) / shots) / (1 - 2 * nz.p_eff)
    assert np.all(np.abs(est - exact) < 4 * se + 1e-12)


def test_null_noise_quench_equals_noiseless():
    p = ModelParams(6, 0.5, 0.3)
    null = NoiseParams(p1=0, p2=0, p01=0, p10=0, trajectories=3)
    a = trotter.run_quench(p, QuenchPlan(dt=0.4, n_steps=6, shots=5000, seed=2))
    b = trotter.run_quench(p, QuenchPlan(dt=0.4, n_steps=6, shots=5000, seed=2, noise=null))
    assert np.array_equal(a.sigma_y, b.sigma_y)
    assert np.array_equal(a.sigma_x, b.sigma_x)


def test_noisy_quench_reproducible_and_damped():
    p = ModelParams(6, 0.5, 0.3)
    nz = NoiseParams(p1=0.002, p2=0.02, p01=0.02, p10=0.02, trajectories=20)
    plan = QuenchPlan(dt=0.4, n_steps=12, shots=4000, seed=3, noise=nz)
    a = trotter.run_quench(p, plan)
    b = trotter.run_quench(p, plan)
    assert np.array_equal(a.sigma_y, b.sigma_y)
    ideal = trotter.run_quench(p, QuenchPlan(dt=0.4, n_steps=12))
    # depolarizing-style noise pulls the late-time envelope toward zero
    tail = slice(6, None)
    assert np.abs(a.sigma_x[tail]).mean() < np.abs(ideal.sigma_x[tail]).mean() + 0.02
