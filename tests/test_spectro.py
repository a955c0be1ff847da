import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingspec import edsolver, spectro, trotter
from isingspec.edsolver import EnergyLevels
from isingspec.model import ModelParams, QuenchPlan
from isingspec.spectro import Peak, PeakSet, TimeSeries


def tone(freqs, amps, n=256, dt=0.4) -> TimeSeries:
    t = np.arange(n) * dt
    vals = sum(a * np.cos(w * t) for w, a in zip(freqs, amps))
    return TimeSeries(t, vals)


def levels_from(gaps) -> EnergyLevels:
    levels = np.concatenate([[0.0], np.asarray(gaps, dtype=float)])
    return EnergyLevels(
        eigenvalues=levels,
        levels=levels,
        multiplicities=np.ones(levels.size, dtype=int),
        method="dense",
        residual=0.0,
        dim=levels.size,
    )


def test_time_series_validation():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 0.1, 0.3]), np.zeros(3))
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0]), np.zeros(1))
    with pytest.raises(ValueError):
        TimeSeries(np.arange(4.0), np.array([0.0, 1.0, np.nan, 0.0]))


def test_power_spectrum_argument_validation():
    s = tone([2.0], [1.0])
    with pytest.raises(ValueError):
        spectro.power_spectrum(s, window="blackman")
    with pytest.raises(ValueError):
        spectro.power_spectrum(s, pad_factor=0)
    with pytest.raises(ValueError):
        spectro.power_spectrum(tone([2.0], [1.0], n=4), pad_factor=1)


def test_resolution_formula():
    spec = spectro.power_spectrum(tone([2.0], [1.0], n=256, dt=0.4), pad_factor=8)
    assert spec.d_omega == pytest.approx(2 * math.pi / (8 * 256 * 0.4))
    assert spec.omega[1] - spec.omega[0] == pytest.approx(spec.d_omega)


def test_constant_series_transforms_to_zero():
    s = TimeSeries(np.arange(16) * 0.1, np.full(16, 3.7))
    spec = spectro.power_spectrum(s)
    assert np.abs(spec.power).max() == 0.0


def test_parseval_rectangular_no_padding():
    rng = np.random.default_rng(33)
    vals = rng.normal(size=128)
    s = TimeSeries(np.arange(128) * 0.3, vals)
    spec = spectro.power_spectrum(s, window="rectangular", pad_factor=1)
    x = vals - vals.mean()
    # one-sided power folded back onto the full circle
    full = spec.power[0] + spec.power[-1] + 2 * spec.power[1:-1].sum()
    assert abs(full - 128 * (x**2).sum()) < 1e-8 * (x**2).sum() * 128


def test_single_tone_lands_on_its_frequency():
    spec = spectro.power_spectrum(tone([2.0], [1.0], n=256, dt=0.4), pad_factor=8)
    peaks = spectro.find_peaks(spec)
    assert len(peaks) == 1
    assert abs(peaks.peaks[0].omega - 2.0) < spec.d_omega


def test_two_tone_power_ratio():
    spec = spectro.power_spectrum(tone([1.1, 2.9], [0.3, 0.1], n=256, dt=0.4))
    peaks = sorted(spectro.find_peaks(spec), key=lambda p: -p.height)
    assert len(peaks) == 2
    ratio = peaks[0].height / peaks[1].height
    assert abs(ratio - 9.0) < 0.2 * 9.0
    assert abs(peaks[0].omega - 1.1) < spec.d_omega
    assert abs(peaks[1].omega - 2.9) < spec.d_omega


def test_close_tones_merge_below_min_separation():
    spec = spectro.power_spectrum(tone([2.0, 2.02], [1.0, 0.9], n=64, dt=0.4), pad_factor=8)
    # raw resolution 2 pi / (64 * 0.4) ~ 0.245 >> tone spacing: one ridge
    peaks = spectro.find_peaks(spec)
    assert len(peaks) == 1


def test_random_tones_within_resolution():
    rng = np.random.default_rng(77)
    dt, n = 0.4, 128
    for _ in range(50):
        w = rng.uniform(0.5, math.pi / dt)
        spec = spectro.power_spectrum(tone([w], [1.0], n=n, dt=dt), pad_factor=8)
        peaks = spectro.find_peaks(spec)
        best = max(peaks, key=lambda p: p.height)
        assert abs(best.omega - w) < spec.d_omega


def test_padding_does_not_invent_peaks():
    series = tone([1.0, 2.5], [1.0, 0.8], n=256, dt=0.4)
    for pad in (1, 8):
        spec = spectro.power_spectrum(series, pad_factor=pad)
        assert len(spectro.find_peaks(spec)) == 2


@settings(max_examples=300, deadline=None, database=None)
@given(
    body=st.one_of(
        st.lists(st.floats(0.0, 1.0), max_size=40),
        st.lists(st.integers(0, 3).map(float), max_size=40),  # ties and plateaus
    ),
    frac=st.floats(0.01, 0.99),
)
def test_find_peaks_matches_scipy(body, frac):
    import scipy.signal

    x = np.asarray(body, dtype=float)
    power = np.r_[0.0, x]  # the omega = 0 bin, never searched
    spec = spectro.Spectrum(np.arange(power.size), power, "rectangular", 1, 0.4, power.size)
    expected = []
    if x.size and x.max() > 0:
        idx, _ = scipy.signal.find_peaks(x, height=frac * x.max())
        expected = [Peak(*spectro._parabolic_refine(power, i + 1, spec.d_omega)) for i in idx]
    assert spectro.find_peaks(spec, min_height_frac=frac).peaks == expected


def test_find_peaks_validation():
    spec = spectro.power_spectrum(tone([2.0], [1.0]))
    with pytest.raises(ValueError):
        spectro.find_peaks(spec, min_height_frac=0.0)
    with pytest.raises(ValueError):
        spectro.find_peaks(spectro.Spectrum(np.array([]), np.array([]), "hann", 1, 0.4, 8))


def test_peaks_are_sorted_by_frequency():
    spec = spectro.power_spectrum(tone([3.1, 0.9, 2.0], [0.5, 0.5, 0.5]))
    peaks = spectro.find_peaks(spec)
    omegas = [p.omega for p in peaks]
    assert omegas == sorted(omegas)


def test_match_exact_gaps():
    levels = levels_from([1.0, 2.5])
    peaks = PeakSet([Peak(1.0, 5.0, 0.1), Peak(2.5, 3.0, 0.1)], d_omega=0.02)
    out = spectro.match_peaks(peaks, levels)
    assert out.labels == ["e1", "e2"]
    assert out.get("e1").matched_value == pytest.approx(1.0)


def test_match_difference_line():
    levels = levels_from([1.0, 2.5])
    out = spectro.match_peaks(PeakSet([Peak(1.5, 1.0, 0.1)], 0.02), levels)
    assert out.labels == ["e21"]


def test_match_respects_tolerance():
    levels = levels_from([1.0])
    out = spectro.match_peaks(PeakSet([Peak(1.3, 1.0, 0.1)], 0.02), levels)
    assert out.labels == ["unassigned"]
    out = spectro.match_peaks(PeakSet([Peak(1.3, 1.0, 0.1)], 0.02), levels, tol=0.4)
    assert out.labels == ["e1"]


def test_match_default_tolerance_floor():
    # d_omega below 0.05 widens to the 0.05 floor
    levels = levels_from([1.0])
    out = spectro.match_peaks(PeakSet([Peak(1.04, 1.0, 0.1)], 0.01), levels)
    assert out.labels == ["e1"]


def test_one_candidate_matches_at_most_one_peak():
    levels = levels_from([1.0])
    peaks = PeakSet([Peak(0.98, 1.0, 0.1), Peak(1.01, 2.0, 0.1)], 0.02)
    out = spectro.match_peaks(peaks, levels, tol=0.1)
    assert out.labels == ["unassigned", "e1"]  # closer peak wins


def test_equidistant_candidates_leave_the_peak_unassigned():
    levels = levels_from([1.0, 2.1])  # e1 = 1.0, e21 = 1.1
    out = spectro.match_peaks(PeakSet([Peak(1.05, 1.0, 0.1)], 0.02), levels, tol=0.2)
    peak = out.peaks[0]
    assert peak.label == "unassigned"
    assert {name for name, _ in peak.candidates} == {"e1", "e21"}


def test_eta_values():
    assert spectro.eta(0.25, 0.3) == pytest.approx(8.956, abs=1e-3)
    assert spectro.eta(1.0, 0.5) == 0.0
    with pytest.raises(ValueError):
        spectro.eta(0.5, 0.0)


def test_eta_decreases_with_g():
    gs = np.linspace(0.25, 0.75, 11)
    etas = [spectro.eta(g, 0.3) for g in gs]
    assert all(a > b for a, b in zip(etas, etas[1:]))


def test_quench_pipeline_recovers_the_lowest_gap():
    # end to end on a small chain: the strongest low peak is e1
    params = ModelParams(8, 0.5, 0.3)
    plan = QuenchPlan(dt=0.1, n_steps=400)
    record = trotter.run_quench(params, plan)
    spec = spectro.power_spectrum(spectro.series_from_record(record, "y"))
    levels = edsolver.solve_sector(params, n_low=6)
    peaks = spectro.match_peaks(spectro.find_peaks(spec), levels)
    e1 = peaks.get("e1")
    assert e1 is not None
    assert abs(e1.omega - levels.gap(1)) < max(spec.d_omega, 0.05)
    # whenever the difference line is also identified it must be consistent
    e2, e21 = peaks.get("e2"), peaks.get("e21")
    if e2 is not None and e21 is not None:
        assert abs((e2.omega - e1.omega) - e21.omega) < 2 * spec.d_omega


def test_quench_peaks_at_the_critical_point_keep_the_ed_mass_ratio():
    # L = 16, g = 1, h = 0.2: the E8 regime, where e2/e1 is near 2 cos(pi/5).
    # The pipeline's ratio of the labelled e2 and e1 peaks must agree with
    # ED's e2/e1 within what 2 d_omega on each peak allows.
    params = ModelParams(16, 1.0, 0.2)
    record = trotter.run_quench(params, QuenchPlan(dt=0.1, n_steps=400))
    spec = spectro.power_spectrum(spectro.series_from_record(record, "y"))
    levels = edsolver.solve_sector(params, n_low=6)
    peaks = spectro.match_peaks(spectro.find_peaks(spec), levels)
    e1, e2 = peaks.get("e1"), peaks.get("e2")
    assert e1 is not None and e2 is not None
    g1, g2 = levels.gap(1), levels.gap(2)
    delta = 2 * spec.d_omega
    # the largest change of e2/e1 when each gap moves by delta
    tol = delta * (g1 + g2) / (g1 * (g1 - delta))
    assert abs(e2.omega / e1.omega - g2 / g1) < tol


def test_sweep_points_are_complete_and_ordered():
    template = ModelParams(6, 0.5, 0.3)
    plan = QuenchPlan(dt=0.2, n_steps=100, seed=4)
    points = spectro.eta_sweep([0.4, 0.6], 0.3, template, plan, n_low=4)
    assert [p.g for p in points] == [0.4, 0.6]
    for p in points:
        assert p.eta == pytest.approx(spectro.eta(p.g, 0.3))
        assert p.ed_gaps.size >= 3
        for label, (omega, err) in p.extracted.items():
            assert err == pytest.approx(p.d_omega / 2)
            assert omega > 0


def test_sweep_parallel_equals_serial():
    template = ModelParams(6, 0.5, 0.3)
    plan = QuenchPlan(dt=0.2, n_steps=80, seed=11, shots=2000)
    serial = spectro.eta_sweep([0.3, 0.5, 0.7], 0.3, template, plan)
    parallel = spectro.eta_sweep([0.3, 0.5, 0.7], 0.3, template, plan, processes=3)
    for a, b in zip(serial, parallel):
        assert a.extracted == b.extracted
        assert [p.omega for p in a.peaks] == [p.omega for p in b.peaks]


def test_single_point_sweep_matches_a_plain_quench():
    template = ModelParams(6, 0.5, 0.3)
    plan = QuenchPlan(dt=0.2, n_steps=80, seed=21, shots=5000)
    point = spectro.eta_sweep([0.45], 0.3, template, plan)[0]
    record = trotter.run_quench(
        ModelParams(6, 0.45, 0.3), QuenchPlan(dt=0.2, n_steps=80, seed=21, shots=5000)
    )
    spec = spectro.power_spectrum(spectro.series_from_record(record, "y"))
    direct = spectro.find_peaks(spec)
    assert [p.omega for p in point.peaks] == [p.omega for p in direct]


def test_sweep_workers_are_capped_at_the_cpu_count(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-CPU sweep must not start a pool")

    monkeypatch.setattr(spectro.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(spectro, "get_context", no_pool)
    template = ModelParams(4, 0.5, 0.3)
    plan = QuenchPlan(dt=0.2, n_steps=40, seed=3)
    points = spectro.eta_sweep([0.3, 0.5, 0.7], 0.3, template, plan, processes=3)
    assert [p.g for p in points] == [0.3, 0.5, 0.7]


@pytest.mark.parametrize("h", [0.0, -0.1])
def test_sweep_rejects_h_at_or_below_zero_before_any_quench(monkeypatch, h):
    def no_quench(*args, **kwargs):
        raise AssertionError("no quench may run for h <= 0")

    monkeypatch.setattr(trotter, "run_quench", no_quench)
    with pytest.raises(ValueError, match="h > 0"):
        spectro.eta_sweep([0.4, 0.6], h, ModelParams(4, 0.5, 0.3), QuenchPlan(dt=0.2, n_steps=40))


@pytest.mark.parametrize(
    "setting, value",
    [("window", "foo"), ("pad_factor", 0), ("min_height_frac", 1.5), ("n_low", 0)],
)
def test_sweep_rejects_bad_settings_before_any_quench(monkeypatch, setting, value):
    def no_quench(*args, **kwargs):
        raise AssertionError("no quench may run with an out-of-range setting")

    monkeypatch.setattr(trotter, "run_quench", no_quench)
    template, plan = ModelParams(4, 0.5, 0.3), QuenchPlan(dt=0.2, n_steps=40)
    with pytest.raises(ValueError, match=setting):
        spectro.eta_sweep([0.4, 0.6], 0.3, template, plan, processes=2, **{setting: value})


@pytest.mark.parametrize(
    "L, n_steps, match",
    [(6, 2, "need at least 8 samples"), (21, 40, "L=21 outside supported range")],
)
def test_sweep_rejects_a_short_plan_or_an_ed_size_before_any_quench(monkeypatch, L, n_steps, match):
    def no_quench(*args, **kwargs):
        raise AssertionError("no quench may run before the sweep's inputs are checked")

    monkeypatch.setattr(trotter, "run_quench", no_quench)
    template, plan = ModelParams(L, 0.5, 0.3), QuenchPlan(dt=0.2, n_steps=n_steps)
    with pytest.raises(ValueError, match=match):
        spectro.eta_sweep([0.4, 0.5], 0.3, template, plan)


def test_sweep_rejects_a_plan_without_y_before_any_quench(monkeypatch):
    def no_quench(*args, **kwargs):
        raise AssertionError("no quench may run for a plan that does not measure y")

    monkeypatch.setattr(trotter, "run_quench", no_quench)
    template, plan = ModelParams(4, 0.5, 0.3), QuenchPlan(dt=0.2, n_steps=40, measured_axes=("x",))
    with pytest.raises(ValueError, match="needs 'y'"):
        spectro.eta_sweep([0.4, 0.6], 0.3, template, plan)


def test_sweep_without_the_ed_reference_accepts_an_L_beyond_ed(monkeypatch):
    monkeypatch.setattr(trotter, "run_quench", lambda params, plan: "record")
    monkeypatch.setattr(spectro, "sweep_point", lambda params, record, levels, **settings: (params.L, record, levels))
    template, plan = ModelParams(21, 0.5, 0.3), QuenchPlan(dt=0.2, n_steps=40)
    assert spectro.eta_sweep([0.4], 0.3, template, plan, n_low=None) == [(21, "record", None)]


def test_series_from_record_carries_the_grid():
    record = trotter.run_quench(ModelParams(4, 0.5, 0.3), QuenchPlan(dt=0.4, n_steps=16))
    series = spectro.series_from_record(record, "y")
    assert series.times.shape == (17,)
    assert series.dt == pytest.approx(0.4)
