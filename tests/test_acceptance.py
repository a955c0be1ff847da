"""End-to-end acceptance checks for the whole package.

Each test covers one numbered criterion, prints a single PASS/FAIL line with
the measured numbers, and then asserts. Known state: criterion 1's amplitude
bound does not hold for a first-order product formula at dt = 0.4 (the
deviation is a physical quasi-energy shift of the stroboscopic dynamics, not
an implementation bug; see the convergence clause, which passes, and
README.md). The test reports the measured value and fails honestly.
"""

import json
import subprocess
import sys
import time

import numpy as np

from childenv import child_env
from isingspec import edsolver, noise, obs, spectro, statevec as sv, trotter
from isingspec.model import ModelParams, QuenchPlan
from isingspec.noise import NoiseParams

GRID_G = [round(0.25 + 0.05 * k, 2) for k in range(11)]


def report(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'}  {detail}")


def trotter_state(params: ModelParams, dt: float, n_steps: int) -> sv.StateVector:
    st = sv.init_all_plus(params.L)
    step = trotter.build_step(params, dt)
    for _ in range(n_steps):
        for gate in step.gates:
            sv.apply_gate(st, gate)
    return st


def test_criterion_1_trotter_vs_exact():
    started = time.monotonic()
    p = ModelParams(12, 0.5, 0.3)
    rec = trotter.run_quench(p, QuenchPlan(dt=0.4, n_steps=100))
    snaps = sv.exact_evolve(sv.init_all_plus(12), p, dt=0.01, n_steps=4000, record_every=40)
    exact_y = np.array([float(sv.site_expectations(s, "y").mean()) for s in snaps])
    dev = float(np.abs(rec.sigma_y - exact_y).max())

    # first-order convergence at L = 6: state error shrinks linearly in dt
    p6 = ModelParams(6, 0.5, 0.3)
    horizon = 2.4
    dts = [0.2, 0.1, 0.05]
    ref = sv.exact_evolve(sv.init_all_plus(6), p6, dt=horizon, n_steps=1)[-1]
    errs = [
        np.linalg.norm(trotter_state(p6, dt, round(horizon / dt)).amplitudes - ref.amplitudes)
        for dt in dts
    ]
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    elapsed = time.monotonic() - started

    ok = dev < 0.05 and 0.8 <= slope <= 1.2 and elapsed < 60
    report(
        1,
        ok,
        f"max|dsigma_y| = {dev:.4f} (limit 0.05), L=6 slope = {slope:.3f} "
        f"(limit [0.8, 1.2]), {elapsed:.1f} s (limit 60 s)",
    )
    assert elapsed < 60
    assert 0.8 <= slope <= 1.2
    assert dev < 0.05


def test_criterion_2_sweep_spectroscopy_vs_ed():
    started = time.monotonic()
    template = ModelParams(12, 0.5, 0.3)
    plan = QuenchPlan(dt=0.1, n_steps=400)
    points = spectro.eta_sweep(GRID_G, 0.3, template, plan, n_low=6)
    tol = max(points[0].d_omega, 0.05)
    worst = 0.0
    found = {"e1": 0, "e2": 0, "e3": 0}
    for pt in points:
        levels = edsolver.solve_sector(ModelParams(12, pt.g, 0.3), n_low=6)
        assert "e1" in pt.extracted, f"no e1 peak at g={pt.g}"
        for n, label in enumerate(("e1", "e2", "e3"), start=1):
            if label in pt.extracted:
                found[label] += 1
                worst = max(worst, abs(pt.extracted[label][0] - levels.gap(n)))
    elapsed = time.monotonic() - started
    ok = len(points) == 11 and found["e1"] == 11 and worst <= tol and elapsed < 600
    report(
        2,
        ok,
        f"e1 at {found['e1']}/11 points, e2 at {found['e2']}, e3 at {found['e3']}; "
        f"worst |peak - ED| = {worst:.4f} (tol {tol:.4f}); {elapsed:.1f} s (limit 600 s)",
    )
    assert len(points) == 11
    assert found["e1"] == 11
    assert worst <= tol
    assert elapsed < 600


def test_criterion_3_free_fermion_oracle():
    started = time.monotonic()
    worst_pair = ""
    for L in (4, 6, 8, 10, 12):
        oracle_g = (0.25, 0.5, 0.75, 1.0)
        for g in oracle_g:
            lv = edsolver.solve_sector(ModelParams(L, g, 0.0), n_low=None)
            oracle = edsolver.free_fermion_oracle(L, g)
            contained = edsolver.spectrum_contains(oracle, lv.eigenvalues, tol=1e-8)
            if not contained:
                worst_pair = f"L={L}, g={g}"
            assert contained, f"sector spectrum not inside the oracle at L={L}, g={g}"
    elapsed = time.monotonic() - started
    ok = not worst_pair and elapsed < 60
    report(3, ok, f"20 (L, g) pairs, sector within oracle at 1e-8; {elapsed:.1f} s (limit 60 s)")
    assert elapsed < 60


def test_criterion_4_stationarity():
    rec = trotter.run_quench(ModelParams(12, 0.0, 0.0), QuenchPlan(dt=0.4, n_steps=100))
    y_max = float(np.abs(rec.sigma_y).max())
    x_dev = float(np.abs(rec.sigma_x - 1.0).max())
    ok = y_max < 1e-12 and x_dev < 1e-12
    report(4, ok, f"max|sigma_y| = {y_max:.2e}, max|sigma_x - 1| = {x_dev:.2e} (limits 1e-12)")
    assert y_max < 1e-12
    assert x_dev < 1e-12


def test_criterion_5_energy_conservation():
    started = time.monotonic()
    p = ModelParams(12, 0.5, 0.3)
    snaps = sv.exact_evolve(sv.init_all_plus(12), p, dt=0.01, n_steps=4000, record_every=10)
    energies = np.array([sv.energy_expectation(s, p) for s in snaps])
    drift = float(np.abs(energies + 15.6).max())
    elapsed = time.monotonic() - started
    ok = drift < 1e-8 and elapsed < 300
    report(
        5,
        ok,
        f"max |<H> + 15.6| = {drift:.2e} over {len(snaps)} of 4000 steps "
        f"(limit 1e-8); {elapsed:.1f} s (limit 300 s)",
    )
    assert drift < 1e-8
    assert elapsed < 300


def test_criterion_6_shot_statistics():
    started = time.monotonic()
    p = ModelParams(12, 0.5, 0.3)
    exact = trotter.run_quench(p, QuenchPlan(dt=0.4, n_steps=100))
    sampled = trotter.run_quench(p, QuenchPlan(dt=0.4, n_steps=100, shots=100_000, seed=7))
    envelope = 4.0 / np.sqrt(12 * 100_000)
    inside = float((np.abs(sampled.sigma_y - exact.sigma_y) < envelope).mean())
    elapsed = time.monotonic() - started
    ok = inside >= 0.95 and elapsed < 600
    report(
        6,
        ok,
        f"{inside:.1%} of time points within 4/sqrt(L*shots) = {envelope:.2e} "
        f"(need >= 95%); {elapsed:.1f} s (limit 600 s)",
    )
    assert inside >= 0.95
    assert elapsed < 600


def test_criterion_7_readout_mitigation_round_trip():
    nz = NoiseParams(p01=0.08, p10=0.03)
    shots = 100_000
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        amps = rng.normal(size=2**6) + 1j * rng.normal(size=2**6)
        st = sv.StateVector(6, amps / np.linalg.norm(amps))
        exact = sv.site_expectations(st, "z")
        idx, counts = sv.sample_index_counts(st, "z", shots, rng)
        bits = sv.bits_from_indices(idx, counts, 6)
        noisy = noise.twirled_readout(bits, nz, rng)
        est = noise.trex_mitigate(sv.estimates_from_bits(noisy), nz.p_eff)
        se = np.sqrt(np.maximum(1.0 - exact**2, 1e-12) / shots) / (1.0 - 2.0 * nz.p_eff)
        worst = max(worst, float((np.abs(est - exact) / se).max()))
    ok = worst < 4.0
    report(7, ok, f"20 random states, worst |error|/SE = {worst:.2f} (limit 4)")
    assert worst < 4.0


def test_criterion_8_confinement_contrast():
    started = time.monotonic()
    free = trotter.run_quench(
        ModelParams(12, 0.25, 0.0), QuenchPlan(dt=0.2, n_steps=150), record_correlator=True
    )
    fit = obs.lightcone_front(obs.field_from_record(free), threshold=0.02)
    bound = 2.0 * obs.max_group_velocity(0.25)

    confined = trotter.run_quench(
        ModelParams(12, 0.25, 0.2), QuenchPlan(dt=0.2, n_steps=150), record_correlator=True
    )
    fld = obs.field_from_record(confined)
    stalled_fit = obs.lightcone_front(fld, threshold=0.02)
    oscillations = max(obs.oscillation_count(fld, r) for r in fld.rs)
    elapsed = time.monotonic() - started

    ok = (
        fit.has_front
        and not fit.stalled
        and fit.velocity <= 1.2 * bound
        and stalled_fit.stalled
        and oscillations >= 2
        and elapsed < 600
    )
    report(
        8,
        ok,
        f"h=0: v = {fit.velocity:.3f} <= 1.2 x {bound:.1f}; h=0.2: stalled = "
        f"{stalled_fit.stalled}, max dG/dt sign changes = {oscillations} (need >= 2); "
        f"{elapsed:.1f} s (limit 600 s)",
    )
    assert fit.has_front and not fit.stalled
    assert fit.velocity <= 1.2 * bound
    assert stalled_fit.stalled
    assert oscillations >= 2
    assert elapsed < 600


def test_criterion_9_twenty_site_scale_check(tmp_path):
    started = time.monotonic()
    # sampled run through the CLI so the memory high-water mark is a fresh process
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model.L = 20\nmodel.g = 1.0\nmodel.h = 0.3\n"
        "plan.dt = 0.4\nplan.n_steps = 100\nplan.shots = 8192\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    res = subprocess.run(
        [sys.executable, "-m", "isingspec.cli", "quench", "--config", str(cfg)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert res.returncode == 0, res.stderr
    stats = json.loads((tmp_path / "out" / "run_stats.json").read_text())
    rss_gb = stats["max_rss_kb"] / 1024**2

    # the difference line e21 in the noiseless spectrum against iterative ED
    p = ModelParams(20, 1.0, 0.3)
    levels = edsolver.solve_sector(p, n_low=4)
    rec = trotter.run_quench(p, QuenchPlan(dt=0.1, n_steps=400))
    spec = spectro.power_spectrum(spectro.series_from_record(rec, "y"))
    peaks = spectro.match_peaks(spectro.find_peaks(spec), levels)
    e21 = peaks.get("e21")
    ref = levels.gap(2) - levels.gap(1)
    dev = None if e21 is None else abs(e21.omega - ref)
    elapsed = time.monotonic() - started

    ok = rss_gb < 1.0 and e21 is not None and dev < 2 * spec.d_omega and elapsed < 1800
    report(
        9,
        ok,
        f"sampled 20-site run peak RSS = {rss_gb:.2f} GB (limit 1); e21 peak "
        f"{'missing' if e21 is None else f'dev = {dev:.4f}'} vs ED {ref:.4f} "
        f"(tol {2 * spec.d_omega:.4f}); {elapsed:.0f} s (limit 1800 s)",
    )
    assert rss_gb < 1.0
    assert e21 is not None
    assert dev < 2 * spec.d_omega
    assert elapsed < 1800
