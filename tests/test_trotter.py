from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import oracles
from isingspec import obs
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
    assert rec.provenance["model.L"] == 6


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
    # the counters do see a gate-noisy exact run, which is measured site by site
    nz = NoiseParams(p1=0.01, p2=0.01, p01=0.0, p10=0.0, trajectories=1)
    trotter.run_quench(p, replace(plan, n_steps=2, noise=nz), record_correlator=True)
    assert set(calls) == {"copy", "site_expectations", "correlator_tables"}


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
