import math
import pickle

import numpy as np
import pytest

import oracles
from isingspec import edsolver
from isingspec.model import ModelParams


def test_zero_momentum_dimension_is_the_necklace_count():
    # (1/L) sum_{d|L} phi(d) 2^(L/d)
    for L, dim in ((2, 3), (3, 4), (4, 6), (12, 352)):
        basis = edsolver.build_zero_momentum_basis(L)
        assert basis.dim == dim


def test_basis_representatives_are_orbit_minima():
    basis = edsolver.build_zero_momentum_basis(6)
    mask = (1 << 6) - 1
    for rep in basis.reps:
        orbit = {int(((rep << s) | (rep >> (6 - s))) & mask) for s in range(6)}
        assert rep == min(orbit)


@pytest.mark.parametrize("L", range(2, 17))
def test_basis_matches_the_orbit_definition(L):
    basis = edsolver.build_zero_momentum_basis(L)
    expected = oracles.zero_momentum_orbits(L)
    got = (basis.reps, basis.periods, basis.rep_of, basis.index_of)
    for name, have, want in zip(("reps", "periods", "rep_of", "index_of"), got, expected):
        assert have.dtype == np.int64, name
        assert np.array_equal(have, want), name
    # the measurement path reads the same cached orbits
    reps, periods = edsolver.zero_momentum_orbits(L)
    assert np.array_equal(reps, expected[0]) and np.array_equal(periods, expected[1])
    assert not reps.flags.writeable and not periods.flags.writeable


def test_sector_levels_live_inside_the_full_spectrum():
    p = ModelParams(8, 0.45, 0.25)
    full = np.linalg.eigvalsh(oracles.hamiltonian(p.L, p.g, p.h))
    lv = edsolver.solve_sector(p, n_low=None)
    assert edsolver.spectrum_contains(full, lv.eigenvalues, tol=1e-8)
    # the translation-invariant ground state sits in this sector
    assert lv.levels[0] == pytest.approx(full[0], abs=1e-8)


def test_pure_bond_ring_ground_energy():
    lv = edsolver.solve_sector(ModelParams(3, 0.0, 0.0), n_low=None)
    assert lv.levels[0] == pytest.approx(-3.0, abs=1e-12)


def test_gap_accessors():
    lv = edsolver.solve_sector(ModelParams(8, 0.5, 0.3), n_low=6)
    assert lv.gaps.shape == (len(lv.levels) - 1,)
    assert lv.gap(1) == pytest.approx(lv.levels[1] - lv.levels[0])
    assert lv.diff(3, 1) == pytest.approx(lv.gap(3) - lv.gap(1))
    with pytest.raises(IndexError):
        lv.gap(0)
    with pytest.raises(IndexError):
        lv.gap(len(lv.levels))


def test_levels_sorted_with_positive_multiplicities():
    lv = edsolver.solve_sector(ModelParams(10, 0.7, 0.1), n_low=8)
    assert np.all(np.diff(lv.levels) > 0)
    assert int(lv.multiplicities.sum()) == lv.eigenvalues.size
    assert lv.dim == edsolver.build_zero_momentum_basis(10).dim


def test_iterative_method_agrees_with_dense(monkeypatch):
    p = ModelParams(10, 0.5, 0.3)
    dense = edsolver.solve_sector(p, n_low=5)
    # the sparse route that sectors above DENSE_EIG_MAX take
    monkeypatch.setattr(edsolver, "DENSE_EIG_MAX", 0)
    iterative = edsolver.solve_sector(p, n_low=5)
    assert iterative.method == "iterative"
    assert iterative.residual < 1e-8
    assert np.abs(dense.eigenvalues - iterative.eigenvalues).max() < 1e-8


def test_iterative_full_spectrum_is_rejected(monkeypatch):
    monkeypatch.setattr(edsolver, "DENSE_EIG_MAX", 0)
    with pytest.raises(ValueError):
        edsolver.solve_sector(ModelParams(8, 0.5, 0.3), n_low=None)


def test_unconverged_eigenpairs_are_reported(monkeypatch):
    import scipy.sparse.linalg

    def bad_eigsh(matrix, k, which, v0):
        vals = np.zeros(k)
        vecs = np.eye(matrix.shape[0], k)
        return vals, vecs

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", bad_eigsh)
    monkeypatch.setattr(edsolver, "DENSE_EIG_MAX", 0)
    with pytest.raises(edsolver.ConvergenceError) as exc:
        edsolver.solve_sector(ModelParams(8, 0.5, 0.3), n_low=3)
    assert exc.value.residual > 1e-8


def test_convergence_error_survives_pickling():
    # a worker process sends the error to its parent pickled
    err = pickle.loads(pickle.dumps(edsolver.ConvergenceError("residual 2.50e-03 exceeds 1e-08", 2.5e-3)))
    assert type(err) is edsolver.ConvergenceError
    assert str(err) == "residual 2.50e-03 exceeds 1e-08"
    assert err.residual == 2.5e-3


def test_iterative_solves_are_reproducible(monkeypatch):
    p = ModelParams(12, 0.5, 0.3)
    monkeypatch.setattr(edsolver, "DENSE_EIG_MAX", 0)
    first = edsolver.solve_sector(p, n_low=7)
    second = edsolver.solve_sector(p, n_low=7)
    assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
    assert first.residual == second.residual


@pytest.mark.parametrize("method", ["dense", "iterative"])
@pytest.mark.parametrize("n_low", [0, -3])
def test_n_low_below_one_is_rejected(monkeypatch, method, n_low):
    if method == "iterative":
        monkeypatch.setattr(edsolver, "DENSE_EIG_MAX", 0)
    with pytest.raises(ValueError, match="n_low"):
        edsolver.solve_sector(ModelParams(8, 0.5, 0.3), n_low=n_low)


def test_free_fermion_oracle_equals_the_dense_spectrum():
    # the whole point of the oracle: exact match at h = 0, all parity sectors
    for L in (4, 6):
        for g in (0.3, 1.0):
            dense = np.linalg.eigvalsh(oracles.hamiltonian(L, g, 0.0))
            oracle = edsolver.free_fermion_oracle(L, g)
            assert oracle.shape == (2**L,)
            assert np.abs(np.sort(dense) - oracle).max() < 1e-8


def test_free_fermion_oracle_domain():
    with pytest.raises(ValueError):
        edsolver.free_fermion_oracle(5, 0.5)
    with pytest.raises(ValueError):
        edsolver.free_fermion_oracle(2, 0.5)
    with pytest.raises(ValueError):
        edsolver.free_fermion_oracle(edsolver.ORACLE_L_MAX + 2, 0.5)


def test_spectrum_contains_is_a_multiset_check():
    spectrum = np.array([0.0, 0.0, 1.0, 2.0])
    assert edsolver.spectrum_contains(spectrum, [0.0, 0.0, 2.0])
    assert not edsolver.spectrum_contains(spectrum, [0.0, 0.0, 0.0])
    assert not edsolver.spectrum_contains(spectrum, [1.5])
    assert edsolver.spectrum_contains(spectrum, [1.0 + 5e-9])


def test_sector_matrix_is_symmetric():
    p = ModelParams(7, 0.5, 0.3)
    basis = edsolver.build_zero_momentum_basis(p.L)
    mat = edsolver.assemble_sector_hamiltonian(p, basis)
    arr = mat.toarray() if hasattr(mat, "toarray") else np.asarray(mat)
    assert np.abs(arr - arr.T).max() < 1e-12


@pytest.mark.parametrize("L", [6, 7])
def test_sector_matrix_is_the_dense_hamiltonian_projected_onto_k0(L):
    p = ModelParams(L, 0.45, 0.25)
    basis = edsolver.build_zero_momentum_basis(L)
    mask = (1 << L) - 1
    # columns of V are the normalized equal-weight sums over each orbit
    V = np.zeros((2**L, basis.dim))
    for a, rep in enumerate(basis.reps):
        orbit = {int(((rep << s) | (rep >> (L - s))) & mask) for s in range(L)}
        V[sorted(orbit), a] = 1.0 / np.sqrt(len(orbit))
    # the package's sector is in the x basis: H^{(x)L} H H^{(x)L}, H^{(x)L} real
    x_frame = oracles.hadamard_all(oracles.hadamard_all(oracles.hamiltonian(L, p.g, p.h)).T).T
    projected = V.T @ x_frame @ V
    mat = edsolver.assemble_sector_hamiltonian(p, basis)
    arr = mat.toarray() if hasattr(mat, "toarray") else np.asarray(mat)
    assert np.abs(arr - projected).max() < 1e-12


@pytest.mark.parametrize("h", [0.0, 0.3])
def test_dense_and_sparse_assembly_agree(monkeypatch, h):
    for L in range(2, 11):
        p = ModelParams(L, 0.7, h)
        basis = edsolver.build_zero_momentum_basis(L)
        dense = edsolver.assemble_sector_hamiltonian(p, basis)
        with monkeypatch.context() as m:
            m.setattr(edsolver, "DENSE_EIG_MAX", 0)
            sparse = edsolver.assemble_sector_hamiltonian(p, basis)
        assert isinstance(dense, np.ndarray) and dense.dtype == np.float64
        assert hasattr(sparse, "toarray")
        assert np.abs(sparse.toarray() - dense).max() < 1e-14
        # the dense eigensolver takes either matrix type
        assert np.array_equal(
            edsolver.eigensolve(sparse, n_low=None).eigenvalues,
            edsolver.eigensolve(dense, n_low=None).eigenvalues,
        )


# Zamolodchikov's E8 mass ratios of the critical chain (g = 1) in a small
# longitudinal field: m2/m1 = 2 cos(pi/5) and m3/m1 = 2 cos(pi/30)
E8_RATIOS = (2 * math.cos(math.pi / 5), 2 * math.cos(math.pi / 30))


def test_critical_chain_in_a_small_field_has_the_e8_mass_ratios():
    # The ratios hold as h -> 0; at finite h the lattice moves them by a
    # correction that grows linearly in h (m1^2 ~ h^(16/15)). Where L = 18 and
    # 20 agree (h = 0.25, 0.3, 0.4), e2/e1 sits -0.66, -0.81, -1.12 % and
    # e3/e1 -1.08, -1.19, -1.57 % off; the lines through them predict -0.5 %
    # and -0.9 % at h = 0.2. Each tolerance is twice that: 1 % and 2 %.
    # At L = 18 the sector (14,602 orbits) takes the sparse assembly.
    lv = edsolver.solve_sector(ModelParams(18, 1.0, 0.2), n_low=4)
    assert lv.method == "iterative"
    ratios = (lv.gap(2) / lv.gap(1), lv.gap(3) / lv.gap(1))
    for ratio, e8, tol in zip(ratios, E8_RATIOS, (0.01, 0.02)):
        assert abs(ratio / e8 - 1.0) < tol, (ratio, e8)
