"""Exact diagonalization in the zero-momentum sector of the periodic chain.

The quench starts from the translation-invariant polarized state, so all the
dynamics (and the meson levels it resolves) live in the k = 0 momentum sector.
Basis states are translation orbits, labelled by their lexicographically
smallest bit pattern. The orbit state of period R is the equal-weight sum of
its R members, normalized by 1/sqrt(R), so the sector Hamiltonian is real
symmetric. The bits are those of statevec's x frame (bit 0 <-> sx = +1),
where the bonds and the h term are diagonal and only the g term flips bits;
translations do not see the frame, so the orbits are those of any basis.
statevec.exact_evolve evolves in the same basis with the same matrix, and
statevec.orbit_sums measures invariant states on its zero_momentum_orbits.

At h = 0 the chain maps to free fermions; free_fermion_oracle reproduces the
full many-body spectrum from the single-particle dispersion

    eps(k) = 2 sqrt(1 + g^2 - 2 g cos k)

on the two parity grids (antiperiodic k = 2 pi (m + 1/2) / L with an even
number of quasiparticles, periodic k = 2 pi m / L with an odd number, where
the unpaired k = 0 mode carries signed energy 2 (g - 1)).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import ModelParams

if TYPE_CHECKING:
    import scipy.sparse

BASIS_L_MAX = 20
DENSE_EIG_MAX = 4096
DEGENERACY_TOL = 1e-9
RESIDUAL_TOL = 1e-8
ORBIT_BLOCK = 1 << 16  # states screened at once by zero_momentum_orbits


class ConvergenceError(RuntimeError):
    """Raised when the iterative eigensolver misses the residual tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual

    def __reduce__(self):
        # args holds only the message; a worker process sends the residual too
        return type(self), (self.args[0], self.residual)


@dataclass
class SectorBasis:
    """Translation-orbit basis of the zero-momentum sector."""

    L: int
    reps: np.ndarray      # orbit representatives, ascending
    periods: np.ndarray   # orbit period R per representative
    rep_of: np.ndarray    # any state -> its representative (size 2**L)
    index_of: np.ndarray  # representative -> basis index, -1 elsewhere

    @property
    def dim(self) -> int:
        return int(self.reps.size)


def translate(states: np.ndarray, L: int, mask: int, by: int = 1) -> np.ndarray:
    """Cyclic shift by `by` sites: site j -> j+by, i.e. bit b -> b+by mod L."""
    return ((states << by) & mask) | (states >> (L - by))


def check_L(L: int) -> None:
    if not 2 <= L <= BASIS_L_MAX:
        raise ValueError(f"L={L} outside supported range [2, {BASIS_L_MAX}]")


@functools.cache
def zero_momentum_orbits(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int64 (reps, periods) of the translation orbits: the states
    that are <= each of their rotations, and the first rotation that returns
    each. Only 0, the all-ones state and the odd states below 2**(L - 1) are
    screened, ORBIT_BLOCK at a time (no 2**L temporary): an even state's
    rotation by L - 1 is smaller, and so is a rotation that moves a 0 bit of
    a state with its top bit set to the top."""
    mask = (1 << L) - 1
    half = 1 << (L - 1)
    found = [np.zeros(1, dtype=np.uint32)]
    for lo in range(0, half, ORBIT_BLOCK):
        states = np.arange(lo + 1, min(lo + ORBIT_BLOCK, half), 2, dtype=np.uint32)
        for by in range(1, L):
            states = states[states <= translate(states, L, mask, by)]
        found.append(states)
    found.append(np.full(1, mask, dtype=np.uint32))
    reps = np.concatenate(found).astype(np.int64)
    divisors = [d for d in range(1, L + 1) if L % d == 0]  # every period divides L
    periods = np.select([translate(reps, L, mask, d) == reps for d in divisors], divisors)
    reps.flags.writeable = periods.flags.writeable = False
    return reps, periods


def build_zero_momentum_basis(L: int) -> SectorBasis:
    """All translation-orbit representatives; dimension = binary necklace count."""
    check_L(L)
    reps, periods = zero_momentum_orbits(L)
    rep_of = np.empty(1 << L, dtype=np.int64)
    rot = reps
    for _ in range(L):  # scatter each rep over its rotations
        rep_of[rot] = reps
        rot = translate(rot, L, (1 << L) - 1)
    index_of = np.full(1 << L, -1, dtype=np.int64)
    index_of[reps] = np.arange(reps.size)
    return SectorBasis(L, reps, periods, rep_of, index_of)


def assemble_sector_hamiltonian(
    params: ModelParams, basis: SectorBasis
) -> np.ndarray | scipy.sparse.csr_matrix:
    """Real symmetric x-basis sector matrix.

    The diagonal is -(L - 2 popcount(s ^ rot s)) - h (L - 2 popcount(s)),
    the bonds and the h term, from the popcounts the Trotter engine uses.
    The g term flips one bit: entry (b, a) = -g sqrt(R_a / R_b) for each
    of the L single-bit flips that take orbit a to orbit b. A dense float64
    array up to DENSE_EIG_MAX dims, where every solve and evolution is
    dense anyway; a scipy.sparse CSR matrix above, so scipy is imported
    only for sectors that need it.
    """
    if params.L != basis.L:
        raise ValueError(f"params.L={params.L} does not match basis.L={basis.L}")
    L, g, h = params.L, params.g, params.h
    reps = basis.reps
    dim = basis.dim
    periods = basis.periods.astype(np.float64)
    src = np.arange(dim)
    broken = np.bitwise_count(reps ^ translate(reps, L, (1 << L) - 1))
    rows = [src]
    cols = [src]
    vals = [-(L - 2.0 * broken) - h * (L - 2.0 * np.bitwise_count(reps))]
    for j in range(L):
        target = basis.index_of[basis.rep_of[reps ^ (1 << j)]]
        rows.append(target)
        cols.append(src)
        vals.append(-g * np.sqrt(periods / periods[target]))

    index = (np.concatenate(rows), np.concatenate(cols))
    values = np.concatenate(vals)
    if dim <= DENSE_EIG_MAX:
        mat = np.zeros((dim, dim))
        np.add.at(mat, index, values)
        # every nonzero entry sits at some (row, col) of index
        asym = np.abs(mat[index] - mat.T[index]).max()
    else:
        import scipy.sparse

        mat = scipy.sparse.coo_matrix((values, index), shape=(dim, dim)).tocsr()
        asym = abs(mat - mat.T).max()
    if asym > 1e-12:
        raise AssertionError(f"sector matrix asymmetry {asym:.2e} exceeds 1e-12")
    return mat


@dataclass
class EnergyLevels:
    """Sorted eigenvalues with degenerate values merged into labelled levels.

    levels[n] is the n-th distinct energy (ties within 1e-9 merged, with
    multiplicities); gaps holds e_n = levels[n] - levels[0] for n >= 1.
    """

    eigenvalues: np.ndarray
    levels: np.ndarray
    multiplicities: np.ndarray
    method: str  # "dense" | "iterative"
    residual: float
    dim: int  # sector dimension

    @property
    def gaps(self) -> np.ndarray:
        return self.levels[1:] - self.levels[0]

    def gap(self, n: int) -> float:
        """e_n = E_n - E_0 over distinct levels, n >= 1."""
        if not 1 <= n < self.levels.size:
            raise IndexError(f"level index {n} outside [1, {self.levels.size - 1}]")
        return float(self.levels[n] - self.levels[0])

    def diff(self, m: int, n: int) -> float:
        """e_mn = e_m - e_n = E_m - E_n."""
        return self.gap(m) - self.gap(n)


def _merge_levels(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    levels = [raw[0]]
    mult = [1]
    for val in raw[1:]:
        if val - levels[-1] < DEGENERACY_TOL:
            mult[-1] += 1
        else:
            levels.append(val)
            mult.append(1)
    return np.array(levels), np.array(mult)


def check_n_low(n_low: int | None) -> None:
    if n_low is not None and n_low < 1:
        raise ValueError(f"n_low must be >= 1 (or None for every eigenvalue), got {n_low}")


def eigensolve(matrix, n_low: int | None = 6) -> EnergyLevels:
    """Lowest part of the spectrum, dense up to DENSE_EIG_MAX dims, Lanczos above.

    n_low >= 1 counts raw eigenvalues (n_low=None keeps every one, dense path
    only). The iterative path starts Lanczos from a fixed vector, so repeated
    solves agree bit for bit; it verifies ||A v - lambda v|| < 1e-8 per pair
    and raises ConvergenceError with the achieved residual otherwise.
    """
    check_n_low(n_low)
    dim = matrix.shape[0]
    if dim <= DENSE_EIG_MAX:
        method = "dense"
        dense = matrix.toarray() if hasattr(matrix, "toarray") else np.asarray(matrix)
        raw = np.linalg.eigvalsh(dense)
        if n_low is not None:
            raw = raw[:n_low]
        residual = 0.0
    else:
        method = "iterative"
        if n_low is None:
            raise ValueError("n_low=None (full spectrum) requires the dense path")
        from scipy.sparse.linalg import eigsh

        from .statevec import pin_blas_threads

        pin_blas_threads("scipy")  # eigsh's reductions then keep one order

        k = min(n_low, dim - 1)
        # A fixed start makes the result reproducible. A constant vector would be
        # even under reflection (and spin flip at h = 0); a ramp is not, so it
        # has weight in every symmetry sector of the matrix.
        v0 = np.linspace(1.0, 2.0, dim)
        vals, vecs = eigsh(matrix, k=k, which="SA", v0=v0)
        order = np.argsort(vals)
        raw, vecs = vals[order], vecs[:, order]
        resids = np.linalg.norm(matrix @ vecs - vecs * raw[None, :], axis=0)
        residual = float(resids.max())
        if residual > RESIDUAL_TOL:
            raise ConvergenceError(
                f"eigensolver residual {residual:.2e} exceeds {RESIDUAL_TOL}", residual
            )
    levels, mult = _merge_levels(raw)
    return EnergyLevels(raw, levels, mult, method, residual, dim)


def solve_sector(params: ModelParams, n_low: int | None = 6) -> EnergyLevels:
    """Convenience: build the k = 0 basis, assemble, and eigensolve."""
    basis = build_zero_momentum_basis(params.L)
    return eigensolve(assemble_sector_hamiltonian(params, basis), n_low=n_low)


ORACLE_L_MAX = 16  # full 2**L enumeration below


def free_fermion_oracle(L: int, g: float) -> np.ndarray:
    """All 2**L many-body energies of the h = 0 chain, sorted ascending.

    Even L only (odd rings put the unpaired modes in the wrong sectors), and
    L >= 4: at L = 2 the periodic sum doubles the single bond, which the
    generic dispersion does not describe.
    """
    if L % 2 or L < 4:
        raise ValueError(f"free-fermion oracle needs even L >= 4, got {L}")
    if L > ORACLE_L_MAX:
        raise ValueError(f"oracle enumerates 2**L states; L={L} exceeds {ORACLE_L_MAX}")
    m = np.arange(L)

    def dispersion(k: np.ndarray) -> np.ndarray:
        return 2.0 * np.sqrt(1.0 + g * g - 2.0 * g * np.cos(k))

    eps_even = dispersion(2.0 * np.pi * (m + 0.5) / L)  # antiperiodic grid
    eps_odd = dispersion(2.0 * np.pi * m / L)           # periodic grid
    eps_odd[0] = 2.0 * (g - 1.0)                        # unpaired k = 0 mode, signed

    occ = ((np.arange(1 << L)[:, None] >> m) & 1).astype(np.float64)
    n_quasi = occ.sum(axis=1).astype(np.int64)
    e_even = -0.5 * eps_even.sum() + occ @ eps_even
    e_odd = -0.5 * eps_odd.sum() + occ @ eps_odd
    return np.sort(np.concatenate([e_even[n_quasi % 2 == 0], e_odd[n_quasi % 2 == 1]]))


def spectrum_contains(
    spectrum: np.ndarray, values: np.ndarray, tol: float = RESIDUAL_TOL
) -> bool:
    """True when `values` is a sub-multiset of `spectrum` within tol.

    Both inputs are treated as multisets; matching is greedy over the sorted
    arrays, consuming at most one spectrum entry per value.
    """
    spectrum = np.sort(np.asarray(spectrum))
    values = np.sort(np.asarray(values))
    i = 0
    for v in values:
        while i < spectrum.size and spectrum[i] < v - tol:
            i += 1
        if i == spectrum.size or spectrum[i] > v + tol:
            return False
        i += 1
    return True
