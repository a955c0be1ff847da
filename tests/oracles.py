"""Dense brute-force references the tests compare the package against.

Everything here is assembled from explicit Kronecker products on the full
2**L space, independently of the package's stride kernels, so agreement is
meaningful. Site j occupies bit j-1 of the state index, i.e. site 1 is the
least significant bit, matching the package convention. The references work
in the lab frame; hadamard_all carries a lab state to the x-frame
amplitudes that a package StateVector holds, and back. The Kronecker
references of fuse_site_matrices and its phase diagonals are the one
exception: they reuse the package's split_u2 and block layout, and build
every product with np.kron, which the package's broadcast products must
match bit for bit.
"""

import dataclasses

import numpy as np
import scipy.linalg

from isingspec import statevec as sv

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"x": X, "y": Y, "z": Z}
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def hadamard_all(psi: np.ndarray) -> np.ndarray:
    """H on every site of a state, or of every column of a (2**L, n) matrix.

    H^{(x)L} is its own inverse, so this maps lab amplitudes to x-frame ones
    and x-frame amplitudes back to lab ones.
    """
    psi = np.asarray(psi, dtype=complex)
    L = psi.shape[0].bit_length() - 1
    v = psi.reshape((2,) * L + psi.shape[1:])
    for axis in range(L):
        v = np.moveaxis(np.tensordot(HADAMARD, v, axes=(1, axis)), 0, axis)
    return v.reshape(psi.shape)


def basis_state(L: int, index: int) -> np.ndarray:
    """The lab computational basis state |index> as 2**L dense amplitudes."""
    psi = np.zeros(2**L, dtype=complex)
    psi[index] = 1.0
    return psi


def op_at(op: np.ndarray, site: int, L: int) -> np.ndarray:
    """Embed a 2x2 operator at 1-based `site` into the full 2**L space."""
    return np.kron(np.kron(np.eye(2 ** (L - site)), op), np.eye(2 ** (site - 1)))


def embed_gate(matrix: np.ndarray, sites: tuple[int, ...], L: int) -> np.ndarray:
    """Dense form of a 1- or 2-site gate.

    Two-site matrices index the first site as the most significant bit of
    the 4x4 row/column, the same layout the package's Gate uses.
    """
    if len(sites) == 1:
        return op_at(np.asarray(matrix), sites[0], L)
    a, b = sites
    m = np.asarray(matrix)
    dense = np.zeros((2**L, 2**L), dtype=complex)
    unit = np.zeros((2, 2), dtype=complex)
    for r in range(4):
        for c in range(4):
            if m[r, c] == 0:
                continue
            unit[:] = 0
            unit[(r >> 1) & 1, (c >> 1) & 1] = 1.0
            ea = op_at(unit.copy(), a, L)
            unit[:] = 0
            unit[r & 1, c & 1] = 1.0
            dense += m[r, c] * (ea @ op_at(unit, b, L))
    return dense


def hamiltonian(L: int, g: float, h: float) -> np.ndarray:
    """H = -sum XX - g sum Z - h sum X on the periodic chain."""
    H = np.zeros((2**L, 2**L), dtype=complex)
    for j in range(1, L + 1):
        k = j % L + 1
        H -= op_at(X, j, L) @ op_at(X, k, L)
        H -= g * op_at(Z, j, L)
        H -= h * op_at(X, j, L)
    return H


def evolve(psi: np.ndarray, L: int, g: float, h: float, t: float) -> np.ndarray:
    return scipy.linalg.expm(-1j * t * hamiltonian(L, g, h)) @ psi


def step_unitary(L: int, g: float, h: float, dt: float) -> np.ndarray:
    """One first-order step: single-site layer, then odd bonds, then even."""
    U1 = np.eye(2**L, dtype=complex)
    for j in range(1, L + 1):
        U1 = op_at(scipy.linalg.expm(1j * dt * (g * Z + h * X)), j, L) @ U1
    odd = [j for j in range(1, L + 1) if j % 2 == 1]
    even = [j for j in range(1, L + 1) if j % 2 == 0]
    if L % 2 == 1:
        odd.remove(L)
        even.append(L)
    U = U1
    for layer in (odd, even):
        for j in layer:
            k = j % L + 1
            bond = op_at(X, j, L) @ op_at(X, k, L)
            U = (np.cos(dt) * np.eye(2**L) + 1j * np.sin(dt) * bond) @ U
    return U


def step_state(psi: np.ndarray, L: int, g: float, h: float, dt: float) -> np.ndarray:
    """step_unitary(L, g, h, dt) @ psi, one dense gate at a time.

    The bond rotations commute, so their order does not matter; at L = 10
    this takes milliseconds where the full unitary takes seconds.
    """
    u1 = scipy.linalg.expm(1j * dt * (g * Z + h * X))
    for j in range(1, L + 1):
        psi = op_at(u1, j, L) @ psi
    for j in range(1, L + 1):
        k = j % L + 1
        flipped = op_at(X, j, L) @ (op_at(X, k, L) @ psi)
        psi = np.cos(dt) * psi + 1j * np.sin(dt) * flipped
    return psi


def noisy_site_expectations(
    L: int, g: float, h: float, dt: float, n_steps: int, p1: float, p2: float
) -> dict[str, np.ndarray]:
    """Per-site <x>, <y>, <z> of |+...+> under noisy Trotter steps, from rho.

    Returns an (n_steps + 1, L) array per axis, t = 0 included. The lab-frame
    density matrix follows the step gate by gate: the single-site gates on
    sites 1..L, then the odd bonds, then the even ones (the wrap bond last
    on an odd ring). After each gate every touched site gets the uniform
    Pauli channel rho -> (1 - p) rho + (p/3) sum_P P rho P, with p = p1 for
    single-site gates and p2 for bonds.
    """
    dim = 2**L
    plus = np.full(dim, dim**-0.5, dtype=complex)
    rho = np.outer(plus, plus)
    paulis = {j: [op_at(P, j, L) for P in (X, Y, Z)] for j in range(1, L + 1)}
    u1 = scipy.linalg.expm(1j * dt * (g * Z + h * X))
    gates = [(op_at(u1, j, L), (j,), p1) for j in range(1, L + 1)]
    odd = [j for j in range(1, L + 1) if j % 2 == 1]
    even = [j for j in range(1, L + 1) if j % 2 == 0]
    if L % 2 == 1:
        odd.remove(L)
        even.append(L)
    for j in odd + even:
        k = j % L + 1
        bond = np.cos(dt) * np.eye(dim) + 1j * np.sin(dt) * paulis[j][0] @ paulis[k][0]
        gates.append((bond, (j, k), p2))
    out = {axis: np.empty((n_steps + 1, L)) for axis in "xyz"}
    for step in range(n_steps + 1):
        for U, sites, p in gates if step else ():
            rho = U @ rho @ U.conj().T
            for j in sites:
                rho = (1 - p) * rho + p / 3 * sum(P @ rho @ P for P in paulis[j])
        for a, axis in enumerate("xyz"):
            out[axis][step] = [np.trace(paulis[j][a] @ rho).real for j in range(1, L + 1)]
    return out


def zero_momentum_orbits(L: int):
    """(reps, periods, rep_of, index_of) of the translation orbits of L-bit states, by definition.

    rep_of[s] is the smallest of the L cyclic rotations of s, the reps are
    the states that are their own rep (ascending), a period is the first
    rotation k >= 1 that returns its rep, and index_of maps each rep to its
    position in reps and every other state to -1. Built from all L rotations
    of all 2**L states at once.
    """
    states = np.arange(2**L, dtype=np.int64)
    rotations = np.array(
        [((states >> k) | (states << (L - k))) & (2**L - 1) for k in range(1, L + 1)]
    )
    rep_of = rotations.min(axis=0)
    reps = np.flatnonzero(rep_of == states)
    periods = 1 + np.argmax(rotations[:, reps] == reps, axis=0)
    index_of = np.full(2**L, -1, dtype=np.int64)
    index_of[reps] = np.arange(reps.size)
    return reps, periods, rep_of, index_of


def site_expectation(psi: np.ndarray, axis: str, site: int, L: int) -> float:
    return float(np.real(np.vdot(psi, op_at(PAULIS[axis], site, L) @ psi)))


def mean_expectation(psi: np.ndarray, axis: str, L: int) -> float:
    return sum(site_expectation(psi, axis, j, L) for j in range(1, L + 1)) / L


def sampled_correlator(bits: np.ndarray, mitigation: float = 1.0) -> np.ndarray:
    """Pair-loop G(r), r = 1 .. L//2, from a (shots, L) matrix of x-basis bits.

    Each bit b is the outcome z = 1 - 2b. Site means are divided by the
    mitigation factor and pair means by its square, as in readout mitigation.
    """
    z = 1.0 - 2.0 * np.asarray(bits, dtype=float)
    L = z.shape[1]
    m = z.mean(axis=0) / mitigation
    out = []
    for r in range(1, L // 2 + 1):
        acc = 0.0
        for i in range(L):
            j = (i + r) % L
            acc += float(np.mean(z[:, i] * z[:, j])) / mitigation**2 - m[i] * m[j]
        out.append(acc / L)
    return np.array(out)


# The shot sampler as plain numpy, step by step: unsorted inverse-CDF draws
# (sorted ones over the orbit layout), a sorting histogram, an int64 shift bit
# matrix, a two-pass twirl and the flips of the twirled channel. The
# package's samplers must make the same draws and give the same arrays.


def sample_indices(probs: np.ndarray, shots: int, rng: np.random.Generator):
    """(unique basis indices, counts) of `shots` inverse-CDF draws from probs."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    draws = np.searchsorted(cdf, rng.random(shots), side="right")
    return np.unique(draws, return_counts=True)


def sample_orbit_layout(probs: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Per-shot basis indices of `shots` draws from the probs of a
    translation-invariant state, with the members of each translation orbit
    laid out next to each other, in the order of their sorted uniforms.

    The orbits come in order of their reps, and member r of an orbit is its
    rep rotated up by r bits (bit b -> b + r), r = 0 .. period - 1; every
    member holds the rep's probability. Sorted uniforms pick an orbit from
    the CDF of period * probs[rep] and a member from where each falls within
    its orbit's share.
    """
    L = probs.size.bit_length() - 1
    reps, periods, _, _ = zero_momentum_orbits(L)
    u = np.sort(rng.random(shots))
    cdf = np.cumsum(periods * probs[reps])
    cdf /= cdf[-1]
    orbit = np.searchsorted(cdf, u, side="right")
    start = np.concatenate(([0.0], cdf))[orbit]
    share = (u - start) / (cdf[orbit] - start)
    r = np.minimum((periods[orbit] * share).astype(np.int64), periods[orbit] - 1)
    rep = reps[orbit]
    return ((rep << r) | (rep >> (L - r))) & (2**L - 1)


def bits_from_indices(indices: np.ndarray, counts: np.ndarray, L: int) -> np.ndarray:
    """Per-shot (shots, L) uint8 bit matrix; site j is column j - 1."""
    expanded = np.repeat(indices.astype(np.int64), counts)
    return ((expanded[:, None] >> np.arange(L)) & 1).astype(np.uint8)


def readout_error(bits: np.ndarray, p01: float, p10: float, rng: np.random.Generator) -> np.ndarray:
    """Flip 0 -> 1 with p01 and 1 -> 0 with p10, one uniform per bit."""
    u = rng.random(bits.shape)
    flip = np.where(bits == 0, u < p01, u < p10)
    return np.where(flip, bits ^ 1, bits).astype(bits.dtype)


def twirled_readout(bits: np.ndarray, p01: float, p10: float, rng: np.random.Generator) -> np.ndarray:
    """readout_error between two applications of a random X mask."""
    mask = rng.integers(0, 2, size=bits.shape, dtype=bits.dtype)
    return readout_error(bits ^ mask, p01, p10, rng) ^ mask


def twirled_flips(bits: np.ndarray, p_eff: float, rng: np.random.Generator) -> np.ndarray:
    """The twirled readout channel as it is drawn: a Binomial(bits.size,
    p_eff) count of distinct entries of a (shots, L) bit matrix, picked
    uniformly by their row-major position, flipped."""
    flat = bits.flatten()
    flat[rng.choice(bits.size, rng.binomial(bits.size, p_eff), replace=False)] ^= 1
    return flat.reshape(bits.shape)


def estimates_from_bits(bits: np.ndarray) -> np.ndarray:
    """Per-site 1 - 2 * mean(bit)."""
    return 1.0 - 2.0 * bits.mean(axis=0)


def kron_product_diagonal(pairs):
    """statevec._product_diagonal by np.kron, one site's pair after another:
    (low, high) over the lowest PHASE_BITS bits and those above, or None."""
    if all(p is None for p in pairs):
        return None
    factors = []
    for group in (pairs[: sv.PHASE_BITS], pairs[sv.PHASE_BITS :]):
        d = None
        if any(p is not None for p in group):
            d = np.ones(1, dtype=complex)
            for p in group:
                d = np.kron(np.asarray((1, 1) if p is None else p, dtype=complex), d)
        factors.append(d)
    return tuple(factors)


def kron_fuse_site_matrices(mats):
    """statevec.fuse_site_matrices by np.kron: every site split by split_u2
    on its own, and each block of BLOCK_SITES rotations built as a Kronecker
    chain, the highest bit the most significant factor (kron(block, I2) on
    bit 0)."""
    parts = [(None, None, None) if m is None else sv.split_u2(m) for m in mats]
    blocks = []
    for lo in range(0, len(parts), sv.BLOCK_SITES):
        rots = [rot for _, rot, _ in parts[lo : lo + sv.BLOCK_SITES]]
        if all(r is None for r in rots):
            continue
        block = np.ones((1, 1))
        for r in rots:
            block = np.kron(np.eye(2) if r is None else r, block)
        blocks.append((lo, len(rots), np.kron(block, np.eye(2)) if lo == 0 else block))
    right = kron_product_diagonal([r for _, _, r in parts])
    return sv.SiteLayer(right, tuple(blocks), kron_product_diagonal([left for left, _, _ in parts]))


def bits(obj):
    """obj with each ndarray as (dtype, shape, bytes) and each dataclass as
    its fields, through tuples and lists: two results compare equal exactly
    when their arrays match bit for bit."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, [bits(getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    if isinstance(obj, (tuple, list)):
        return [bits(x) for x in obj]
    return obj


def arrays(obj):
    """Every ndarray in obj, through tuples, lists and dataclass fields, as bits walks them."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from arrays(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from arrays(x)
