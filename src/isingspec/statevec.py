"""Dense statevector engine for chains of up to 24 sites.

Conventions, fixed project-wide:

  * site j (1-indexed) lives on bit j-1 of the basis index (little-endian);
    bitstrings are printed with site 1 first.
  * |0> is the sz = +1 eigenstate; RX(t) = exp(-i t sx / 2), RZ(t) = exp(-i t sz / 2).
  * sampling axis x applies H, axis y applies S-dagger then H, axis z nothing,
    before reading out the computational basis.

A StateVector holds its amplitudes in one of two frames. Frame "z" is the
computational basis. Frame "x" is the Hadamard frame: the amplitudes are
psi_x = H^{(x)L} psi, so index s labels the product of sx eigenstates with
bit 0 <-> +1. The Trotter engine runs in the x frame, where the polarized
start state is |0...0>, every sx sx bond is diagonal, and x-basis outcome
probabilities are |psi_x|^2 without a rotated copy. Measurements and
expectations honour the frame; the raw kernels (apply_matrix1/2, apply_gate,
the fused site blocks and the phase diagonals) act on the stored amplitudes
as they are.

Gate application is in place via bit-masked stride views; any site pair is
allowed for two-site gates. The x-frame kernels fuse the same 2x2 matrix on
4 neighbouring sites into one 16x16 block and apply blocks and diagonals in
place over cache-sized chunks, so a step allocates a few chunks, never a
state-sized temporary. Exact time evolution uses a dense eigensystem of H up
to L = 14 and a matrix-free Lanczos exponential beyond.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .model import AXES, L_MAX, ModelParams, hamiltonian_terms

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
S_DAGGER = np.array([[1, 0], [0, -1j]], dtype=complex)
FRAMES = ("z", "x")
# per-site readout pre-rotation, by frame and measured axis. In the lab frame
# axis y applies S-dagger, then H; in the x frame the stored amplitudes are
# already H-rotated, so each lab rotation R becomes R H.
_MEAS_ROTATION = {
    "z": {"x": HADAMARD, "y": HADAMARD @ S_DAGGER, "z": None},
    "x": {"x": None, "y": HADAMARD @ S_DAGGER @ HADAMARD, "z": HADAMARD},
}

DENSE_EVOLVE_MAX = 14  # largest L for the precomputed dense propagator path
_UNITARY_TOL = 1e-12
CHUNK = 1 << 13  # amplitudes per in-place kernel chunk (128 KiB of complex128)
BLOCK_SITES = 4  # sites fused into one 2**4 x 2**4 block


class StateVector:
    """Complex amplitudes over the 2**L basis states of a frame ("z" or "x")."""

    __slots__ = ("L", "amplitudes", "frame")

    def __init__(self, L: int, amplitudes: np.ndarray, frame: str = "z"):
        if frame not in FRAMES:
            raise ValueError(f"frame must be one of {FRAMES}, got {frame!r}")
        if not 1 <= L <= L_MAX:
            raise ValueError(f"L={L} outside supported range [1, {L_MAX}]")
        amplitudes = np.ascontiguousarray(amplitudes, dtype=np.complex128)
        if amplitudes.shape != (1 << L,):
            raise ValueError(
                f"expected {1 << L} amplitudes for L={L}, got shape {amplitudes.shape}"
            )
        self.L = L
        self.amplitudes = amplitudes
        self.frame = frame

    def copy(self) -> "StateVector":
        return StateVector(self.L, self.amplitudes.copy(), self.frame)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self):
        return f"StateVector(L={self.L}, frame={self.frame!r})"


def _require_lab(state: StateVector) -> None:
    if state.frame != "z":
        raise ValueError(f"needs a computational-basis (frame 'z') state, got frame {state.frame!r}")


def init_all_plus(L: int) -> StateVector:
    """|->,...,-> : Hadamard on every site of |0...0>; all amplitudes 2**(-L/2)."""
    amps = np.full(1 << L, 2.0 ** (-L / 2), dtype=np.complex128)
    return StateVector(L, amps)


def zero_state(L: int) -> StateVector:
    return basis_state(L, 0)


def basis_state(L: int, index: int) -> StateVector:
    if not 0 <= index < (1 << L):
        raise ValueError(f"basis index {index} out of range for L={L}")
    amps = np.zeros(1 << L, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(L, amps)


def format_bitstring(index: int, L: int) -> str:
    """Render a basis index with site 1 as the leftmost character."""
    return "".join("1" if (index >> b) & 1 else "0" for b in range(L))


@dataclass(frozen=True, eq=False)
class Gate:
    """A 2x2 or 4x4 unitary bound to one or two (1-indexed, distinct) sites.

    For two-site gates the matrix is indexed with the first site as the most
    significant bit: row = 2*b(sites[0]) + b(sites[1]).
    """

    matrix: np.ndarray
    sites: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "sites", tuple(self.sites))
        n = len(self.sites)
        if n not in (1, 2):
            raise ValueError("gates act on one or two sites")
        if len(set(self.sites)) != n:
            raise ValueError(f"duplicate gate targets {self.sites}")
        if m.shape != (2**n, 2**n):
            raise ValueError(f"matrix shape {m.shape} does not match {n} site(s)")
        dev = np.abs(m @ m.conj().T - np.eye(2**n)).max()
        if dev > _UNITARY_TOL:
            raise ValueError(f"gate matrix is not unitary (deviation {dev:.2e})")


def h_gate(site: int) -> Gate:
    return Gate(HADAMARD, (site,), "h")


def x_gate(site: int) -> Gate:
    return Gate(PAULI_X, (site,), "x")


def sdg_gate(site: int) -> Gate:
    return Gate(S_DAGGER, (site,), "sdg")


def rx_gate(theta: float, site: int) -> Gate:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return Gate(np.array([[c, -1j * s], [-1j * s, c]]), (site,), "rx")


def rz_gate(theta: float, site: int) -> Gate:
    return Gate(np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]), (site,), "rz")


def cnot_gate(control: int, target: int) -> Gate:
    m = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    return Gate(m, (control, target), "cnot")


def xx_rotation_gate(theta: float, site_a: int, site_b: int) -> Gate:
    """exp(i * theta * sx sx) on the given pair."""
    m = math.cos(theta) * np.eye(4, dtype=complex) + 1j * math.sin(theta) * np.kron(
        PAULI_X, PAULI_X
    )
    return Gate(m, (site_a, site_b), "xx")


def _check_site(L: int, site: int):
    if not 1 <= site <= L:
        raise ValueError(f"site {site} out of range for L={L}")


def apply_matrix1(state: StateVector, m: np.ndarray, site: int) -> None:
    """Apply a 2x2 matrix to one site, in place. No unitarity check (hot path)."""
    _check_site(state.L, site)
    bit = site - 1
    v = state.amplitudes.reshape(-1, 2, 1 << bit)
    a0 = v[:, 0, :].copy()
    a1 = v[:, 1, :]
    v[:, 0, :] = m[0, 0] * a0 + m[0, 1] * a1
    v[:, 1, :] = m[1, 0] * a0 + m[1, 1] * a1


def apply_matrix2(state: StateVector, m: np.ndarray, site_a: int, site_b: int) -> None:
    """Apply a 4x4 matrix (site_a on the most significant bit) in place."""
    _check_site(state.L, site_a)
    _check_site(state.L, site_b)
    if site_a == site_b:
        raise ValueError(f"duplicate gate targets ({site_a}, {site_b})")
    ba, bb = site_a - 1, site_b - 1
    p, q = (ba, bb) if ba > bb else (bb, ba)
    n = state.amplitudes.size
    v = state.amplitudes.reshape(n >> (p + 1), 2, 1 << (p - q - 1), 2, 1 << q)

    def sel(ia: int, ib: int) -> np.ndarray:
        # axis 1 is bit p, axis 3 is bit q
        hi, lo = (ia, ib) if ba == p else (ib, ia)
        return v[:, hi, :, lo, :]

    blocks = [sel(0, 0), sel(0, 1), sel(1, 0), sel(1, 1)]
    new = [
        m[r, 0] * blocks[0] + m[r, 1] * blocks[1] + m[r, 2] * blocks[2] + m[r, 3] * blocks[3]
        for r in range(4)
    ]
    for r, (ia, ib) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        sel(ia, ib)[...] = new[r]


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply a Gate in place and return the same state."""
    if len(gate.sites) == 1:
        apply_matrix1(state, gate.matrix, gate.sites[0])
    else:
        apply_matrix2(state, gate.matrix, gate.sites[0], gate.sites[1])
    return state


# ---------------------------------------------------------------------------
# x-frame kernels: fused site blocks, popcount phase diagonals, bit marginals
# ---------------------------------------------------------------------------


def fuse_site_matrices(mats) -> list[tuple[int, int, np.ndarray]]:
    """Group per-site 2x2 matrices (index = bit, None = identity) into blocks.

    Returns (lowest bit, bit count, 2**k x 2**k matrix) for every run of up
    to BLOCK_SITES neighbouring bits that holds a non-identity matrix. Within
    a block the highest bit is the most significant factor of the Kronecker
    product, matching the basis-index layout.
    """
    blocks = []
    for lo in range(0, len(mats), BLOCK_SITES):
        group = mats[lo : lo + BLOCK_SITES]
        if all(m is None for m in group):
            continue
        block = np.ones((1, 1), dtype=complex)
        for m in group:
            block = np.kron(IDENTITY_2 if m is None else m, block)
        blocks.append((lo, len(group), block))
    return blocks


def _apply_block(amps: np.ndarray, m: np.ndarray, lo: int, k: int) -> None:
    """amps <- (I x m x I) amps with m on bits lo .. lo+k-1, in place, by chunks.

    The chunks run over the index axes the block does not touch: rows of the
    (rest, 2**k) view for the lowest block, (rest, 2**k, 2**lo) slabs for
    the others, split along the low columns when one slab exceeds CHUNK.
    """
    K, C = 1 << k, 1 << lo
    if C == 1:
        rows = amps.reshape(-1, K)
        mt = m.T
        step = max(1, CHUNK // K)
        for a in range(0, rows.shape[0], step):
            blk = rows[a : a + step]
            blk[...] = blk @ mt
        return
    v = amps.reshape(-1, K, C)
    a_step = max(1, CHUNK // (K * C))
    c_step = min(C, max(1, CHUNK // K))
    for a in range(0, v.shape[0], a_step):
        for c in range(0, C, c_step):
            blk = v[a : a + a_step, :, c : c + c_step]
            blk[...] = m @ blk


def apply_site_blocks(state: StateVector, blocks) -> StateVector:
    """Apply fused blocks from fuse_site_matrices to the amplitudes, in place."""
    for lo, k, m in blocks:
        _apply_block(state.amplitudes, m, lo, k)
    return state


def ring_xor_popcount(L: int, r: int = 1, mask: int | None = None) -> np.ndarray:
    """popcount((s XOR rot^r(s)) & mask) for every basis index s, as uint8.

    rot^r moves site j + r onto site j around the ring, so bit j-1 of the
    XOR is set when sites j and j + r disagree. In the x frame that counts
    the broken sx sx bonds: sum_j sx_j sx_{j+r} = L - 2 * popcount. mask
    selects which (j, j + r) pairs count; the default is all L.
    """
    full = (1 << L) - 1
    s = np.arange(1 << L, dtype=np.uint32)
    d = s >> np.uint32(r)
    d |= (s << np.uint32(L - r)) & np.uint32(full)
    d ^= s
    if mask is not None and mask != full:
        d &= np.uint32(mask)
    return np.bitwise_count(d)


def apply_phase_index(state: StateVector, index: np.ndarray, table: np.ndarray) -> StateVector:
    """amps[s] *= table[index[s]], in place, by chunks: a diagonal stored as
    a small phase table plus a uint8 index instead of 2**L complex phases."""
    amps = state.amplitudes
    for lo in range(0, amps.size, CHUNK):
        amps[lo : lo + CHUNK] *= table[index[lo : lo + CHUNK]]
    return state


def bit_marginals(probs: np.ndarray, L: int) -> np.ndarray:
    """sum_s probs[s] * bit_b(s) for every bit b, by halving the index range."""
    out = np.empty(L)
    q = probs
    for b in range(L - 1, -1, -1):
        half = q.size >> 1
        out[b] = q[half:].sum()
        q = q[:half] + q[half:]
    return out


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def expectation(state: StateVector, axis: str, site: int) -> float:
    """Exact <pauli_axis(site)> from the amplitudes."""
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    _check_site(state.L, site)
    return float(site_expectations(state, axis)[site - 1])


def site_expectations(state: StateVector, axis: str) -> np.ndarray:
    """<pauli_axis> for every site, shape (L,): bit marginals of the outcome
    probabilities in that basis."""
    return 1.0 - 2.0 * bit_marginals(measurement_probabilities(state, axis), state.L)


def _normalize_axes(axes, L: int) -> tuple[str, ...]:
    if isinstance(axes, str):
        if len(axes) == 1:
            axes = (axes,) * L
        else:
            axes = tuple(axes)
    axes = tuple(axes)
    if len(axes) != L:
        raise ValueError(f"need one axis per site ({L}), got {len(axes)}")
    for a in axes:
        if a not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {a!r}")
    return axes


def measurement_probabilities(state: StateVector, axes) -> np.ndarray:
    """Outcome probabilities after rotating each site's axis onto z.

    axes is a single axis character (applied to all sites) or one per site.
    The per-site rotations depend on the state's frame; when none is needed
    (x in the x frame, z in the lab frame) the probabilities come straight
    from the amplitudes, otherwise from one copy rotated by fused blocks.
    """
    axes = _normalize_axes(axes, state.L)
    rotations = _MEAS_ROTATION[state.frame]
    blocks = fuse_site_matrices([rotations[ax] for ax in axes])
    amps = apply_site_blocks(state.copy(), blocks).amplitudes if blocks else state.amplitudes
    p = np.abs(amps)
    np.square(p, out=p)
    total = p.sum()
    if not math.isfinite(total) or total <= 0:
        raise ValueError("state has no probability mass; was it initialized?")
    p /= total
    return p


def _sample_indices(probs: np.ndarray, shots: int, rng: np.random.Generator):
    """Draw basis indices by inverse CDF; returns (unique indices, counts)."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    draws = np.searchsorted(cdf, rng.random(shots), side="right")
    return np.unique(draws, return_counts=True)


def sample_index_counts(state: StateVector, axes, shots: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sampled measurement in per-site bases; returns (basis indices, counts)."""
    if shots < 1:
        raise ValueError("shots must be >= 1; use expectation() for exact values")
    rng = np.random.default_rng(rng)
    probs = measurement_probabilities(state, axes)
    return _sample_indices(probs, shots, rng)


def sample_counts(state: StateVector, axes, shots: int, seed) -> dict[str, int]:
    """Bitstring histogram of a sampled measurement (site 1 leftmost)."""
    idx, counts = sample_index_counts(state, axes, shots, seed)
    L = state.L
    return {format_bitstring(int(i), L): int(c) for i, c in zip(idx, counts)}


def bits_from_indices(indices: np.ndarray, counts: np.ndarray, L: int) -> np.ndarray:
    """Expand an index histogram into a per-shot bit matrix, shape (shots, L)."""
    expanded = np.repeat(indices.astype(np.int64), counts)
    return ((expanded[:, None] >> np.arange(L)) & 1).astype(np.uint8)


def estimates_from_bits(bits: np.ndarray) -> np.ndarray:
    """Per-site <z> estimates, i.e. 1 - 2 * mean(bit), shape (L,)."""
    return 1.0 - 2.0 * bits.mean(axis=0)


def estimates_from_indices(indices: np.ndarray, counts: np.ndarray, L: int, shots: int) -> np.ndarray:
    """Per-site <z> estimates of an index histogram of `shots` draws, via its bit matrix."""
    return estimates_from_bits(bits_from_indices(indices, counts, L))


# ---------------------------------------------------------------------------
# Hamiltonian action and exact evolution
# ---------------------------------------------------------------------------


def _flip_axes(L: int, sites: tuple[int, ...]) -> tuple[int, ...]:
    # site j <-> bit j-1 <-> axis L-1-(j-1) of the (2,)*L view
    return tuple(L - site for site in sites)


def hamiltonian_action(params: ModelParams):
    """Matrix-free H application: returns apply(psi) -> H psi.

    sz terms are diagonal; every sx factor flips its bit, which on the
    (2,)*L-shaped view is an axis reversal (a numpy view, no copy).
    """
    L, g, h = params.L, params.g, params.h
    dim = 1 << L
    shape = (2,) * L
    zsum = L - 2.0 * np.bitwise_count(np.arange(dim)).astype(np.float64)
    diag = -g * zsum
    bond_axes = [_flip_axes(L, bond) for bond in params.bonds()]
    site_axes = [_flip_axes(L, (j,)) for j in range(1, L + 1)]

    def apply(psi: np.ndarray) -> np.ndarray:
        out = diag * psi
        pv = psi.reshape(shape)
        ov = out.reshape(shape)
        for ax in bond_axes:
            ov -= np.flip(pv, axis=ax)
        if h != 0.0:
            for ax in site_axes:
                ov -= h * np.flip(pv, axis=ax)
        return out

    return apply


def energy_expectation(state: StateVector, params: ModelParams) -> float:
    _require_lab(state)
    if state.L != params.L:
        raise ValueError("state size does not match params.L")
    apply = hamiltonian_action(params)
    return float(np.real(np.vdot(state.amplitudes, apply(state.amplitudes))))


def dense_hamiltonian(params: ModelParams) -> np.ndarray:
    """Dense real-symmetric H assembled from the Pauli term list."""
    L = params.L
    dim = 1 << L
    out = np.zeros((dim, dim))
    idx = np.arange(dim)
    for term in hamiltonian_terms(params):
        mask = 0
        zsites = []
        for site, axis in term.factors:
            if axis == "x":
                mask |= 1 << (site - 1)
            elif axis == "z":
                zsites.append(site)
            else:
                raise ValueError("dense assembly supports x/z factors only")
        vals = np.full(dim, term.coefficient)
        for site in zsites:
            vals = vals * (1.0 - 2.0 * ((idx >> (site - 1)) & 1))
        out[idx ^ mask, idx] += vals
    return out


@lru_cache(maxsize=2)
def _dense_eigensystem(params: ModelParams):
    evals, evecs = np.linalg.eigh(dense_hamiltonian(params))
    return evals, evecs


def _lanczos_expm(apply_h, psi: np.ndarray, dt: float, tol: float, m_max: int = 90) -> np.ndarray:
    """exp(-i dt H) psi by a Lanczos Krylov approximation with posterior error bound."""
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        return psi.copy()
    vecs = [psi / nrm]
    alphas: list[float] = []
    betas: list[float] = []
    for m in range(1, m_max + 1):
        w = apply_h(vecs[-1])
        if len(vecs) > 1:
            w -= betas[-1] * vecs[-2]
        a = float(np.real(np.vdot(vecs[-1], w)))
        w -= a * vecs[-1]
        # full reorthogonalization: cheap at these Krylov sizes, avoids ghost modes
        for v in vecs:
            w -= np.vdot(v, w) * v
        alphas.append(a)
        b = float(np.linalg.norm(w))
        t_mat = np.diag(alphas).astype(complex)
        if len(betas) > 0:
            off = np.array(betas)
            t_mat += np.diag(off, 1) + np.diag(off, -1)
        u = scipy.linalg.expm(-1j * dt * t_mat)[:, 0]
        err = abs(dt) * b * abs(u[-1])
        if b < 1e-14 or err < tol:
            out = np.zeros_like(psi)
            for coeff, v in zip(u, vecs):
                out += coeff * v
            out *= nrm
            return out
        betas.append(b)
        vecs.append(w / b)
    raise RuntimeError(
        f"Lanczos exponential did not reach tolerance {tol} within {m_max} iterations "
        f"(last estimate {err:.2e})"
    )


def exact_evolve(
    state: StateVector,
    params: ModelParams,
    dt: float,
    n_steps: int,
    record_every: int = 1,
    krylov_tol: float = 1e-10,
) -> list[StateVector]:
    """Evolve under exp(-i H dt) per step; returns snapshots at t_k = k*dt.

    Snapshots are recorded at k = 0, record_every, 2*record_every, ... and
    always at k = n_steps. Up to L = 14 the dense eigensystem of H is computed
    once and applied per snapshot; beyond that a matrix-free Lanczos
    exponential steps the state with tolerance krylov_tol.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    _require_lab(state)
    if state.L != params.L:
        raise ValueError("state size does not match params.L")
    L = params.L
    recorded = list(range(0, n_steps + 1, record_every))
    if recorded[-1] != n_steps:
        recorded.append(n_steps)

    if L <= DENSE_EVOLVE_MAX:
        evals, evecs = _dense_eigensystem(params)
        amps = state.amplitudes
        c0 = evecs.T @ amps.real + 1j * (evecs.T @ amps.imag)
        snapshots = []
        chunk = 128
        for lo in range(0, len(recorded), chunk):
            ks = np.array(recorded[lo : lo + chunk])
            coeffs = np.exp(-1j * np.outer(evals, ks * dt)) * c0[:, None]
            block = evecs @ coeffs.real + 1j * (evecs @ coeffs.imag)
            snapshots.extend(
                StateVector(L, np.ascontiguousarray(block[:, i])) for i in range(len(ks))
            )
        return snapshots

    apply_h = hamiltonian_action(params)
    snapshots = [state.copy()]
    psi = state.amplitudes.copy()
    rec = set(recorded)
    for k in range(1, n_steps + 1):
        psi = _lanczos_expm(apply_h, psi, dt, krylov_tol)
        if k in rec:
            snapshots.append(StateVector(L, psi.copy()))
    return snapshots


# ---------------------------------------------------------------------------
# Binary snapshot dump
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<3d")  # L, step index, dt -- all as doubles


def dump_snapshot(state: StateVector, path, step_index: int = 0, dt: float = 0.0) -> None:
    """Write header (L, step index, dt as doubles) + little-endian re/im pairs."""
    _require_lab(state)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(float(state.L), float(step_index), float(dt)))
        fh.write(np.ascontiguousarray(state.amplitudes, dtype="<c16").tobytes())


def load_snapshot(path) -> tuple[StateVector, int, float]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"snapshot file {path} too short for header")
    L_f, step_f, dt = _HEADER.unpack_from(raw)
    L = int(round(L_f))
    amps = np.frombuffer(raw[_HEADER.size :], dtype="<c16")
    if amps.size != 1 << L:
        raise ValueError(
            f"snapshot file {path} holds {amps.size} amplitudes, expected {1 << L}"
        )
    return StateVector(L, amps.astype(np.complex128)), int(round(step_f)), dt
