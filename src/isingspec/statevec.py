"""Dense statevector engine for chains of up to 24 sites.

Conventions, fixed project-wide:

  * site j (1-indexed) lives on bit j-1 of the basis index (little-endian)
    and on column j-1 of the bit matrix of bits_from_indices.
  * |0> is the sz = +1 eigenstate; RZ(t) = exp(-i t sz / 2).
  * sampling axis x applies H, axis y applies S-dagger then H, axis z nothing,
    before reading out the computational basis.

A StateVector holds x-frame amplitudes, psi_x = H^{(x)L} psi: index s labels
the product of sx eigenstates with bit 0 <-> +1. There the polarized start
state |+...+> is |0...0>, every sx sx bond is diagonal, and x-basis outcome
probabilities are |psi_x|^2 without a rotated copy. The API speaks lab
physics: apply_gate applies a lab-frame Gate m as H m H, and the axes x, y,
z of measurements, expectations and gate noise are the lab's. The raw
kernels (apply_matrix1, the site layers and the phase diagonals) act on
the stored amplitudes as they are.

turn_weights is the one per-site measurement: it turns the amplitudes in
place into the measured basis and reads |psi|^2 over the 2**L states into
one float64 array, or, for a translation-invariant state, R_a
|psi(rep_a)|^2 over its 2**L / L k = 0 orbits; to_probabilities
normalizes such weights. draw_shots overwrites rows of them with their
CDFs and draws per-shot basis indices by sorted uniforms.
measurement_probabilities, and through it sample_index_counts and
site_expectations, turns a copy (none for x on every site). orbit_sums
and top_site_expectations read exact values of an invariant state from its
orbit amplitudes and one top-bit overlap, without a 2**L array.

Gate application is in place via bit-masked stride views; any site pair is
allowed for two-site gates. The x-frame kernels take a layer of per-site
2x2 matrices as a SiteLayer: each unitary splits as diag(left) R
diag(right) with R real orthogonal (the Z-Y decomposition), so the layer is
three passes. The right phases of all sites form one product diagonal,
applied as low * high[row] without a 2**L array; the rotations of 4
neighbouring sites fuse into one real 16x16 block, applied by real matmul
to the float64 view of the amplitudes; the left phases form a second
product diagonal. A real matrix (H) needs no diagonal, and a readout turn
drops its left one, since only |psi|^2 is read after it. Every pass runs in
place over cache-sized chunks, so a step allocates a few chunks, never a
state-sized temporary. From SPLIT_MIN amplitudes on, each block or diagonal
pass runs as two independent halves on two threads (numpy releases the GIL
in matmul), with the same per-amplitude arithmetic as the serial pass; no
thread outlives the call, and none starts while worker processes of this
one run (serial_passes). Exact time evolution runs in the k = 0 translation
sector on the x-basis orbit basis and sector matrix that edsolver builds for
ED; only the returned snapshots are expanded to 2**L amplitudes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import itertools
import math
import multiprocessing
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import edsolver
from .model import AXES, L_MAX, ModelParams

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
S_DAGGER = np.array([[1, 0], [0, -1j]], dtype=complex)
# per-site readout pre-rotation by measured axis. The lab rotation R (H for
# x, H S-dagger for y, none for z) acts on H-rotated amplitudes, so it becomes
# R H. Only |psi|^2 is read after it, so a left phase diagonal may go: for y,
# H S-dagger H = diag(e^{-i pi/4}, e^{i pi/4}) H S, and H S is a real rotation
# after the phase diagonal S. The next step's first layer undoes the turn as
# applied.
_MEAS_ROTATION = {"x": None, "y": HADAMARD @ S_DAGGER.conj(), "z": HADAMARD}

_UNITARY_TOL = 1e-12
CHUNK = 1 << 13  # amplitudes per in-place kernel chunk (128 KiB of complex128)
PHASE_BITS = 12  # low bits of a product phase diagonal stored in full (64 KiB)
BLOCK_SITES = 4  # sites fused into one 2**4 x 2**4 block
SPLIT_MIN = 1 << 18  # amplitudes from which a kernel pass runs on two threads
split_passes = 0  # kernel passes this process has run on two threads
_serial = False  # set by serial_passes


# each package's bundled OpenBLAS: the library in <package>.libs and the
# suffix of its exported thread-count functions
_OPENBLAS = {"numpy": ("libscipy_openblas64_*.so", "64_"), "scipy": ("libscipy_openblas-*.so", "")}


@functools.cache
def _openblas(package: str):
    """(set, get) thread-count functions of an imported package's bundled
    OpenBLAS ("numpy" or "scipy") through ctypes, or None where it is missing."""
    pattern, suffix = _OPENBLAS[package]
    site = os.path.dirname(os.path.dirname(sys.modules[package].__file__))
    for path in sorted(glob.glob(os.path.join(site, f"{package}.libs", pattern))):
        lib = ctypes.CDLL(path)
        ops = [getattr(lib, f"scipy_openblas_{op}_num_threads{suffix}", None) for op in ("set", "get")]
        if all(ops):
            return ops
    return None


def pin_blas_threads(package: str = "numpy") -> None:
    """Run numpy's (or scipy's) OpenBLAS on one thread in this process; a no-op without it.

    The kernels call BLAS on 16 x 16 blocks, where a second BLAS thread
    costs more than it gains, and the thread count changes the order of
    BLAS reductions and so the last digits of results (scipy's: of eigsh).
    """
    ops = _openblas(package)
    if ops is not None:
        ops[0](1)


def blas_threads(package: str = "numpy") -> int | None:
    """numpy's (or scipy's) OpenBLAS thread count, or None where the library
    is missing or the package was never imported."""
    ops = _openblas(package) if package in sys.modules else None
    return None if ops is None else int(ops[1]())


def cpus() -> int:
    """CPUs this process may keep busy: os.cpu_count(), but 1 inside any
    multiprocessing child (a sweep chunk or trajectory worker) and inside
    serial_passes(), while worker processes of this one hold the others."""
    return 1 if _serial or multiprocessing.parent_process() is not None else (os.cpu_count() or 1)


@contextlib.contextmanager
def serial_passes():
    """Keep this process to one CPU in the block (cpus() reads 1): kernel
    passes stay on one thread and run_quench forks no trajectory workers, as
    while worker processes of this one hold the other CPUs."""
    global _serial
    saved, _serial = _serial, True
    try:
        yield
    finally:
        _serial = saved


def _splits(amps: np.ndarray) -> bool:
    """Whether a pass over amps runs as two halves on two threads: from
    SPLIT_MIN amplitudes, when this process may keep two CPUs busy."""
    return amps.size >= SPLIT_MIN and cpus() >= 2


def _both(fn, a, b) -> None:
    """fn(a) on a new thread and fn(b) on this one; returns when both are done."""
    global split_passes
    errors = []

    def run():
        try:
            fn(a)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    worker = threading.Thread(target=run)
    worker.start()
    try:
        fn(b)
    finally:
        worker.join()
    if errors:
        raise errors[0]
    split_passes += 1


class StateVector:
    """Complex x-frame amplitudes over the 2**L basis states."""

    __slots__ = ("L", "amplitudes")

    def __init__(self, L: int, amplitudes: np.ndarray):
        if not 1 <= L <= L_MAX:
            raise ValueError(f"L={L} outside supported range [1, {L_MAX}]")
        amplitudes = np.ascontiguousarray(amplitudes, dtype=np.complex128)
        if amplitudes.shape != (1 << L,):
            raise ValueError(
                f"expected {1 << L} amplitudes for L={L}, got shape {amplitudes.shape}"
            )
        self.L = L
        self.amplitudes = amplitudes

    def copy(self) -> "StateVector":
        return StateVector(self.L, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def init_all_plus(L: int) -> StateVector:
    """|+...+>, every site in its sx = +1 state: |0...0> in the x frame."""
    amps = np.zeros(1 << L, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(L, amps)


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
        with np.errstate(invalid="ignore"):  # inf entries give NaN, rejected below
            dev = np.abs(m @ m.conj().T - np.eye(2**n)).max()
        if not dev <= _UNITARY_TOL:
            raise ValueError(f"gate matrix is not unitary (deviation {dev:.2e})")


def h_gate(site: int) -> Gate:
    return Gate(HADAMARD, (site,), "h")


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
    rows, cols = max(1, CHUNK >> bit), min(CHUNK, 1 << bit)
    for a, c in itertools.product(range(0, v.shape[0], rows), range(0, v.shape[2], cols)):
        blk = v[a : a + rows, :, c : c + cols]  # by chunks: no state-sized temporaries
        a0 = blk[:, 0, :].copy()
        a1 = blk[:, 1, :]
        blk[:, 0, :] = m[0, 0] * a0 + m[0, 1] * a1
        blk[:, 1, :] = m[1, 0] * a0 + m[1, 1] * a1


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply a lab-frame Gate in place, as H m H on the x-frame amplitudes
    ((H x H) m (H x H) on two sites), and return the same state. A two-site
    gate is one tensor contraction over the (2,)*L view of the amplitudes,
    whose axis L - j holds site j."""
    if len(gate.sites) == 1:
        apply_matrix1(state, HADAMARD @ gate.matrix @ HADAMARD, gate.sites[0])
        return state
    for site in gate.sites:
        _check_site(state.L, site)
    hh = np.kron(HADAMARD, HADAMARD)
    m = (hh @ gate.matrix @ hh).reshape(2, 2, 2, 2)  # (out a, out b, in a, in b)
    axes = [state.L - site for site in gate.sites]
    psi = np.tensordot(m, state.amplitudes.reshape((2,) * state.L), ([2, 3], axes))
    state.amplitudes[...] = np.moveaxis(psi, (0, 1), axes).ravel()
    return state


# ---------------------------------------------------------------------------
# x-frame kernels: site layers (phase diagonals and real blocks), popcount
# bond diagonals, bit marginals
# ---------------------------------------------------------------------------


def _unit(z: complex) -> complex:
    """z / |z|, or 1 at z = 0. Python's complex division, unlike numpy's,
    stays finite for a subnormal z."""
    z = complex(z)
    a = abs(z)
    return z / a if a else 1.0


def _phase_pair(p0: complex, p1: complex) -> tuple[complex, complex] | None:
    return None if p0 == 1 and p1 == 1 else (p0, p1)


def split_u2(m: np.ndarray):
    """m = diag(left) @ rot @ diag(right) with rot real orthogonal: (left, rot, right).

    left and right are pairs of unit phases, None where both are 1; rot is
    None where it is the identity. A real m is its own rot. Otherwise this is
    the Z-Y decomposition e^{i phi} Rz(a) Ry(b) Rz(c): rot = [[c, -s], [s, c]]
    with c = |m00| and s = |m10|, and the phases are read off the larger
    pair of entries, so that the ill-defined phase of a near-zero entry only
    meets its own small magnitude. A diagonal m is all left.
    """
    if not m.imag.any():
        return None, (None if np.array_equal(m.real, np.eye(2)) else m.real), None
    c, s = abs(m[0, 0]), abs(m[1, 0])
    if s == 0:
        return _phase_pair(_unit(m[0, 0]), _unit(m[1, 1])), None, None
    if c >= s:
        l0 = _unit(m[0, 0])
        r0, r1 = 1.0, _unit(-m[0, 1]) / l0
        l1 = _unit(m[1, 1]) / r1
    else:
        l0 = _unit(-m[0, 1])
        r0, r1 = (_unit(m[0, 0]) / l0 if c else 1.0), 1.0
        l1 = _unit(m[1, 0]) / r0
    return _phase_pair(l0, l1), np.array([[c, -s], [s, c]]), _phase_pair(r0, r1)


def _product_diagonal(pairs) -> tuple | None:
    """prod_b pairs[b][bit_b(s)] as (low, high) factors, or None where every pair is None.

    low covers the lowest PHASE_BITS bits (2**min(L, PHASE_BITS) entries),
    high the bits above them (None where those pairs are all None), so the
    diagonal over a row of low.size amplitudes is low * high[row] and no
    2**L array is built.
    """
    if all(p is None for p in pairs):
        return None
    factors = []
    for group in (pairs[:PHASE_BITS], pairs[PHASE_BITS:]):
        d = None
        if any(p is not None for p in group):
            d = np.ones(1, dtype=complex)
            for p in group:
                d = np.kron(np.asarray((1, 1) if p is None else p, dtype=complex), d)
            d.setflags(write=False)
        factors.append(d)
    return tuple(factors)


@dataclass(frozen=True, eq=False)
class SiteLayer:
    """Per-site 2x2 matrices as three passes: the product phase diagonal
    right, real fused blocks, then the product phase diagonal left.

    blocks holds (lowest bit, bit count k, real matrix) per fused run of
    sites; iterating a layer yields them. A block on bit 0 is stored as
    kron(block, I2), which acts on rows of 2**k amplitudes read as 2**(k+1)
    interleaved real and imaginary parts. Every array is read-only.
    """

    right: tuple | None
    blocks: tuple
    left: tuple | None

    def __iter__(self):
        return iter(self.blocks)

    @property
    def identity(self) -> bool:
        return self.right is None and not self.blocks and self.left is None


def fuse_site_matrices(mats) -> SiteLayer:
    """Split per-site 2x2 matrices (index = bit, None = identity) by split_u2
    into a SiteLayer.

    The rotations of up to BLOCK_SITES neighbouring bits are fused into one
    real block wherever one of them is not the identity. Within a block the
    highest bit is the most significant factor of the Kronecker product,
    matching the basis-index layout.
    """
    parts = [(None, None, None) if m is None else split_u2(m) for m in mats]
    blocks = []
    for lo in range(0, len(parts), BLOCK_SITES):
        rots = [rot for _, rot, _ in parts[lo : lo + BLOCK_SITES]]
        if all(r is None for r in rots):
            continue
        block = np.ones((1, 1))
        for r in rots:
            block = np.kron(np.eye(2) if r is None else r, block)
        if lo == 0:
            block = np.kron(block, np.eye(2))
        block.setflags(write=False)
        blocks.append((lo, len(rots), block))
    right = _product_diagonal([r for _, _, r in parts])
    return SiteLayer(right, tuple(blocks), _product_diagonal([left for left, _, _ in parts]))


def _apply_block(v: np.ndarray, m: np.ndarray) -> None:
    """v <- m along axis 1 of a real (rest, K, C) view, in place, by chunks.

    The chunks run over the index axes the block does not touch: rows of the
    (rest, K) view when C == 1 (the block on bit 0), else (rest, K, C) slabs,
    split along the low columns when one slab exceeds a CHUNK of amplitudes
    (2 * CHUNK floats).
    """
    _, K, C = v.shape
    if C == 1:
        rows = v[:, :, 0]
        mt = m.T
        step = max(1, 2 * CHUNK // K)
        for a in range(0, rows.shape[0], step):
            blk = rows[a : a + step]
            blk[...] = blk @ mt
        return
    a_step = max(1, 2 * CHUNK // (K * C))
    c_step = min(C, max(1, 2 * CHUNK // K))
    for a in range(0, v.shape[0], a_step):
        for c in range(0, C, c_step):
            blk = v[a : a + a_step, :, c : c + c_step]
            blk[...] = m @ blk


def _block_view(amps: np.ndarray, lo: int, m: np.ndarray) -> np.ndarray:
    """The (rest, K, C) float64 view of amps that block m at bit lo acts on;
    the block on bit 0, kron(block, I2), takes rows of interleaved floats."""
    return amps.view(np.float64).reshape(-1, len(m), 2 << lo if lo else 1)


def _apply_blocks(amps: np.ndarray, blocks) -> None:
    for lo, _, m in blocks:
        _apply_block(_block_view(amps, lo, m), m)


def _real_blocks(amps: np.ndarray, blocks) -> None:
    """Apply real blocks to the float64 view of amps, in place.

    A split pass applies each run of blocks below the top bit to the two
    halves of the array that the top bit separates, and splits a block on
    the top bit along its low columns; a ring whose top block starts at
    bit 0 has no columns to split, so that block runs serially.
    """
    if not _splits(amps):
        _apply_blocks(amps, blocks)
        return
    half = amps.size // 2
    for below, run in itertools.groupby(blocks, key=lambda b: 1 << (b[0] + b[1]) < amps.size):
        if below:
            _both(functools.partial(_apply_blocks, blocks=list(run)), amps[:half], amps[half:])
            continue
        for lo, _, m in run:  # blocks that hold the top bit
            v = _block_view(amps, lo, m)
            C = v.shape[2]
            if C > 1:
                _both(functools.partial(_apply_block, m=m), v[:, :, : C // 2], v[:, :, C // 2 :])
            else:
                _apply_block(v, m)


def _phase_pass(amps: np.ndarray, offset: int, low: np.ndarray, high: np.ndarray | None) -> None:
    """amps[s] *= low[...] * high[...] by rows of low.size amplitudes; amps
    starts at basis index offset."""
    n = min(low.size, amps.size)
    for a in range(0, amps.size, n):
        row = amps[a : a + n]
        s = offset + a
        row *= low[s % low.size : s % low.size + n]
        if high is not None:
            row *= high[s // low.size]


def _bond_pass(amps: np.ndarray, offset: int, index: np.ndarray, table: np.ndarray) -> None:
    for a in range(0, amps.size, CHUNK):
        chunk = amps[a : a + CHUNK]
        chunk *= table.take(index[offset + a : offset + a + chunk.size])


def _diagonal(amps: np.ndarray, pass_fn, *args) -> None:
    """pass_fn(part, offset, *args) over amps, as two halves on two threads when it splits."""
    if _splits(amps):
        half = amps.size // 2
        _both(lambda a: pass_fn(amps[a : a + half], a, *args), 0, half)
    else:
        pass_fn(amps, 0, *args)


def apply_phase_index(state: StateVector, index: np.ndarray, table: np.ndarray) -> StateVector:
    """amps[s] *= table[index[s]], in place, by chunks: a diagonal stored as
    a small phase table plus an integer index instead of 2**L complex phases."""
    _diagonal(state.amplitudes, _bond_pass, index, table)
    return state


def apply_site_blocks(state: StateVector, layer: SiteLayer) -> StateVector:
    """Apply a SiteLayer from fuse_site_matrices to the amplitudes, in place:
    its right phase diagonal, its real blocks, then its left phase diagonal."""
    if layer.right is not None:
        _diagonal(state.amplitudes, _phase_pass, *layer.right)
    if layer.blocks:
        _real_blocks(state.amplitudes, layer.blocks)
    if layer.left is not None:
        _diagonal(state.amplitudes, _phase_pass, *layer.left)
    return state


def index_chunks(L: int):
    """(a, uint32 basis indices from a) over all 2**L states, 2**16 at a time."""
    for a in range(0, 1 << L, 1 << 16):
        yield a, np.arange(a, min(a + (1 << 16), 1 << L), dtype=np.uint32)


def ring_xor_popcount(L: int, r: int = 1, mask: int | None = None, states: np.ndarray | None = None) -> np.ndarray:
    """popcount((s XOR rot^r(s)) & mask) for the basis indices s in states,
    as uint8; for all 2**L of them by default, without 2**L temporaries.

    rot^r moves site j + r onto site j around the ring, so bit j-1 of the
    XOR is set when sites j and j + r disagree. In the x frame that counts
    the broken sx sx bonds: sum_j sx_j sx_{j+r} = L - 2 * popcount. mask
    selects which (j, j + r) pairs count; the default is all L.
    """
    if states is None:
        out = np.empty(1 << L, dtype=np.uint8)
        for a, s in index_chunks(L):
            out[a : a + s.size] = ring_xor_popcount(L, r, mask, s)
        return out
    d = states ^ edsolver.translate(states, L, (1 << L) - 1, L - r)
    if mask is not None:
        d &= mask
    return np.bitwise_count(d)


def bit_marginals(probs: np.ndarray, L: int) -> np.ndarray:
    """sum_s probs[..., s] * bit_b(s) for every bit b, shape (..., L), by
    halving the index range. A block of rows gives each row the numbers it
    gets alone: every sum runs along one row."""
    out = np.empty(probs.shape[:-1] + (L,))
    q = probs
    for b in range(L - 1, -1, -1):
        half = q.shape[-1] >> 1
        out[..., b] = q[..., half:].sum(axis=-1)
        q = q[..., :half] + q[..., half:]
    return out


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def site_expectations(state: StateVector, axis: str) -> np.ndarray:
    """<pauli_axis> for every site, shape (L,): bit marginals of the outcome
    probabilities in that basis."""
    return 1.0 - 2.0 * bit_marginals(measurement_probabilities(state, axis), state.L)


@functools.cache
def _orbit_table(L: int, pairs: bool) -> np.ndarray:
    """Read-only rows R_a, R_a (L - 2 popcount(rep_a)) / L and, with pairs,
    R_a t_r(rep_a) / L (r = 1 .. L//2, t_r as in obs.correlator_tables) over
    the k = 0 orbits."""
    reps, periods = edsolver.zero_momentum_orbits(L)
    table = np.empty((2 + pairs * (L // 2), reps.size))
    table[0] = periods
    for r, row in enumerate(table[1:]):  # row by row: no temporary of the table's size
        broken = ring_xor_popcount(L, r, states=reps) if r else np.bitwise_count(reps)
        np.multiply(periods, (L - 2.0 * broken) / L, out=row)
    table.setflags(write=False)
    return table


def orbit_sums(state: StateVector, pairs: bool = False) -> np.ndarray:
    """n, n <sx_j> and, with pairs, n (1/L) sum_i <sx_i sx_{i+r}> (r = 1 ..
    L//2) of a translation-invariant state of squared norm n (not checked),
    by one gather of its amplitudes psi(rep_a), which every orbit member holds."""
    weights = np.abs(state.amplitudes[edsolver.zero_momentum_orbits(state.L)[0]]) ** 2
    sums = _orbit_table(state.L, pairs) @ weights
    _check_mass(sums[0])
    return sums


def top_site_expectations(state: StateVector, phase: complex = 1.0, sums=None) -> dict[str, float]:
    """Lab-frame <sx>, <sy>, <sz> of a translation-invariant state, keyed by
    axis, without a copy; every site holds these values.

    n and <sx> come from orbit_sums (or the caller's sums). The halves of
    the amplitudes hold site L's (top bit's) 0 and 1 components; their
    overlap c, times phase (r0 conj(r1) after trotter.frame_layers'
    fold_right layers), gives sy = -2 Im c / n and sz = 2 Re c / n.
    """
    n, sx = orbit_sums(state)[:2] if sums is None else sums[:2]
    half = state.amplitudes.size >> 1
    c = phase * np.vdot(state.amplitudes[:half], state.amplitudes[half:])
    return {"x": sx / n, "y": -2.0 * c.imag / n, "z": 2.0 * c.real / n}


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


def readout_turn(to: str | None, carried: str | None) -> np.ndarray | None:
    """2x2 from the readout rotation of axis carried to that of axis to (None: no rotation), or None."""
    new, old = _MEAS_ROTATION.get(to), _MEAS_ROTATION.get(carried)
    if old is None:
        return new
    return old.conj().T if new is None else new @ old.conj().T


@functools.lru_cache(maxsize=32)
def _rotation_blocks(axes: tuple[str, ...], carried: tuple[str, ...] | None = None) -> SiteLayer:
    """The readout pre-rotation of per-site axes as a SiteLayer.

    With carried, it starts from the rotation of the carried axes. Built
    once per key and shared by every later call; its arrays are read-only.
    """
    carried = carried or (None,) * len(axes)
    return fuse_site_matrices([readout_turn(a, c) for a, c in zip(axes, carried)])


def measurement_probabilities(state: StateVector, axes) -> np.ndarray:
    """Outcome probabilities after rotating each site's axis onto z.

    axes is a single axis character (applied to all sites) or one per site.
    When no rotation is needed (x on every site) the probabilities come
    straight from the amplitudes, otherwise from a copy turned by
    turn_weights.
    """
    turned = state if _rotation_blocks(_normalize_axes(axes, state.L), None).identity else state.copy()
    return to_probabilities(turn_weights(turned, axes))


def to_probabilities(weights: np.ndarray) -> np.ndarray:
    """weights divided in place by their total, which must be positive and finite."""
    weights /= _check_mass(weights.sum())
    return weights


def _check_mass(total: float) -> float:
    if not math.isfinite(total) or total <= 0:
        raise ValueError("state has no probability mass; was it initialized?")
    return total


def draw_shots(weights: np.ndarray, shots: int, rng, L: int | None = None) -> np.ndarray:
    """Per-shot basis indices, shape (rows, shots) int64, drawn by inverse CDF
    from each row of outcome weights, which is overwritten with its CDF.

    Each row takes the next `shots` uniforms of rng, sorted, so a block draws
    what its rows would one at a time. A row holds a weight per basis state,
    or with L, R_a w_a over the k = 0 orbits of an L-site ring: the R_a
    members of orbit a lie next to each other, so u picks orbit a by search
    and its member r = floor(R_a (u - C_{a-1}) / (C_a - C_{a-1})).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1; set plan.shots = 0 for exact values")
    rng = np.random.default_rng(rng)
    cdf = np.cumsum(weights, axis=1, out=weights)
    cdf /= [[_check_mass(total)] for total in cdf[:, -1]]
    out = np.empty((len(cdf), shots), dtype=np.int64)
    reps, periods = edsolver.zero_momentum_orbits(L) if L else (None, None)
    for c, row in zip(cdf, out):
        v = rng.random(shots)
        v.sort()
        a = np.searchsorted(c, v, side="right")  # v < 1 = c[-1], so c[a] > v
        if L is None:
            row[...] = a
            continue
        lo = c[a - 1]  # orbit a holds [lo, c[a]) of the CDF, its R_a members in turn
        lo[a == 0] = 0.0
        v -= lo  # in place, so that few shots-sized arrays are alive at once
        v /= c[a] - lo
        del lo
        R = periods[a]
        v *= R
        R -= 1
        r = np.minimum(v, R, out=v).astype(np.int64)
        del v, R
        np.take(reps, a, out=row)
        del a
        row[...] = edsolver.translate(row, L, (1 << L) - 1, r)
    return out


def sample_index_counts(state: StateVector, axes, shots: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sampled measurement in per-site bases, from a rotated copy; returns (basis indices, counts)."""
    return np.unique(draw_shots(measurement_probabilities(state, axes)[None], shots, rng), return_counts=True)


def turn_weights(state: StateVector, axes, carried=None, out=None, orbits: bool = False) -> np.ndarray:
    """Turn the amplitudes in place from the readout rotation of the carried
    axes (None: none) to that of axes, then write the turned state's outcome
    weights (in out, if given): |psi|^2 over the 2**L states or, with
    orbits, for a translation-invariant state (not checked), R_a
    |psi(rep_a)|^2 over its k = 0 orbits."""
    carried = carried and _normalize_axes(carried, state.L)
    apply_site_blocks(state, _rotation_blocks(_normalize_axes(axes, state.L), carried))
    reps, periods = edsolver.zero_momentum_orbits(state.L) if orbits else (slice(None), None)
    w = np.abs(state.amplitudes[reps], out=out)
    w *= w
    if orbits:
        w *= periods
    return w


def bits_from_indices(indices: np.ndarray, counts: np.ndarray | None, L: int) -> np.ndarray:
    """Expand a histogram (indices, counts), or with counts None one index per
    shot in any shape, into a bit matrix, shape (..., shots, L): each index's
    little-endian uint32 bytes, unpacked lowest bit first, stored site by site."""
    octets = np.ascontiguousarray(indices, dtype="<u4")[..., None].view(np.uint8).swapaxes(-1, -2)
    rows = np.unpackbits(octets, axis=-2, count=L, bitorder="little").swapaxes(-1, -2)
    return rows if counts is None else np.repeat(rows, counts, axis=0)


def estimates_from_bits(bits: np.ndarray) -> np.ndarray:
    """Per-site <z> estimates, i.e. 1 - 2 * mean(bit), from integer column
    counts, shape (..., L) for bits of shape (..., shots, L)."""
    return 1.0 - 2.0 * (bits.sum(axis=-2, dtype=np.int64) / bits.shape[-2])


def estimates_from_indices(indices: np.ndarray, counts: np.ndarray, L: int) -> np.ndarray:
    """Per-site <z> estimates of an index histogram, via its bit matrix."""
    return estimates_from_bits(bits_from_indices(indices, counts, L))


# ---------------------------------------------------------------------------
# Energy and exact evolution
# ---------------------------------------------------------------------------


def energy_expectation(state: StateVector, params: ModelParams) -> float:
    """<H> of the normalized state, from outcome probabilities in two bases.

    The z marginals give the g term; the x-basis probabilities give the
    bonds (sum_j sx_j sx_{j+1} = L - 2 * ring_xor_popcount) and the h term.
    """
    L, g, h = params.L, params.g, params.h
    if state.L != L:
        raise ValueError("state size does not match params.L")
    pz = measurement_probabilities(state, "z")
    px = measurement_probabilities(state, "x")
    z_sum = L - 2.0 * bit_marginals(pz, L).sum()
    x_sum = L - 2.0 * bit_marginals(px, L).sum()
    bond_sum = L - 2.0 * float(px @ ring_xor_popcount(L))
    return float(-bond_sum - g * z_sum - h * x_sum)


def exact_evolve(
    state: StateVector,
    params: ModelParams,
    dt: float,
    n_steps: int,
    record_every: int = 1,
) -> list[StateVector]:
    """Evolve under exp(-i H dt) per step; returns x-frame snapshots at t_k = k*dt.

    Snapshots are recorded at k = 0, record_every, 2*record_every, ... and
    always at k = n_steps. H commutes with translations, so a translation-
    invariant state stays in the k = 0 sector: the evolution runs on the
    orbit coefficients c_a = sqrt(R_a) psi_x(rep_a) under the x-basis sector
    matrix that ED uses, with a dense eigensystem up to edsolver.DENSE_EIG_MAX
    dims and scipy's expm_multiply above. Only the returned snapshots are
    expanded to 2**L amplitudes, psi_x(s) = c_rep(s) / sqrt(R_rep(s)). A state
    that is not translation invariant raises ValueError.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    if state.L != params.L:
        raise ValueError("state size does not match params.L")
    L = params.L
    basis = edsolver.build_zero_momentum_basis(L)
    amps = state.amplitudes
    if np.abs(amps - amps[basis.rep_of]).max() > 1e-12:
        raise ValueError("exact_evolve needs a translation-invariant state")
    orbit = basis.index_of[basis.rep_of]  # basis index of every state's orbit
    root_periods = np.sqrt(basis.periods.astype(np.float64))
    c0 = root_periods * amps[basis.reps]
    recorded = list(range(0, n_steps + 1, record_every))
    if recorded[-1] != n_steps:
        recorded.append(n_steps)

    def expand(c: np.ndarray) -> StateVector:
        return StateVector(L, (c / root_periods)[orbit])

    mat = edsolver.assemble_sector_hamiltonian(params, basis)
    if basis.dim <= edsolver.DENSE_EIG_MAX:
        evals, evecs = np.linalg.eigh(mat)
        w0 = evecs.T @ c0.real + 1j * (evecs.T @ c0.imag)
        snapshots = []
        for k in recorded:
            w = np.exp(-1j * dt * k * evals) * w0
            snapshots.append(expand(evecs @ w.real + 1j * (evecs @ w.imag)))
        return snapshots

    from scipy.sparse.linalg import expm_multiply

    generator = -1j * dt * mat
    snapshots = [expand(c0)]
    c = c0
    for prev, k in zip(recorded, recorded[1:]):
        c = expm_multiply((k - prev) * generator, c)
        snapshots.append(expand(c))
    return snapshots
