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
drops its left one, since only |psi|^2 is read after it; equal matrices and
runs of sites are split and fused once. Every pass runs in place over
cache-sized chunks, so a step allocates a few chunks, never a state-sized
temporary; a pass of one chunk (L <= 13) applies each block as one product,
and a bond diagonal gathered whole (index None) as one multiply. Exact
time evolution runs in the k = 0 translation sector on the x-basis orbit
basis and sector matrix that edsolver builds for ED; only the returned
snapshots are expanded to 2**L amplitudes.

_forked is the one fork path, for trotter's workers and the partner: each
forked child answers every request with a result or the exception it
raised, which is raised here, and one that dies is a RuntimeError. Children
are terminated on any error and always joined, and while they live cpus()
reads 1 (serial_passes) and OpenBLAS runs one thread in every process. A
state from partnered (SPLIT_MIN amplitudes on, two CPUs) lives in an
anonymous shared mapping with one such child: each listed block or diagonal
pass over it runs its second half there and its first here, with the same
per-amplitude arithmetic as the serial pass. A request is the pass's index
in the list, which the run builds before the fork; a pass over another
array runs serially, and an unlisted pass over the shared state raises.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import itertools
import math
import mmap
import multiprocessing
import os
import sys
from dataclasses import dataclass
from multiprocessing.context import ForkProcess

import numpy as np

from . import edsolver
from .model import AXES, L_MAX, ModelParams

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}
PAULI_XX = np.kron(PAULI_X, PAULI_X)
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
SPLIT_MIN = 1 << 18  # amplitudes from which partnered opens a partner process
split_passes = 0  # kernel passes a partner process has run halves of for this one
_serial = False  # set by serial_passes
_partner = None  # (amps, child, index of passes, passes) while partnered runs a partner


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


def pin_blas_threads(package: str = "numpy", threads: int = 1) -> None:
    """Run numpy's (or scipy's) OpenBLAS on `threads` threads in this process; a no-op without it.

    The kernels call BLAS on 16 x 16 blocks, where a second BLAS thread
    costs more than it gains, and the thread count changes the order of
    BLAS reductions and so the last digits of results (scipy's: of eigsh).
    """
    ops = _openblas(package)
    if ops is not None:
        ops[0](threads)


def blas_threads(package: str = "numpy") -> int | None:
    """numpy's (or scipy's) OpenBLAS thread count, or None where the library
    is missing or the package was never imported."""
    ops = _openblas(package) if package in sys.modules else None
    return None if ops is None else int(ops[1]())


@contextlib.contextmanager
def one_blas_thread():
    """numpy's OpenBLAS on one thread in the block, and so in every process
    forked in it; the caller's count comes back when the block ends."""
    saved = blas_threads()
    pin_blas_threads()
    try:
        yield
    finally:
        pin_blas_threads(threads=saved or 1)


def cpus() -> int:
    """CPUs this process may keep busy: those its affinity mask allows (or
    os.cpu_count()), but 1 inside any multiprocessing child (a sweep chunk,
    trajectory worker or partner) and inside serial_passes(), while
    processes forked by this one hold the others."""
    if _serial or multiprocessing.parent_process() is not None:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@contextlib.contextmanager
def serial_passes():
    """Keep this process to one CPU in the block, as while processes forked
    by this one hold the others: cpus() reads 1, so partnered forks no
    partner and run_quench no trajectory workers, and numpy's OpenBLAS runs
    one thread (one_blas_thread)."""
    global _serial
    saved, _serial = _serial, True
    try:
        with one_blas_thread():
            yield
    finally:
        _serial = saved


class _Child:
    """A forked process that answers each request this process sends it
    with serve(request), or with what that raised (see _forked)."""

    def __init__(self, serve):
        self.conn, end = multiprocessing.Pipe()
        self.proc = ForkProcess(target=_answer, args=(end, self.conn, serve), daemon=True)
        with end:  # the child holds its own end
            self.proc.start()

    def recv(self):
        """The answer to the oldest request; what serve raised is raised here."""
        try:
            out = self.conn.recv()
        except EOFError:
            self.proc.join()
            raise RuntimeError(f"forked process exited with code {self.proc.exitcode} before it answered") from None
        if isinstance(out, BaseException):
            raise out
        return out


def _answer(conn, other, serve) -> None:
    """A _Child: answer each request until the parent closes its end."""
    other.close()  # the parent's end: EOF here once the parent closes its own
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        try:
            out = serve(request)
        except BaseException as exc:  # re-raised in the parent
            out = exc
        conn.send(out)


@contextlib.contextmanager
def _forked(serve, n: int = 1):
    """n forked _Child processes that answer requests with serve, for the
    block: the one fork path. serve and what it reads reach them by fork, so
    only requests and answers are pickled. While they live every process
    runs serial_passes; on any error they are terminated, and they are
    always joined before the block ends."""
    children = []
    with serial_passes() if n else contextlib.nullcontext():
        try:
            for _ in range(n):
                children.append(_Child(serve))
            yield children
        except BaseException:
            for child in children:
                child.proc.terminate()
            raise
        finally:
            for child in children:  # every end first: a later child holds copies of the earlier ones
                child.conn.close()
            for child in children:
                child.proc.join()


def kernel_passes(table) -> list:
    """The kernel passes (fn, args) that _split may run for a SiteLayer
    (apply_site_blocks) or a bond diagonal (index, table) (apply_phase_index),
    for partnered to list."""
    if not isinstance(table, SiteLayer):
        return [(_bond_pass, table)]
    passes = [(_phase_pass, d) for d in (table.right, table.left) if d is not None]
    if table.blocks:
        passes += [(_apply_blocks, (table.blocks,)), (_top_block, table.blocks[-1:])]
    return passes


@contextlib.contextmanager
def partnered(L: int, passes=()):
    """|+...+> (|0...0> in the x frame) on L sites, whose listed kernel
    passes split with a forked partner process from SPLIT_MIN amplitudes on
    while this process may keep two CPUs busy; otherwise a plain state.

    The amplitudes live in an anonymous shared mapping, so both processes
    see them. passes lists the (fn, args) the run may split (kernel_passes
    of its layers), and the partner is sent the index of each pass in it.
    """
    global _partner
    if (1 << L) < SPLIT_MIN or cpus() < 2:
        yield init_all_plus(L)
        return
    amps = np.frombuffer(mmap.mmap(-1, 16 << L), dtype=np.complex128)
    amps[0] = 1.0

    def serve(i):
        fn, args = passes[i]
        fn(amps, 1, *args)

    with _forked(serve) as (child,):
        # passes holds the listed arrays, so that no id in the index is reused
        _partner = amps, child, {(fn, *map(id, args)): i for i, (fn, args) in enumerate(passes)}, passes
        try:
            yield StateVector(L, amps)
        finally:
            _partner = None


def _shared(amps: np.ndarray) -> bool:
    """Whether the open partner shares amps."""
    return _partner is not None and amps is _partner[0]


def _split(fn, amps: np.ndarray, *args) -> None:
    """fn(amps, part, *args) over halves part = 0 here and 1 in the partner
    when it shares amps, else over all of amps here (part None). A pass over
    the shared state that partnered did not list raises LookupError."""
    global split_passes
    if not _shared(amps):
        return fn(amps, None, *args)
    _, child, index, _ = _partner
    i = index.get((fn, *map(id, args)))
    if i is None:
        raise LookupError(f"partnered did not list this {fn.__name__} pass over its state")
    child.conn.send(i)
    try:
        fn(amps, 0, *args)
    finally:  # the partner's half ends before anything else touches amps
        child.recv()
    split_passes += 1


def _whole(amps: np.ndarray) -> bool:
    """Whether a pass over amps is one CHUNK that no partner shares: one product here."""
    return amps.size <= CHUNK and not _shared(amps)


def _half(amps: np.ndarray, part: int | None) -> tuple[np.ndarray, int]:
    """(half part of amps, its first basis index), or (amps, 0) for part None."""
    if part is None:
        return amps, 0
    n = amps.size // 2
    return amps[part * n : (part + 1) * n], part * n


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
    m = math.cos(theta) * np.eye(4, dtype=complex) + 1j * math.sin(theta) * PAULI_XX
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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two vectors or two matrices: the same products, as one broadcast."""
    out = np.multiply.outer(a, b)
    return out.ravel() if a.ndim == 1 else out.swapaxes(1, 2).reshape(len(a) * len(b), -1)


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
                d = _kron(np.asarray((1, 1) if p is None else p, dtype=complex), d)
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
    matching the basis-index layout. Each distinct matrix is split, and each
    distinct run of rotations fused, once; equal runs share one block.
    """
    split = {id(m): m for m in mats if m is not None}
    split = {key: split_u2(m) for key, m in split.items()}
    parts = [(None, None, None) if m is None else split[id(m)] for m in mats]
    blocks, fused = [], {}
    for lo in range(0, len(parts), BLOCK_SITES):
        rots = [rot for _, rot, _ in parts[lo : lo + BLOCK_SITES]]
        if all(r is None for r in rots):
            continue
        key = (lo == 0, *map(id, rots))
        if key not in fused:
            block = np.ones((1, 1))
            for r in rots:
                block = _kron(np.eye(2) if r is None else r, block)
            fused[key] = block = _kron(block, np.eye(2)) if lo == 0 else block
            block.setflags(write=False)
        blocks.append((lo, len(rots), fused[key]))
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


def _apply_blocks(amps: np.ndarray, part, blocks) -> None:
    """blocks over amps, or with part, those below its top bit over half part."""
    size = amps.size
    amps = _half(amps, part)[0]
    for lo, k, m in blocks:
        if part is None or 1 << (lo + k) < size:
            _apply_block(_block_view(amps, lo, m), m)


def _top_block(amps: np.ndarray, part, block) -> None:
    """block (lo, k, m) on the top bit, over half part of its low columns."""
    lo, _, m = block
    v = _block_view(amps, lo, m)
    if part is not None:
        c = v.shape[2] // 2
        v = v[:, :, part * c : (part + 1) * c]
    _apply_block(v, m)


def _real_blocks(amps: np.ndarray, blocks) -> None:
    """Apply real blocks to the float64 view of amps, in place.

    A split pass applies each run of blocks below the top bit to the two
    halves of the array that the top bit separates, and splits a block on
    the top bit along its low columns; a ring whose top block starts at
    bit 0 has no columns to split, so that block runs serially. A one-chunk
    pass chains one product per block, the last one into amps.
    """
    if _whole(amps):
        src = amps.view(np.float64)
        for i, (lo, _, m) in enumerate(blocks):
            out = amps.view(np.float64) if i == len(blocks) - 1 else np.empty(src.size)
            if lo:  # the (rest, K, C) views of _block_view
                shape = (-1, len(m), 2 << lo)
                np.matmul(m, src.reshape(shape), out=out.reshape(shape))
            else:
                np.matmul(src.reshape(-1, len(m)), m.T, out=out.reshape(-1, len(m)))
            src = out
        return
    lo, k, _ = blocks[-1]
    top = _shared(amps) and 1 << (lo + k) == amps.size  # a block on the top bit, split apart
    if len(blocks) > top:
        _split(_apply_blocks, amps, blocks)
    if top and lo:
        _split(_top_block, amps, blocks[-1])
    elif top:
        _top_block(amps, None, blocks[-1])


def _phase_pass(amps: np.ndarray, part, low: np.ndarray, high: np.ndarray | None) -> None:
    """amps[s] *= low[...] * high[...] by rows of low.size amplitudes."""
    amps, offset = _half(amps, part)
    n = min(low.size, amps.size)
    for a in range(0, amps.size, n):
        row = amps[a : a + n]
        s = offset + a
        row *= low[s % low.size : s % low.size + n]
        if high is not None:
            row *= high[s // low.size]


def _bond_pass(amps: np.ndarray, part, index: np.ndarray, table: np.ndarray) -> None:
    amps, offset = _half(amps, part)
    for a in range(0, amps.size, CHUNK):
        chunk = amps[a : a + CHUNK]
        chunk *= table.take(index[offset + a : offset + a + chunk.size])


def apply_phase_index(state: StateVector, index: np.ndarray, table: np.ndarray) -> StateVector:
    """amps[s] *= table[index[s]], in place, by chunks: a diagonal stored as
    a small phase table plus an integer index instead of 2**L complex phases.
    With index None, table is the diagonal itself, multiplied in one pass."""
    if index is None:
        state.amplitudes *= table
    else:
        _split(_bond_pass, state.amplitudes, index, table)
    return state


def apply_site_blocks(state: StateVector, layer: SiteLayer) -> StateVector:
    """Apply a SiteLayer from fuse_site_matrices to the amplitudes, in place:
    its right phase diagonal, its real blocks, then its left phase diagonal."""
    if layer.right is not None:
        _split(_phase_pass, state.amplitudes, *layer.right)
    if layer.blocks:
        _real_blocks(state.amplitudes, layer.blocks)
    if layer.left is not None:
        _split(_phase_pass, state.amplitudes, *layer.left)
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
    n, sx = (orbit_sums(state) if sums is None else sums)[:2].tolist()
    half = state.amplitudes.size >> 1
    c = phase * complex(np.vdot(state.amplitudes[:half], state.amplitudes[half:]))
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


def readout_layer(L: int, axes, carried=None) -> SiteLayer:
    """The SiteLayer that turns L sites from the readout rotation of the
    carried axes (None: none) to that of axes; built once per key."""
    return _rotation_blocks(_normalize_axes(axes, L), carried and _normalize_axes(carried, L))


def turn_weights(state: StateVector, axes, carried=None, out=None, orbits: bool = False, layer=None) -> np.ndarray:
    """Turn the amplitudes in place from the readout rotation of the carried
    axes (None: none) to that of axes, then write the turned state's outcome
    weights (in out, if given): |psi|^2 over the 2**L states or, with
    orbits, for a translation-invariant state (not checked), R_a
    |psi(rep_a)|^2 over its k = 0 orbits. layer, if given, is that turn as
    the caller built it: trotter's runs pass their own, without the right
    phase diagonal where frame_layers' fold_right applied it already."""
    apply_site_blocks(state, readout_layer(state.L, axes, carried) if layer is None else layer)
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
