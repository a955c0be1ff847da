"""First-order Trotter steps for the chain and the quench measurement loop.

One step of exp(-i H dt) factorizes as

    U_step = U_1q * U_odd * U_even      (applied in that order)

where U_1q = prod_j exp(i dt (g sz_j + h sx_j)) collects the on-site fields,
U_odd the bond rotations exp(i dt sx sx) on bonds (1,2), (3,4), ... and
U_even those on (2,3), (4,5), ..., (L,1). For odd L the wrap bond (L,1)
joins the even layer so the two layers still cover all L bonds.

build_step writes that step as a gate list and decompose_to_native lowers it
to CNOTs; they describe the circuit. run_quench compiles that gate list
(frame_layers) and evolves the x-frame amplitudes that statevec stores
(Hadamard-rotated basis), where the polarized start state |+...+> is
|0...0> and every sx sx bond is diagonal. The bonds commute, so
U_odd * U_even is the single diagonal exp(i dt (L - 2 popcount(s XOR
rot(s)))), stored as a uint8 popcount index plus a phase table. U_1q
becomes H u1 H on every site, split as diag(left) R diag(right) with R a
real rotation (statevec.SiteLayer): a product phase diagonal, real blocks
of 4 sites, and a left phase diagonal that joins the bond diagonal right
after it (its index then also counts popcount(s)).

run_quench applies U_step n_steps times and records observables after every
step (and at t = 0). Without gate noise U_step commutes with translations,
so the state stays translation invariant: its exact values are read from
its k = 0 orbits and top-bit overlap (statevec.top_site_expectations and
obs.invariant_correlator_profile), its step folds all on-site phases into
the bond diagonal, and it builds no random streams. Every other point turns
the state in place into each axis's basis (x first, which needs no turn)
and writes its outcome weights (statevec.turn_weights), over the k = 0
orbits of an invariant state, as rows of a block (_Rows) that is read a
block at a time: exact rows (a gate-noisy trajectory) by the bit marginals
of the normalized weights, sampled rows by drawing shots. The state is left
in the last axis's basis, R; the next step's on-site layer, built once per
run, is H u1 H R^dagger (at g = h = 0, R^dagger is a gateless layer of its
own).

With gate noise the bond layers stay separate diagonals (odd, even, and on
an odd ring the wrap bond on its own). After each layer one
noise.apply_gate_noise call draws the Paulis of all its gates' sites, gate
after gate in gate-list order, which are the draws of one call per gate;
gates within a layer act on disjoint sites, so the Paulis commute past the
rest of it. Each trajectory has three random streams: gate noise, the
uniforms of its sampled rows in turn, and their readout flips
(noise.twirled_flips). Noisy observables are averaged over trajectories.

The trajectories run over up to statevec.cpus() processes: this process
runs the first contiguous chunk and forked workers the rest, each with its
own 2**L state; the sums are taken in trajectory order, so the record does
not depend on the process count. One trajectory in this process instead
evolves a statevec.partnered state, whose partner process is forked once
the layers and readout turns exist and splits every kernel pass from
statevec.SPLIT_MIN amplitudes on.

forked_results is the one fork path: run_quench spreads its trajectories
with it, and spectro.eta_sweep its chunks of quenches and ED references.
It runs the first chunk of calls in this process and each later chunk in a
forked worker, returns the results in chunk order, re-raises what a worker
raised, and terminates and joins every worker on a failure. While workers
run, statevec.cpus() reads 1 in each process, so none forks workers of its
own or splits a kernel pass.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
from dataclasses import dataclass, replace
from multiprocessing.context import ForkProcess

import numpy as np

from . import edsolver, noise as noise_mod, obs, statevec
from .model import ModelParams, QuenchPlan
from .statevec import Gate, StateVector

# the most processes one run_quench call has run its trajectories on; the CLI
# resets it per command and reports it in run_stats.json
trajectory_processes = 1


@dataclass
class TrotterStep:
    """An ordered gate sequence realizing one time step."""

    gates: list[Gate]
    dt: float
    L: int
    native: bool = False

    @property
    def gate_counts(self) -> dict[str, int]:
        counts = {"1q": 0, "2q": 0, "cnot": 0}
        for g in self.gates:
            counts["1q" if len(g.sites) == 1 else "2q"] += 1
            if g.name == "cnot":
                counts["cnot"] += 1
        return counts


def _bond_layers(L: int) -> tuple[list[int], list[int]]:
    odds = [j for j in range(1, L + 1) if j % 2 == 1]
    evens = [j for j in range(1, L + 1) if j % 2 == 0]
    if L % 2 == 1:
        # the wrap bond (L, 1) cannot share the odd layer with bond (1, 2)
        odds.remove(L)
        evens.append(L)
    return odds, evens


def single_site_step_matrix(g: float, h: float, dt: float) -> np.ndarray:
    """Closed form of exp(i dt (g sz + h sx))."""
    r = dt * math.hypot(g, h)
    if r == 0.0:
        return np.eye(2, dtype=complex)
    scale = 1j * math.sin(r) / math.hypot(g, h)
    return math.cos(r) * np.eye(2, dtype=complex) + scale * (
        h * statevec.PAULI_X + g * statevec.PAULI_Z
    )


def build_step(params: ModelParams, dt: float) -> TrotterStep:
    """Gate list [U_1q; U_odd; U_even] for one first-order step."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    L = params.L
    gates: list[Gate] = []
    if params.g != 0.0 or params.h != 0.0:
        m1 = single_site_step_matrix(params.g, params.h, dt)
        gates.extend(Gate(m1, (j,), "u1") for j in range(1, L + 1))
    odds, evens = _bond_layers(L)
    for j in odds + evens:
        gates.append(statevec.xx_rotation_gate(dt, j, j % L + 1))
    return TrotterStep(gates, dt, L)


@dataclass(frozen=True)
class FrameLayer:
    """One layer of mutually commuting gates, acting on x-frame amplitudes.

    Either blocks (the H u1 H matrices as a statevec.SiteLayer) or diagonal
    (an integer popcount index and its phase table) is set. sites lists
    the sites of its gates, gate after gate in gate-list order; gate noise
    draws follow that order.
    """

    kind: str  # "1q" | "2q": which noise rate the gates draw
    sites: tuple[int, ...]
    blocks: statevec.SiteLayer | None = None
    diagonal: tuple[np.ndarray, np.ndarray] | None = None
    phase: complex = 1.0  # r0 conj(r1) where fold_right joined D_R to the diagonal

    def apply(self, state: StateVector) -> StateVector:
        if self.diagonal is None:
            return statevec.apply_site_blocks(state, self.blocks)
        return statevec.apply_phase_index(state, *self.diagonal)


def frame_layers(
    params: ModelParams, dt: float, split_bonds: bool = False, undo=None, fold_right: bool = False
) -> list[FrameLayer]:
    """build_step's gate list as x-frame layers, in application order.

    A layer is a run of consecutive gates of one arity on disjoint sites, so
    the Paulis drawn for its gates commute past the rest of it. Without
    split_bonds all bonds share one diagonal, since they commute. A u1 run
    becomes a SiteLayer of H u1 H, a bond run one popcount diagonal at angle
    dt. undo, a 2x2 applied to every site first, is folded into the u1
    layer (H u1 H undo), or at g = h = 0 made a site layer without gates or
    noise. Without split_bonds, the site layer's left phase diagonal joins
    the bond diagonal after it: every site holds the same phase pair
    (l0, l1), so that diagonal is l0**(L - popcount(s)) * l1**popcount(s).
    fold_right (noiseless exact runs) joins the right one, D_R, too: the
    layers then evolve D_R psi up to a global phase, which x-basis
    probabilities do not see; top-bit overlaps take the bond layer's phase.
    With undo, fold_right (noiseless sampled runs whose first readout turn
    is the one undo undoes) joins that turn's right phase pair instead, read
    off undo^dagger: the x rows read between them see only |psi|^2, and the
    turn then applies its blocks alone.
    """
    step = build_step(params, dt)
    L = step.L
    runs: list[list[Gate]] = []
    for gate in step.gates:
        run = runs[-1] if runs else []
        if run and len(run[0].sites) == len(gate.sites) and (
            (gate.name == "xx" and not split_bonds)
            or all(set(gate.sites).isdisjoint(g.sites) for g in run)
        ):
            run.append(gate)
        else:
            runs.append([gate])
    if undo is not None and len(runs[0][0].sites) == 2:
        runs.insert(0, [])
    layers = []
    for run in runs:
        sites = tuple(s for g in run for s in g.sites)
        if not run or len(run[0].sites) == 1:
            mats = [undo] * L
            for g in run:
                m = statevec.HADAMARD @ g.matrix @ statevec.HADAMARD
                mats[g.sites[0] - 1] = m if undo is None else m @ undo
            onsite = mats[0]  # every site holds the same matrix
            layers.append(FrameLayer("1q", sites, blocks=statevec.fuse_site_matrices(mats)))
            continue
        # sum over the run's bonds of z_a z_b = n - 2 * (broken bonds)
        n = len(run)
        index = statevec.ring_xor_popcount(L, 1, sum(1 << (a - 1) for a in sites[::2]))
        table = np.exp(1j * step.dt * (n - 2.0 * np.arange(n + 1)))
        # without split_bonds, a layer before the one bond run is the site layer
        left, _, right = statevec.split_u2(onsite) if layers and not split_bonds else (None,) * 3
        if undo is not None:
            right = statevec.split_u2(undo.conj().T)[2]
        right = right if fold_right else None
        phase = 1.0 if right is None else right[0] * right[1].conjugate()
        if left or right:
            # broken bonds on the whole ring come in pairs, so b // 2 and
            # popcount(s) index one table, in uint8 up to L = 21
            l0, l1 = np.multiply(left or 1.0, right) if right else left
            ones = np.arange(L + 1)
            table = np.outer(table[::2], l0 ** (L - ones) * l1**ones).ravel()
            index >>= 1
            index = index.astype(np.min_scalar_type(table.size - 1), copy=False)
            index *= L + 1
            for a, s in statevec.index_chunks(L):
                index[a : a + s.size] += np.bitwise_count(s)
            site = layers[-1].blocks
            site = replace(site, left=None, right=None if right and undo is None else site.right)
            layers[-1] = replace(layers[-1], blocks=site)
        layers.append(FrameLayer("2q", sites, diagonal=(index, table), phase=phase))
    return layers


def _xx_angle(gate: Gate) -> float:
    # exp(i theta sx sx) has [0,0] = cos(theta), [0,3] = i sin(theta)
    return math.atan2(gate.matrix[0, 3].imag, gate.matrix[0, 0].real)


def decompose_to_native(step: TrotterStep) -> TrotterStep:
    """Rewrite each bond rotation as (H x H) CNOT RZ(-2 theta) CNOT (H x H).

    The identity is exact (including phase); single-site gates pass through.
    """
    out: list[Gate] = []
    for gate in step.gates:
        if gate.name != "xx":
            out.append(gate)
            continue
        a, b = gate.sites
        theta = _xx_angle(gate)
        out.extend(
            [
                statevec.h_gate(a),
                statevec.h_gate(b),
                statevec.cnot_gate(a, b),
                statevec.rz_gate(-2.0 * theta, b),
                statevec.cnot_gate(a, b),
                statevec.h_gate(a),
                statevec.h_gate(b),
            ]
        )
    return TrotterStep(out, step.dt, step.L, native=True)


@dataclass
class QuenchRecord:
    """Per-axis, per-site traces on the recorded time grid (t = 0 included).

    per_site maps axis -> array of shape (n_steps + 1, L). The aggregate
    traces are the site means. correlator, when recorded, holds G(r, t) with
    r = 1 .. L//2 along the second axis.
    """

    times: np.ndarray
    per_site: dict[str, np.ndarray]
    correlator: np.ndarray | None = None

    def aggregate(self, axis: str) -> np.ndarray:
        if axis not in self.per_site:
            raise KeyError(f"axis {axis!r} was not measured (have {sorted(self.per_site)})")
        return self.per_site[axis].mean(axis=1)

    @property
    def sigma_y(self) -> np.ndarray:
        return self.aggregate("y")

    @property
    def sigma_x(self) -> np.ndarray:
        return self.aggregate("x")


def _sampling_order(axes) -> list[str]:
    return sorted(axes, key=lambda ax: ax != "x")  # x needs no rotation in the x frame


# 8-byte numbers a trajectory's rows hold: the block's weights and shot
# indices, and one row's four shots-sized temporaries (at L = 12, 6 rows of
# 682 shots, or 8 exact rows)
BLOCK_FLOATS = 1 << 15


class _Rows:
    """A trajectory's turned (time point, axis) rows of outcome weights, in a
    block that lives while it holds rows: the one reader of a turned time
    point. A full block, or the trajectory's last, is read in one pass.
    Exact rows (shots = 0) are normalized and read by their bit marginals,
    and G(r) of x from every pair of sites (tables). Sampled rows take each
    row's shots and readout flips from the measurement and readout streams,
    row after row, so nothing depends on the block size; then site
    estimates, one mitigation and G(r) of x. With folded, a turn after the
    first time point skips the right phases that frame_layers' fold_right
    joined to the bond diagonal."""

    def __init__(self, L, axes, shots, orbits, streams, nz, values, G, tables, folded=False):
        self.L, self.axes, self.shots, self.orbits = L, _sampling_order(axes), shots, orbits
        self.folded = folded
        self.values, self.G, self.tables = values, G, tables
        self.rng, self.flip_rng = map(np.random.default_rng, streams)
        self.readout = nz if nz is not None and nz.has_readout_error else None
        self.p_mitigate = nz.p_eff if self.readout is not None and nz.mitigate else 0.0
        width = edsolver.zero_momentum_orbits(L)[0].size if orbits else 1 << L
        self.shape = (max(1, (BLOCK_FLOATS - 4 * shots) // (width + shots)), width)
        self.block, self.keys = None, []  # keys: (time point, axis) of each row

    def take(self, state, k, last=False):
        """Write time point k's rows, and read a full block, or if last, the rest."""
        carried = None
        for ax in self.axes:
            if self.block is None:
                self.block = np.empty(self.shape)
            statevec.turn_weights(state, ax, carried, self.block[len(self.keys)], self.orbits, self.folded and k > 0)
            carried = ax
            self.keys.append((k, ax))
            if len(self.keys) == len(self.block) or last and ax == self.axes[-1]:
                self.read()

    def read(self):
        """Read the block's rows into values and G, and free the block."""
        L = self.L
        rows, self.block = self.block[: len(self.keys)], None
        if self.shots:
            # rows becomes the drawn indices, which frees the weights before
            # the bits are built
            rows = statevec.draw_shots(rows, self.shots, self.rng, L if self.orbits else None)
            if self.readout is not None:
                noise_mod.twirled_flips(rows, L, self.readout, self.flip_rng)
            rows = statevec.bits_from_indices(rows, None, L)
            estimates = noise_mod.trex_mitigate(statevec.estimates_from_bits(rows), self.p_mitigate)
        else:
            for row in rows:
                statevec.to_probabilities(row)
            estimates = 1.0 - 2.0 * statevec.bit_marginals(rows, L)
        for (k, ax), row, e in zip(self.keys, rows, estimates):
            self.values[ax][k] = e
            if ax == "x" and self.G is not None:
                self.G[k] = (
                    obs.correlator_profile_from_bits(row, 1.0 - 2.0 * self.p_mitigate)
                    if self.shots
                    else obs.correlator_profile(row, self.tables, e)
                )
        self.keys.clear()


def _worker(conn, run, chunk) -> None:
    """A forked worker: sends run's results for chunk, or what it raised."""
    try:
        out = [run(*item) for item in chunk]
    except BaseException as exc:  # re-raised in the parent
        out = exc
    with conn:
        conn.send(out)


def forked_results(run, chunks):
    """run(*item) for every item of chunks, in order.

    This process runs chunks[0] while a forked process runs each later
    chunk. Under fork nothing is pickled on the way in, and each worker
    sends its chunk's results, or the exception it raised, through a pipe.
    On any failure the workers are terminated; none outlives the iteration.
    """
    workers = []
    try:
        for chunk in chunks[1:]:
            recv, send = multiprocessing.Pipe(duplex=False)
            proc = ForkProcess(target=_worker, args=(send, run, chunk), daemon=True)
            with send:  # the worker holds its own end; EOF once it exits
                proc.start()
            workers.append((proc, recv))
        with statevec.serial_passes() if workers else contextlib.nullcontext():
            yield from (run(*item) for item in chunks[0])
        for proc, recv in workers:
            try:
                out = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"worker process exited with code {proc.exitcode} before sending results"
                ) from None
            if isinstance(out, BaseException):
                raise out
            yield from out
    except BaseException:
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, recv in workers:
            proc.join()
            recv.close()


def trajectories(plan: QuenchPlan) -> int:
    """The trajectories run_quench runs for plan: 1 without gate noise."""
    nz = plan.noise
    return nz.trajectories if nz is not None and nz.has_gate_noise else 1


def run_quench(
    params: ModelParams, plan: QuenchPlan, record_correlator: bool = False
) -> QuenchRecord:
    """Trotter-evolve the polarized state and record observables per step.

    shots = 0 records exact expectations; otherwise each recorded time point
    spends `shots` samples per measured axis (split across noise trajectories
    when gate noise is active). Each trajectory draws from its own gate,
    measurement and readout streams, row after row, so the record depends
    neither on the block size nor on how many processes the trajectories
    run on (see forked_results).
    """
    global trajectory_processes
    if record_correlator and "x" not in plan.measured_axes:
        raise ValueError("the correlator needs x-basis data; add 'x' to measured_axes")
    nz = plan.noise
    if nz is not None and nz.is_null:
        nz = None  # all-zero noise must follow the noiseless path bit for bit
    L = params.L
    axes = plan.measured_axes
    gate_noise = nz is not None and nz.has_gate_noise
    # a per-site measurement leaves the state in its last axis's basis; the
    # next step's first layer undoes that
    seeded = plan.shots > 0 or gate_noise
    order = _sampling_order(axes) if seeded else []
    turns = [statevec.readout_layer(L, ax, carried) for ax, carried in zip(order, [None] + order[:-1])]
    # a noiseless sampled run whose one turned axis is the last folds that
    # turn's right phases into the bond diagonal
    folded = seeded and not gate_noise and sum(ax != "x" for ax in axes) == 1
    undo = statevec.readout_turn(None, order[-1]) if seeded else None
    layers = frame_layers(params, plan.dt, gate_noise, undo, not seeded or folded)
    phase = None if gate_noise else layers[-1].phase
    # only a gate-noisy exact run reads the correlator from every pair of sites
    tables = obs.correlator_tables(L) if record_correlator and gate_noise and not plan.shots else None

    n_traj = trajectories(plan)
    n_rec = plan.n_steps + 1

    def trajectory(t, traj_ss):
        """(weight, per-axis (n_rec, L) values, correlator rows) of trajectory
        t, or None when it gets no shots."""
        # shot split across trajectories; the first (shots % n_traj) get one extra
        shots = plan.shots // n_traj + (1 if t < plan.shots % n_traj else 0)
        if plan.shots > 0 and shots == 0:
            return None  # more trajectories than shots; nothing to average in
        gate_ss, *streams = traj_ss.spawn(3) if seeded else (None,) * 3
        gate_rng = np.random.default_rng(gate_ss) if gate_noise else None
        state = shared if shared is not None else statevec.init_all_plus(L)  # k = 0 records it unevolved
        values = {ax: np.empty((n_rec, L)) for ax in axes}
        G = np.empty((n_rec, L // 2)) if record_correlator else None
        rows = _Rows(L, axes, shots, phase is not None, streams, nz, values, G, tables, folded) if seeded else None
        for k in range(n_rec):
            for layer in layers if k > 0 else ():
                layer.apply(state)
                if gate_noise:
                    noise_mod.apply_gate_noise(state, layer.kind, layer.sites, nz, gate_rng)
            if rows is not None:
                rows.take(state, k, k == n_rec - 1)
                continue
            sums = statevec.orbit_sums(state, record_correlator)
            point = statevec.top_site_expectations(state, phase, sums)
            for ax in axes:
                values[ax][k] = point[ax]
            if G is not None:
                G[k] = obs.invariant_correlator_profile(state, sums)
        return (shots if plan.shots > 0 else 1.0), values, G

    seeds = np.random.SeedSequence(plan.seed).spawn(n_traj) if seeded else [None] * n_traj
    items = list(enumerate(seeds))
    processes = min(n_traj, statevec.cpus())
    trajectory_processes = max(trajectory_processes, processes)
    cuts = [n_traj * i // processes for i in range(processes + 1)]
    per_site = {ax: np.zeros((n_rec, L)) for ax in axes}
    correlator = np.zeros((n_rec, L // 2)) if record_correlator else None
    weight_total = 0.0
    # one trajectory here splits its kernel passes with a partner process
    with statevec.partnered(L, layers + turns) if n_traj == 1 else contextlib.nullcontext() as shared:
        for out in forked_results(trajectory, [items[a:b] for a, b in zip(cuts, cuts[1:])]):
            if out is None:
                continue
            w, values, G = out
            weight_total += w
            for ax in axes:
                per_site[ax] += w * values[ax]
            if correlator is not None:
                correlator += w * G

    for ax in axes:
        per_site[ax] /= weight_total
    if correlator is not None:
        correlator /= weight_total
    times = np.arange(n_rec) * plan.dt
    return QuenchRecord(times, per_site, correlator)
