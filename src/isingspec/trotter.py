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
so the state stays translation invariant: its exact values are read at
site L alone (statevec.top_site_expectations and
obs.invariant_correlator_profile) and copied to every site. Every other
point (sampled, or on a gate-noisy trajectory, which is not invariant)
turns the state in place into each axis's basis (x first, which needs no
turn) and reads the outcome probabilities: their bit marginals for shots =
0, draws from them otherwise. The state is left in the last axis's basis,
R; the next step's on-site layer, built once per run, is H u1 H R^dagger
(at g = h = 0, R^dagger is a gateless layer of its own).

With gate noise the bond layers stay separate diagonals (odd, even, and on
an odd ring the wrap bond on its own), and the Paulis drawn per gate, in
gate-list order, are applied after the layer their gate belongs to; gates
within a layer act on disjoint sites, so the Paulis commute past the rest
of it. Readout noise is applied per shot, and noisy observables are
averaged over trajectories.

The trajectories run over up to statevec.cpus() processes, that is up to
os.cpu_count() and never inside a multiprocessing child such as a sweep
worker. This process runs the first contiguous chunk and forked workers the
rest, each with its own 2**L state; the sums are taken in trajectory order,
so the record does not depend on the process count.

forked_results is the one fork path: run_quench spreads its trajectories
with it, and spectro.eta_sweep runs a sweep's ED references beside its
quenches. It runs the first chunk of calls in this process and each later
chunk in a forked worker, returns the results in chunk order, re-raises
what a worker raised, and terminates and joins every worker on a failure.
While workers run, this process's kernel passes stay on one thread.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
from dataclasses import dataclass, replace

import numpy as np

from . import noise as noise_mod, obs, statevec
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
    (an integer popcount index and its phase table) is set. gates lists
    each gate's sites in gate-list order; gate noise draws follow that
    order.
    """

    kind: str  # "1q" | "2q": which noise rate the gates draw
    gates: tuple[tuple[int, ...], ...]
    blocks: statevec.SiteLayer | None = None
    diagonal: tuple[np.ndarray, np.ndarray] | None = None

    def apply(self, state: StateVector) -> StateVector:
        if self.diagonal is None:
            return statevec.apply_site_blocks(state, self.blocks)
        return statevec.apply_phase_index(state, *self.diagonal)


def frame_layers(params: ModelParams, dt: float, split_bonds: bool = False, undo=None) -> list[FrameLayer]:
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
        sites = tuple(g.sites for g in run)
        if not run or len(sites[0]) == 1:
            mats = [undo] * L
            for g in run:
                m = statevec.HADAMARD @ g.matrix @ statevec.HADAMARD
                mats[g.sites[0] - 1] = m if undo is None else m @ undo
            onsite = mats[0]  # every site holds the same matrix
            layers.append(FrameLayer("1q", sites, blocks=statevec.fuse_site_matrices(mats)))
            continue
        # sum over the run's bonds of z_a z_b = n - 2 * (broken bonds)
        n = len(run)
        index = statevec.ring_xor_popcount(L, 1, sum(1 << (a - 1) for a, _ in sites))
        table = np.exp(1j * step.dt * (n - 2.0 * np.arange(n + 1)))
        # without split_bonds, a layer before the one bond run is the site layer
        if not split_bonds and layers and layers[-1].blocks.left is not None:
            # broken bonds on the whole ring come in pairs, so b // 2 and
            # popcount(s) index one table, in uint8 up to L = 21
            l0, l1 = statevec.split_u2(onsite)[0]
            ones = np.arange(L + 1)
            table = np.outer(table[::2], l0 ** (L - ones) * l1**ones).ravel()
            index >>= 1
            index = index.astype(np.min_scalar_type(table.size - 1), copy=False)
            index *= L + 1
            index += np.bitwise_count(np.arange(1 << L, dtype=np.uint32))
            layers[-1] = replace(layers[-1], blocks=replace(layers[-1].blocks, left=None))
        layers.append(FrameLayer("2q", sites, diagonal=(index, table)))
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


def _measure(state, axes, shots, seed, correlator, invariant, tables, readout, p_mitigate):
    """One time point: per-axis site values, and G(r) when correlator is set.

    Exact values of an invariant state (no gate noise) come from site L and
    stand for every site. Every other point takes one path per axis: the
    state turned in place into the axis's basis -> outcome probabilities ->
    exact bit marginals, or sampled: index histogram -> bit matrix ->
    twirled readout (only with readout error) -> site estimates, mitigated
    by noise.trex_mitigate at p_mitigate (p_eff, or 0.0 when there is
    nothing to mitigate), and, on the x axis, the correlator with the same
    factor 1 - 2 p_mitigate. The state is left in the last axis's basis;
    each sampled axis keeps its seed.spawn stream.
    """
    if shots == 0 and invariant:
        G = obs.invariant_correlator_profile(state) if correlator else None
        return statevec.top_site_expectations(state), G
    values, G = {}, None
    streams = dict(zip(axes, seed.spawn(len(axes)))) if shots else None
    carried = None
    for ax in _sampling_order(axes):
        if shots == 0:
            probs = statevec.turn_in_place(state, ax, carried)
            values[ax] = 1.0 - 2.0 * statevec.bit_marginals(probs, state.L)
            if ax == "x" and correlator:  # x comes first, so the state is not turned
                G = obs.correlator_profile(state, tables, probs, values[ax])
            carried = ax
            continue
        rng = np.random.default_rng(streams[ax])
        idx, counts = statevec.sample_in_place(state, ax, shots, rng, carried)
        carried = ax
        bits = statevec.bits_from_indices(idx, counts, state.L)
        if readout is not None:
            bits = noise_mod.twirled_readout(bits, readout, rng)
        values[ax] = noise_mod.trex_mitigate(statevec.estimates_from_bits(bits), p_mitigate)
        if ax == "x" and correlator:
            G = obs.correlator_profile_from_bits(bits, 1.0 - 2.0 * p_mitigate)
        # released before the next axis's probabilities, so that the bit
        # matrix does not pin the heap under the next 2**L float64 array
        del bits
    return values, G


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
            ctx = multiprocessing.get_context("fork")
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, args=(send, run, chunk), daemon=True)
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
    when gate noise is active). The RNG substream layout is fixed per
    (trajectory, time point, axis), so any single stream's draws do not
    depend on how many other blocks ran before it, and the record does not
    depend on how many processes the trajectories run on (see forked_results).
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
    last = _sampling_order(axes)[-1] if plan.shots > 0 or gate_noise else None
    layers = frame_layers(params, plan.dt, gate_noise, statevec.readout_turn(None, last))
    # only a gate-noisy exact run reads the correlator from every pair of sites
    exact_pairs = record_correlator and gate_noise and plan.shots == 0
    tables = obs.correlator_tables(L) if exact_pairs else None
    readout = nz if nz is not None and nz.has_readout_error else None
    p_mitigate = nz.p_eff if readout is not None and nz.mitigate else 0.0

    n_traj = trajectories(plan)
    n_rec = plan.n_steps + 1

    def trajectory(t, traj_ss):
        """(weight, per-axis (n_rec, L) values, correlator rows) of trajectory
        t, or None when it gets no shots."""
        # shot split across trajectories; the first (shots % n_traj) get one extra
        shots = plan.shots // n_traj + (1 if t < plan.shots % n_traj else 0)
        if plan.shots > 0 and shots == 0:
            return None  # more trajectories than shots; nothing to average in
        gate_ss, meas_root = traj_ss.spawn(2)
        gate_rng = np.random.default_rng(gate_ss)
        state = statevec.init_all_plus(L)  # k = 0 records it unevolved
        values = {ax: np.empty((n_rec, L)) for ax in axes}
        G = np.empty((n_rec, L // 2)) if record_correlator else None
        # an exact run reads no measurement seeds
        for k, meas_ss in enumerate(meas_root.spawn(n_rec) if plan.shots else [None] * n_rec):
            for layer in layers if k > 0 else ():
                layer.apply(state)
                if gate_noise:
                    for sites in layer.gates:
                        noise_mod.apply_gate_noise(state, layer.kind, sites, nz, gate_rng)
            point, G_k = _measure(
                state, axes, shots, meas_ss, record_correlator,
                not gate_noise, tables, readout, p_mitigate,
            )
            for ax in axes:
                values[ax][k] = point[ax]
            if G is not None:
                G[k] = G_k
        return (shots if plan.shots > 0 else 1.0), values, G

    items = list(enumerate(np.random.SeedSequence(plan.seed).spawn(n_traj)))
    processes = min(n_traj, statevec.cpus())
    trajectory_processes = max(trajectory_processes, processes)
    cuts = [n_traj * i // processes for i in range(processes + 1)]
    per_site = {ax: np.zeros((n_rec, L)) for ax in axes}
    correlator = np.zeros((n_rec, L // 2)) if record_correlator else None
    weight_total = 0.0
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
