"""Stochastic Pauli gate noise, asymmetric readout errors, and twirled mitigation.

Gate noise is trajectory-based: after each gate, every touched site suffers a
uniformly random non-identity Pauli with probability p1 (one-site gates) or p2
(two-site gates); observables are averaged over independent trajectories.

Readout is an asymmetric per-site bit flip (0->1 with p01, 1->0 with p10),
applied only twirled: a random X per site per shot, undone classically,
flips every bit independently with p_eff = (p01+p10)/2. run_quench draws
that exact channel (twirled_flips); twirled_readout, the mask and the
asymmetric flips bit by bit, is its reference. Expectation values shrink
by (1 - 2*p_eff); trex_mitigate, which run_quench applies to every sampled
axis, divides that out exactly.

The knobs live in model.NoiseParams (re-exported here). Its default rates are
placeholders for exercising the machinery; calibrate against the device at
hand before reading anything physical into noisy runs.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from . import statevec
from .model import NoiseParams
from .statevec import StateVector

# the lab-frame Paulis x, y, z, in draw order, as they act on x-frame
# amplitudes: H P H is z, -y, x (the sign is a global phase)
_FRAME_PAULIS = tuple(statevec.PAULI[axis] for axis in "zyx")


def apply_gate_noise(
    state: StateVector,
    gate_kind: str,
    sites: tuple[int, ...],
    params: NoiseParams,
    rng: np.random.Generator,
) -> StateVector:
    """Insert stochastic Paulis on the touched sites, in place.

    Per touched site, in order: one uniform draw against p1 (one-site gates)
    or p2 (two-site gates), then, on a hit, one integer picking the
    lab-frame x, y or z, applied to the x-frame amplitudes as H P H.
    """
    if gate_kind == "1q":
        p = params.p1
    elif gate_kind == "2q":
        p = params.p2
    else:
        raise ValueError(f"gate_kind must be '1q' or '2q', got {gate_kind!r}")
    if p <= 0.0:
        return state
    for site in sites:
        if rng.random() < p:
            statevec.apply_matrix1(state, _FRAME_PAULIS[rng.integers(3)], site)
    return state


def twirled_readout(
    bits: np.ndarray, params: NoiseParams, rng: np.random.Generator
) -> np.ndarray:
    """Readout with a pre-measurement X twirl, undone classically.

    The twirl mask flips each bit before the asymmetric channel and again
    after it, so the surviving error is a symmetric flip with p_eff. One
    pass: a uniform draw per bit against p01 or p10, the rate of bits ^ mask.
    """
    bits = np.asarray(bits)
    mask = rng.integers(0, 2, size=bits.shape, dtype=bits.dtype)
    return bits ^ (rng.random(bits.shape) < np.array([params.p01, params.p10]).take(bits ^ mask))


def twirled_flips(indices: np.ndarray, L: int, params: NoiseParams, rng: np.random.Generator) -> None:
    """The twirled readout channel on per-shot basis indices, in place: each
    row of indices (rows, shots) in turn flips a Binomial(shots L, p_eff)
    count of distinct bits, picked uniformly, where position i L + b is bit
    b of shot i, so every bit flips independently with p_eff."""
    for row in indices:
        flips = rng.choice(row.size * L, rng.binomial(row.size * L, params.p_eff), replace=False)
        np.bitwise_xor.at(row, flips // L, (1 << (flips % L)).astype(row.dtype))


_ArrayLike = Union[float, np.ndarray]


def trex_mitigate(raw: _ArrayLike, p_eff: _ArrayLike) -> _ArrayLike:
    """Invert the symmetrized readout channel: raw / (1 - 2 p_eff).

    Valid only for p_eff < 0.5 (beyond that the channel is not invertible).
    """
    p = np.asarray(p_eff, dtype=float)
    if not ((0.0 <= p) & (p < 0.5)).all():  # also rejects nan
        raise ValueError(f"p_eff must lie in [0, 0.5), got {p_eff}")
    out = np.asarray(raw, dtype=float) / (1.0 - 2.0 * p)
    return float(out) if out.ndim == 0 else out
