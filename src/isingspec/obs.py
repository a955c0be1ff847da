"""Connected sx-sx correlators and light-cone front diagnostics.

G(r, t) = (1/L) sum_i [ <sx_i sx_{i+r}> - <sx_i><sx_{i+r}> ]

is translation-averaged over the ring, for separations r = 1 .. L//2 (beyond
L//2 the periodic distance wraps back: G(r) = G(L-r)). In the x basis sx is
diagonal, so both exact and sampled estimates reduce to bit statistics of
the x-basis distribution p. A translation-invariant state (every noiseless
exact run) needs only the pairs that hold site L: with q the half of p
signed by site L's bit, invariant_correlator_profile reads all of G from
the bit marginals of q. A state that is not invariant (a gate-noisy exact
trajectory) takes correlator_profile: sum_i <sx_i sx_{i+r}> = p . t_r with
the int8 table t_r(s) = L - 2 popcount(s XOR rot^r(s)), the same popcount
kernel that gives the Trotter engine its bond diagonal. Sampled, one shared
bit matrix serves all pairs: <z_i z_{i+r}> is the site estimate of the bit
matrix XORed with its own roll by r.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import statevec
from .statevec import StateVector


def correlator_tables(L: int) -> list[np.ndarray]:
    """t_r(s) = sum_i z_i z_{i+r} = L - 2 popcount(s XOR rot^r(s)) for r = 1 .. L//2, int8."""
    return [L - 2 * statevec.ring_xor_popcount(L, r).astype(np.int8) for r in range(1, L // 2 + 1)]


def correlator_profile(
    state: StateVector,
    tables: list[np.ndarray] | None = None,
    probs: np.ndarray | None = None,
    sx: np.ndarray | None = None,
) -> np.ndarray:
    """Exact G(r) for all r = 1 .. L//2, shape (L//2,).

    tables are correlator_tables(state.L); a caller that evaluates many
    states of one size builds them once and passes them in. probs, the
    state's x-basis probabilities, and sx, its <sx_i> (1 - 2 * their bit
    marginals), are computed here unless the caller already has them.
    """
    L = state.L
    if tables is None:
        tables = correlator_tables(L)
    if probs is None:
        probs = statevec.measurement_probabilities(state, "x")
    if sx is None:
        sx = 1.0 - 2.0 * statevec.bit_marginals(probs, L)
    pair_sums = np.array([float(probs @ t) for t in tables])
    disconnected = np.array([float(sx @ shifted) for shifted in sx[_shifts(L)]])
    return (pair_sums - disconnected) / L


@functools.cache
def _shifts(L: int) -> np.ndarray:
    """(i + r) mod L for r = 1 .. L//2 (rows) and i = 0 .. L-1 (columns)."""
    return (np.arange(1, L // 2 + 1)[:, None] + np.arange(L)) % L


def invariant_correlator_profile(state: StateVector) -> np.ndarray:
    """Exact G(r) for all r = 1 .. L//2 of a translation-invariant state.

    With q = p[:N/2] - p[N/2:] (p the x-basis probabilities, signed by site
    L's bit) and m = sum q = <sx>, <sx_L sx_j> = m - 2 * (bit j marginal of
    q), and invariance gives G(r) = <sx_L sx_{L-r}> - m^2. Invariance is not
    checked; any other state needs correlator_profile.
    """
    L = state.L
    p = statevec.measurement_probabilities(state, "x")
    half = p.size >> 1
    # in place: a fresh 2**(L-1) array per time point can leave the heap top
    # free for glibc to trim and fault in again at the next point
    q = np.subtract(p[:half], p[half:], out=p[:half])
    m = q.sum()
    pair = m - 2.0 * statevec.bit_marginals(q, L - 1)
    return pair[::-1][: L // 2] - m * m


def correlator_profile_from_bits(bits: np.ndarray, mitigation: float = 1.0) -> np.ndarray:
    """Sampled G(r) for r = 1 .. L//2 from a shared x-basis bit matrix of shape (shots, L).

    mitigation is the readout attenuation 1 - 2 p_eff. It divides the site
    means once and the pair means <z_i z_{i+r}> by its square, the correlator
    analog of expectation-value readout mitigation (approximate for G).
    """
    L = bits.shape[1]
    rs = range(1, L // 2 + 1)
    m = statevec.estimates_from_bits(bits) / mitigation
    # row i holds site i's terms; numpy sums axis 0 row by row, i.e. in site order
    pairs = np.stack(
        [statevec.estimates_from_bits(bits ^ np.roll(bits, -r, axis=1)) for r in rs], axis=1
    )
    disconnected = np.stack([m * np.roll(m, -r) for r in rs], axis=1)
    return (pairs / (mitigation * mitigation) - disconnected).sum(axis=0) / L


@dataclass
class CorrelatorField:
    """G(r, t) on the recorded time grid; values has shape (n_times, L//2)."""

    times: np.ndarray
    values: np.ndarray
    L: int

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.times.size, self.L // 2):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"({self.times.size}, {self.L // 2})"
            )

    @property
    def rs(self) -> np.ndarray:
        return np.arange(1, self.L // 2 + 1)


def field_from_record(record) -> CorrelatorField:
    """Build a CorrelatorField from a QuenchRecord that recorded the correlator."""
    if record.correlator is None:
        raise ValueError("record holds no correlator; rerun with record_correlator=True")
    L = next(iter(record.per_site.values())).shape[1]
    return CorrelatorField(record.times, record.correlator, L)


@dataclass
class FrontFit:
    """Threshold-crossing front radii r*(t) and a linear velocity fit.

    radius 0 means no separation exceeded the threshold at that time. The
    velocity is fit on the growth window, from the first detection up to the
    first time the running maximum radius is reached. stalled is True when
    the front never reaches the maximum separation L//2.
    """

    times: np.ndarray
    radii: np.ndarray
    threshold: float
    velocity: float
    window: tuple[float, float] | None
    stalled: bool

    @property
    def has_front(self) -> bool:
        return bool(np.any(self.radii > 0))


def check_threshold(threshold: float) -> None:
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")


def lightcone_front(fld: CorrelatorField, threshold: float = 0.02) -> FrontFit:
    """Extract r*(t) = max{r : |G(r,t)| > threshold} and fit its early growth."""
    check_threshold(threshold)
    above = np.abs(fld.values) > threshold
    radii = np.where(above.any(axis=1), above.shape[1] - above[:, ::-1].argmax(axis=1), 0)
    if not radii.any():
        return FrontFit(fld.times, radii, threshold, float("nan"), None, True)
    start = int(np.argmax(radii > 0))
    peak = int(np.argmax(radii == radii.max()))
    window = None
    velocity = float("nan")
    if peak > start:
        sl = slice(start, peak + 1)
        velocity = float(np.polyfit(fld.times[sl], radii[sl], 1)[0])
        window = (float(fld.times[start]), float(fld.times[peak]))
    stalled = bool(radii.max() < fld.L // 2)
    return FrontFit(fld.times, radii, threshold, velocity, window, stalled)


def oscillation_count(fld: CorrelatorField, r: int, min_step: float = 1e-6) -> int:
    """Sign changes of dG/dt at fixed separation, ignoring sub-min_step wiggles."""
    if not 1 <= r <= fld.L // 2:
        raise ValueError(f"separation r={r} outside [1, {fld.L // 2}]")
    diffs = np.diff(fld.values[:, r - 1])
    signs = np.sign(diffs[np.abs(diffs) > min_step])
    if signs.size < 2:
        return 0
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def max_group_velocity(g: float) -> float:
    """Largest quasiparticle group velocity of the h = 0 chain: 2*min(g, 1)."""
    return 2.0 * min(g, 1.0)
