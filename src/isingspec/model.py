"""Mixed-field Ising chain on a periodic ring.

The Hamiltonian is

    H = -sum_{j=1..L} (sx_j sx_{j+1} + g sz_j + h sx_j),    site L+1 == site 1,

with transverse field g >= 0 and longitudinal field h >= 0, both dimensionless
(hbar = 1, bond coupling normalized to 1). Quenches start from the g = h = 0
ground state |->,...,->  (all spins polarized along +x).

Sites are 1-indexed throughout the public API. Internally site j lives on bit
j-1 of the basis index (little-endian).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

AXES = ("x", "y", "z")

L_MIN = 2
L_MAX = 24  # dense statevector bound: 2**L amplitudes


@dataclass(frozen=True)
class ModelParams:
    """Chain parameters. Construction rejects the parameters the engine
    cannot represent: L out of range and non-finite couplings."""

    L: int
    g: float
    h: float

    def __post_init__(self):
        if int(self.L) != self.L:
            raise ValueError(f"L={self.L!r} is not an integer")
        if not L_MIN <= self.L <= L_MAX:
            raise ValueError(f"L={self.L} outside supported range [{L_MIN}, {L_MAX}]")
        if not (math.isfinite(self.g) and math.isfinite(self.h)):
            raise ValueError(f"couplings must be finite, got g={self.g}, h={self.h}")


@dataclass(frozen=True)
class NoiseParams:
    """Noise model knobs (see isingspec.noise). All-zero probabilities mean an
    exactly noiseless run. The default rates are placeholders, not device data."""

    p1: float = 0.001
    p2: float = 0.01
    p01: float = 0.02
    p10: float = 0.02
    trajectories: int = 100
    mitigate: bool = True  # divide sampled expectations by (1 - 2 p_eff)

    def __post_init__(self):
        for name in ("p1", "p2", "p01", "p10"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name}={p} must lie in [0, 1)")
        if self.trajectories < 1:
            raise ValueError(f"trajectories must be >= 1, got {self.trajectories}")
        if self.mitigate and self.p_eff >= 0.5:
            raise ValueError(
                f"mitigate needs p01 + p10 < 1 (p_eff < 0.5), got p01={self.p01}, p10={self.p10}"
            )
        if self.p2 < self.p1:
            warnings.warn(
                f"p2={self.p2} < p1={self.p1}: two-site gates are usually the noisier kind",
                stacklevel=2,
            )

    @property
    def p_eff(self) -> float:
        return 0.5 * (self.p01 + self.p10)

    @property
    def has_gate_noise(self) -> bool:
        return self.p1 > 0 or self.p2 > 0

    @property
    def has_readout_error(self) -> bool:
        return self.p01 > 0 or self.p10 > 0

    @property
    def is_null(self) -> bool:
        return not (self.has_gate_noise or self.has_readout_error)


@dataclass(frozen=True)
class QuenchPlan:
    """Time grid and measurement budget for one quench run.

    shots = 0 means exact expectation values; shots > 0 draws that many
    bitstring samples per measured axis at every recorded time. The seed
    controls every stochastic element through three streams per trajectory:
    gate noise, sampling and readout noise.
    """

    dt: float
    n_steps: int
    shots: int = 0
    measured_axes: tuple[str, ...] = ("x", "y")
    seed: int | None = 0  # None draws fresh OS entropy
    noise: NoiseParams | None = None

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.shots < 0:
            raise ValueError(f"shots must be >= 0, got {self.shots}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        axes = tuple(self.measured_axes)
        if not axes or any(a not in AXES for a in axes) or len(set(axes)) != len(axes):
            raise ValueError(f"measured_axes must be a nonempty subset of {AXES}")
        object.__setattr__(self, "measured_axes", axes)
