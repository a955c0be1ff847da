"""Trotterized quench simulation and meson spectroscopy for the mixed-field Ising chain."""

from .model import AXES, ModelParams, QuenchPlan
from .statevec import (
    Gate,
    StateVector,
    energy_expectation,
    exact_evolve,
    init_all_plus,
)
from .trotter import QuenchRecord, TrotterStep, build_step, decompose_to_native, run_quench
from .edsolver import (
    EnergyLevels,
    SectorBasis,
    assemble_sector_hamiltonian,
    build_zero_momentum_basis,
    eigensolve,
    free_fermion_oracle,
    solve_sector,
)
from .noise import NoiseParams, apply_gate_noise, trex_mitigate
from .obs import CorrelatorField, lightcone_front
from .spectro import (
    EtaPoint,
    PeakSet,
    Spectrum,
    TimeSeries,
    eta,
    eta_sweep,
    find_peaks,
    match_peaks,
    power_spectrum,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
