"""Fourier spectroscopy of quench traces and matching to meson levels.

The magnetization trace sigma_y(t) on a uniform grid is mean-subtracted,
windowed, zero-padded and Fourier transformed; |sigma_y(omega)|^2 then shows
peaks at the k = 0 meson energies e_n = E_n - E_0 and, when the initial state
weights allow, at differences e_mn = e_m - e_n. Peaks are refined by 3-point
parabolic interpolation and matched greedily (closest first) against the
candidate set {e_n} union {e_m - e_n}.

The dimensionless scaling parameter eta = 2 pi (1 - g) / h^(8/15) indexes the
sweep points: small eta means strong confinement relative to the kink scale.
eta_sweep is the one sweep driver: it runs each point's quench and k = 0 ED
reference, then sweep_point (analyze_series against the point's levels), and
returns the record, spectrum, peaks and levels in memory. Without --parallel
workers the quenches run in this process and, when a second CPU is free,
every ED reference runs in one forked worker beside them
(trotter.forked_results).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial
from multiprocessing import get_context

import numpy as np

from . import edsolver, statevec, trotter
from .edsolver import EnergyLevels
from .model import ModelParams, QuenchPlan


@dataclass
class TimeSeries:
    """Samples on a uniform time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.times.size != self.values.size:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if self.times.size < 2:
            raise ValueError("a time series needs at least two samples")
        steps = np.diff(self.times)
        dt = steps[0]
        if dt <= 0 or np.abs(steps - dt).max() > 1e-9 * max(dt, 1.0):
            raise ValueError("time grid must be uniform and increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("series values must be finite")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def series_from_record(record: trotter.QuenchRecord, axis: str = "y") -> TimeSeries:
    return TimeSeries(record.times, record.aggregate(axis))


@dataclass
class Spectrum:
    """One-sided power spectrum on the angular frequency grid."""

    omega: np.ndarray
    power: np.ndarray
    window: str
    pad_factor: int
    dt: float
    n_samples: int

    @property
    def d_omega(self) -> float:
        return 2.0 * math.pi / (self.pad_factor * self.n_samples * self.dt)


_WINDOWS = {
    "hann": np.hanning,
    "rectangular": np.ones,
}
MIN_SAMPLES = 8  # shortest series power_spectrum accepts


def check_window(window: str) -> None:
    if window not in _WINDOWS:
        raise ValueError(f"window must be one of {sorted(_WINDOWS)}, got {window!r}")


def check_pad_factor(pad_factor: int) -> None:
    if pad_factor < 1 or int(pad_factor) != pad_factor:
        raise ValueError(f"pad_factor must be an integer >= 1, got {pad_factor}")


def check_min_height_frac(min_height_frac: float) -> None:
    if not 0.0 < min_height_frac < 1.0:
        raise ValueError(f"min_height_frac must be in (0, 1), got {min_height_frac}")


def check_samples(n: int) -> None:
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples for a spectrum, got {n}")


def check_axes(axes) -> None:
    """A sweep's spectroscopy reads sigma_y, so its quenches must measure y."""
    if "y" not in axes:
        raise ValueError(f"the sweep's spectrum needs 'y' among the measured axes, got {tuple(axes)}")


def power_spectrum(series: TimeSeries, window: str = "hann", pad_factor: int = 8) -> Spectrum:
    """Mean-subtract, window, zero-pad, and return |FFT|^2 on omega >= 0."""
    check_window(window)
    check_pad_factor(pad_factor)
    n = series.values.size
    check_samples(n)
    x = (series.values - series.values.mean()) * _WINDOWS[window](n)
    n_pad = int(pad_factor) * n
    coeffs = np.fft.rfft(x, n=n_pad)
    omega = 2.0 * math.pi * np.fft.rfftfreq(n_pad, d=series.dt)
    return Spectrum(omega, np.abs(coeffs) ** 2, window, int(pad_factor), series.dt, n)


@dataclass(frozen=True)
class Peak:
    """A refined spectral peak, possibly labelled against an energy-level set."""

    omega: float
    height: float
    width: float
    label: str = "unassigned"
    matched_value: float | None = None
    candidates: tuple[tuple[str, float], ...] = ()


@dataclass
class PeakSet:
    peaks: list[Peak]
    d_omega: float

    def __iter__(self):
        return iter(self.peaks)

    def __len__(self):
        return len(self.peaks)

    def get(self, label: str) -> Peak | None:
        for p in self.peaks:
            if p.label == label:
                return p
        return None

    @property
    def labels(self) -> list[str]:
        return [p.label for p in self.peaks]


def _parabolic_refine(power: np.ndarray, i: int, d_omega: float) -> tuple[float, float, float]:
    """Vertex of the parabola through bins (i-1, i, i+1): omega, height, width."""
    a, b, c = power[i - 1], power[i], power[i + 1]
    denom = a - 2.0 * b + c
    delta = 0.0 if denom == 0 else 0.5 * (a - c) / denom
    delta = min(0.5, max(-0.5, delta))
    height = b - 0.25 * (a - c) * delta
    curv = 0.5 * denom  # per bin^2, negative at a maximum
    width = d_omega if curv >= 0 else 2.0 * d_omega * math.sqrt(-height / (2.0 * curv))
    return (i + delta) * d_omega, float(height), float(width)


def find_peaks(spectrum: Spectrum, min_height_frac: float = 0.05) -> PeakSet:
    """Local maxima above min_height_frac of the strongest non-DC bin.

    The omega = 0 bin is excluded. The rest splits into runs of equal bins; a
    run strictly higher than the runs on both sides is a peak, reported at its
    middle bin (first + last) // 2, so runs at either end never qualify. A peak
    is kept when its height is at least min_height_frac * the highest bin.
    Positions are refined by 3-point parabolic interpolation, with uncertainty
    half a resolution bin; peaks come out in ascending omega.
    """
    if spectrum.power.size == 0:
        raise ValueError("empty spectrum")
    check_min_height_frac(min_height_frac)
    d_omega = spectrum.d_omega
    body = spectrum.power[1:]
    if body.size == 0 or body.max() <= 0.0:
        return PeakSet([], d_omega)
    starts = np.flatnonzero(np.r_[True, body[1:] != body[:-1]])
    lasts = np.r_[starts[1:], body.size] - 1
    tops = body[starts]
    above_left = np.r_[False, tops[1:] > tops[:-1]]
    above_right = np.r_[tops[:-1] > tops[1:], False]
    keep = above_left & above_right & (tops >= min_height_frac * body.max())
    idx = (starts[keep] + lasts[keep]) // 2 + 1  # back to full-array indexing
    peaks = [Peak(*_parabolic_refine(spectrum.power, i, d_omega)) for i in idx]
    return PeakSet(peaks, d_omega)


def level_candidates(levels: EnergyLevels) -> list[tuple[str, float]]:
    """Labelled candidate frequencies {e_n} plus differences {e_m - e_n}."""
    gaps = levels.gaps
    cands = [(f"e{n}", float(gaps[n - 1])) for n in range(1, gaps.size + 1)]
    for m in range(2, gaps.size + 1):
        for n in range(1, m):
            cands.append((f"e{m}{n}", float(gaps[m - 1] - gaps[n - 1])))
    return cands


_AMBIGUITY_EPS = 1e-9


def match_peaks(peaks: PeakSet, levels: EnergyLevels, tol: float | None = None) -> PeakSet:
    """Greedy closest-first assignment of peaks to labelled candidates.

    Each candidate matches at most one peak. A peak equidistant (within
    1e-9) from two candidates stays unassigned with both recorded. Default
    tolerance is max(d_omega, 0.05).
    """
    if tol is None:
        tol = max(peaks.d_omega, 0.05)
    cands = level_candidates(levels)
    ambiguous: dict[int, tuple[tuple[str, float], ...]] = {}
    pairs = []
    for pi, peak in enumerate(peaks.peaks):
        dists = sorted(
            (abs(peak.omega - val), ci) for ci, (_, val) in enumerate(cands)
        )
        within = [(d, ci) for d, ci in dists if d <= tol]
        if len(within) >= 2 and within[1][0] - within[0][0] < _AMBIGUITY_EPS:
            ambiguous[pi] = tuple(cands[ci] for _, ci in within[:2])
            continue
        pairs.extend((d, pi, ci) for d, ci in within)
    pairs.sort()
    labelled: dict[int, tuple[str, float]] = {}
    used_cands: set[int] = set()
    for d, pi, ci in pairs:
        if pi in labelled or ci in used_cands:
            continue
        labelled[pi] = cands[ci]
        used_cands.add(ci)
    out = []
    for pi, peak in enumerate(peaks.peaks):
        if pi in labelled:
            label, value = labelled[pi]
            out.append(replace(peak, label=label, matched_value=value))
        elif pi in ambiguous:
            out.append(replace(peak, candidates=ambiguous[pi]))
        else:
            out.append(peak)
    return PeakSet(out, peaks.d_omega)


def eta(g: float, h: float) -> float:
    """Confinement scaling parameter 2 pi (1 - g) / h^(8/15)."""
    if h <= 0:
        raise ValueError(f"eta needs h > 0, got h={h}")
    return 2.0 * math.pi * (1.0 - g) / h ** (8.0 / 15.0)


def analyze_series(
    series: TimeSeries,
    levels: EnergyLevels | None = None,
    *,
    window: str = "hann",
    pad_factor: int = 8,
    min_height_frac: float = 0.05,
) -> tuple[Spectrum, PeakSet]:
    """Spectrum and peaks, labelled against the ED levels when given."""
    spectrum = power_spectrum(series, window=window, pad_factor=pad_factor)
    peaks = find_peaks(spectrum, min_height_frac=min_height_frac)
    return spectrum, peaks if levels is None else match_peaks(peaks, levels)


@dataclass
class EtaPoint:
    """One sweep point: the quench record, its spectrum, labelled peaks and ED levels."""

    g: float
    h: float
    record: trotter.QuenchRecord
    spectrum: Spectrum
    peaks: PeakSet
    levels: EnergyLevels | None  # None when the sweep ran without an ED reference

    @property
    def eta(self) -> float:
        return eta(self.g, self.h)

    @property
    def d_omega(self) -> float:
        return self.spectrum.d_omega

    @property
    def ed_gaps(self) -> np.ndarray:
        return np.empty(0) if self.levels is None else self.levels.gaps

    @property
    def extracted(self) -> dict[str, tuple[float, float]]:
        """label -> (omega, uncertainty of half a resolution bin), assigned peaks only."""
        return {
            p.label: (float(p.omega), self.d_omega / 2.0)
            for p in self.peaks
            if p.label != "unassigned"
        }


def sweep_point(
    params: ModelParams,
    record: trotter.QuenchRecord,
    levels: EnergyLevels | None = None,
    **settings,
) -> EtaPoint:
    """Spectrum of the record's sigma_y and its peaks matched to levels, at one (g, h).

    settings are further analyze_series keywords; levels = None (no ED
    reference) leaves the peaks unassigned.
    """
    spectrum, peaks = analyze_series(series_from_record(record, "y"), levels, **settings)
    return EtaPoint(params.g, params.h, record, spectrum, peaks, levels)


def _quench_and_levels(params: ModelParams, plan: QuenchPlan, n_low: int | None):
    """A point's quench record and, unless n_low is None, its ED levels."""
    record = trotter.run_quench(params, plan)
    return record, None if n_low is None else edsolver.solve_sector(params, n_low=n_low)


# the check of each analysis setting, by keyword; the CLI checks its
# spectro.* keys through this table too
SETTING_CHECKS = {
    "window": check_window,
    "pad_factor": check_pad_factor,
    "min_height_frac": check_min_height_frac,
    "n_low": edsolver.check_n_low,
}


def eta_sweep(
    g_list, h: float, template: ModelParams, plan: QuenchPlan, *, processes: int = 1, **settings
) -> list[EtaPoint]:
    """Quench, ED levels and sweep_point at each g of g_list; deterministic for a fixed seed.

    settings are the analysis keywords (window, pad_factor, min_height_frac)
    and n_low, the ED eigenvalue count (6 by default; None skips the ED
    reference). Point i runs with seed plan.seed + i (left None when
    plan.seed is None), so serial and parallel execution produce identical
    results and a single-point sweep reproduces a plain quench with the same
    seed exactly. h <= 0, out-of-range settings, a plan too short for a
    spectrum or without the y axis and, with the ED reference on, an L that
    ED cannot solve are rejected before any point runs. At most
    os.cpu_count() pool processes are started, each with numpy's BLAS
    pinned to one thread. With one, the quenches run in this process; when
    they run in one process (no gate noise, or one trajectory) and a second
    CPU is free, one forked worker solves every point's ED reference beside
    them, and otherwise each point's ED follows its quench here.
    """
    h = float(h)
    if not h > 0:
        raise ValueError(f"eta needs h > 0, got h={h}")
    for key, check in SETTING_CHECKS.items():
        if key in settings:
            check(settings[key])
    check_samples(plan.n_steps + 1)
    check_axes(plan.measured_axes)
    n_low = settings.pop("n_low", 6)
    if n_low is not None:
        edsolver.check_L(template.L)
    points = [
        (
            replace(template, g=float(g), h=h),
            replace(plan, seed=None if plan.seed is None else plan.seed + i),
        )
        for i, g in enumerate(g_list)
    ]
    workers = min(processes, len(points), os.cpu_count() or 1)
    if workers > 1:
        with get_context("fork").Pool(workers, initializer=statevec.pin_blas_threads) as pool:
            parts = pool.starmap(partial(_quench_and_levels, n_low=n_low), points)
    elif n_low is not None and statevec.cpus() >= 2 and trotter.trajectories(plan) == 1:
        quenches = [(trotter.run_quench, *point) for point in points]
        references = [(edsolver.solve_sector, params, n_low) for params, _ in points]
        out = list(trotter.forked_results(lambda fn, *args: fn(*args), [quenches, references]))
        parts = zip(out[: len(points)], out[len(points) :])
    else:
        parts = [_quench_and_levels(*point, n_low) for point in points]
    return [
        sweep_point(params, record, levels=levels, **settings)
        for (params, _), (record, levels) in zip(points, parts)
    ]
