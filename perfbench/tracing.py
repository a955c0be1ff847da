"""Spans around the public functions of each isingspec module.

Tracer.install() replaces module attributes with timing wrappers, so every
call that goes through the module namespace (``statevec.apply_gate(...)``
from trotter, or a module-global call such as ``measurement_probabilities``
inside ``sample_index_counts``) is recorded. Nothing in the package changes.

A span's self time is its duration minus the time of the spans it encloses.
Spans are aggregated per name in memory (calls, busy, self, per-call
durations) and summarised once, when the traced process ends.
"""

from __future__ import annotations

import math
import types
from collections import Counter
from time import perf_counter

from isingspec import cli, edsolver, noise, obs, spectro, statevec, trotter

# (module, attribute, span name); every layer is named after its module
_SPANS = [
    (cli, "render_trace_csv", "cli.render"),
    (cli, "render_trace_json", "cli.render"),
    (cli, "render_spectrum_csv", "cli.render"),
    (cli, "render_spectrum_json", "cli.render"),
    (cli, "render_peaks_json", "cli.render"),
    (cli, "parse_trace_csv", "cli.parse_trace"),
    (trotter, "build_step", "trotter.build_step"),
    (statevec, "measurement_probabilities", "statevec.probs"),
    (statevec, "sample_index_counts", "statevec.sample"),
    (statevec, "site_expectations", "statevec.expect"),
    (statevec, "estimates_from_indices", "statevec.estimates"),
    (statevec, "bits_from_indices", "statevec.estimates"),
    (statevec, "estimates_from_bits", "statevec.estimates"),
    (noise, "apply_gate_noise", "noise.gate_noise"),
    (obs, "correlator_profile", "obs.correlator"),
    (obs, "correlator_profile_from_bits", "obs.correlator"),
    (obs, "field_from_record", "obs.front"),
    (obs, "lightcone_front", "obs.front"),
    (obs, "oscillation_count", "obs.front"),
    (edsolver, "solve_sector", "edsolver.solve"),
    (edsolver, "assemble_sector_hamiltonian", "edsolver.assemble"),
    (edsolver, "eigensolve", "edsolver.eigensolve"),
    (spectro, "power_spectrum", "spectro.fft"),
]


class _Span:
    __slots__ = ("calls", "busy", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []


def _percentile_ms(sorted_s: list[float], q: float) -> float:
    """Nearest-rank percentile of durations in seconds, returned in ms."""
    if not sorted_s:
        return 0.0
    return 1e3 * sorted_s[max(0, math.ceil(q * len(sorted_s)) - 1)]


class Tracer:
    def __init__(self):
        self.spans: dict[str, _Span] = {}
        self.counts: Counter = Counter()
        self._open: list[float] = []  # child time accumulated by each open span
        self._sector_Ls: set[int] = set()

    # ------------------------------------------------------------ recording

    def call(self, name: str, fn, *args, **kwargs):
        start = perf_counter()
        self._open.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            child = self._open.pop()
            if self._open:
                self._open[-1] += duration
            span = self.spans.get(name)
            if span is None:
                span = self.spans[name] = _Span()
            span.calls += 1
            span.busy += duration
            span.self_time += duration - child
            span.durations.append(duration)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def root(self, fn):
        """The outermost span, around cli.main; its self time is the CLI's own."""
        return self.wrap("cli", fn)

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        for module, attr, name in _SPANS:
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        counts = self.counts

        def apply_gate(state, gate, _orig=statevec.apply_gate):
            counts["gate_bytes"] += 2 * 16 << state.L  # read + write of the state
            kind = "statevec.gate_1q" if len(gate.sites) == 1 else "statevec.gate_2q"
            return self.call(kind, _orig, state, gate)

        statevec.apply_gate = apply_gate

        def run_quench(*args, _orig=trotter.run_quench, **kwargs):
            before = self._gate_calls()
            try:
                return self.call("trotter.run_quench", _orig, *args, **kwargs)
            finally:
                per_step = counts["gates_per_step"]
                if per_step:
                    counts["steps"] += (self._gate_calls() - before) // per_step

        trotter.run_quench = run_quench

        def build_step(*args, _orig=trotter.build_step, **kwargs):
            step = _orig(*args, **kwargs)
            counts["gates_per_step"] = len(step.gates)
            return step

        trotter.build_step = build_step

        def copy(state, _orig=statevec.StateVector.copy):
            counts["copies"] += 1
            return _orig(state)

        statevec.StateVector.copy = copy

        # noise inserts its Paulis through statevec.apply_matrix1; count them
        # through a private view of statevec so gate kernels are not counted
        def apply_pauli(*args, _orig=statevec.apply_matrix1):
            counts["paulis_inserted"] += 1
            return _orig(*args)

        noise.statevec = types.SimpleNamespace(**vars(statevec))
        noise.statevec.apply_matrix1 = apply_pauli

        def twirled_readout(bits, *args, _orig=noise.twirled_readout):
            counts["readout_bits"] += bits.size
            return self.call("noise.readout", _orig, bits, *args)

        noise.twirled_readout = twirled_readout

        def build_basis(L, _orig=edsolver.build_zero_momentum_basis):
            basis = self.call("edsolver.basis", _orig, L)
            counts["basis_builds"] += 1
            counts["sector_dim"] = max(counts["sector_dim"], basis.dim)
            self._sector_Ls.add(L)
            return basis

        edsolver.build_zero_momentum_basis = build_basis

        def find_peaks(*args, _orig=spectro.find_peaks, **kwargs):
            found = self.call("spectro.peaks", _orig, *args, **kwargs)
            counts["peaks_found"] += len(found)
            return found

        def match_peaks(*args, _orig=spectro.match_peaks, **kwargs):
            matched = self.call("spectro.peaks", _orig, *args, **kwargs)
            counts["peaks_matched"] += len(matched)
            counts["peaks_assigned"] += sum(p.label != "unassigned" for p in matched)
            return matched

        spectro.find_peaks = find_peaks
        spectro.match_peaks = match_peaks

    def _gate_calls(self) -> int:
        return sum(s.calls for n, s in self.spans.items() if n.startswith("statevec.gate_"))

    # -------------------------------------------------------------- summary

    def summary(self) -> dict:
        """Per-span statistics and counters, as plain JSON-able values."""
        spans = {}
        for name, s in self.spans.items():
            d = sorted(s.durations)
            spans[name] = {
                "calls": s.calls,
                "busy_s": s.busy,
                "self_s": s.self_time,
                "ms_p50": _percentile_ms(d, 0.50),
                "ms_p99": _percentile_ms(d, 0.99),
            }
        counts = dict(self.counts)
        counts["sector_Ls"] = len(self._sector_Ls)
        return {"spans": spans, "counts": counts}
