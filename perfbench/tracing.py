"""Per-layer tracing of propeller_sim, wrapped from outside the package.

`Tracer.install()` replaces the public functions and methods that each layer
exposes with wrappers that record spans (name, start, end, parent) or plain
call counts.  A function is rebound at every import site, i.e. in every
propeller_sim module that holds the same object (`accumulate_pattern`, for
example, is bound in `spectral`, `quantum_symtop` and `quantum_linear`).  A
wrapped name that no longer exists raises at install time, so a renamed
function cannot silently drop out of the trace.

Spans live in memory; `metrics()` derives self times and counts from them
and `dump()` writes them out once the run is over.  Scalar hot calls
(`angular.wigner3j`, `ensemble.mean_cos2theta`) get counters, not spans.
The tracer assumes one thread, which holds for the benchmark's pinned
thread settings.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from time import perf_counter

# Per-layer metrics reported by a traced run: name -> unit.  A metric named
# "<span>_s" is the summed self time of the spans called <span>.
LAYER_METRICS = {
    "ensemble.freeflight_s": "s",
    "ensemble.freeflight_molecule_steps": "count",
    "ensemble.auto_delay_s": "s",
    "ensemble.auto_delay_evals": "count",
    "ensemble.delay_scan_s": "s",
    "ensemble.sample_s": "s",
    "classical_linear.propagate_s": "s",
    "classical_linear.kick_s": "s",
    "classical_symtop.geometry_s": "s",
    "classical_symtop.geometry_builds": "count",
    "classical_symtop.geometry_useful_frac": "ratio",
    "classical_symtop.positions_s": "s",
    "classical_symtop.kick_s": "s",
    "angular.wigner3j_calls": "count",
    "quantum_symtop.coupling_build_s": "s",
    "quantum_symtop.coupling_builds": "count",
    "quantum_symtop.coupling_useful_frac": "ratio",
    "quantum_symtop.eigh_s": "s",
    "quantum_symtop.eigh_calls": "count",
    "quantum_symtop.eigh_n3_computed": "count",
    "quantum_symtop.max_block_dim": "count",
    "quantum_symtop.block_algebra_s": "s",
    "quantum_linear.kick_s": "s",
    "quantum_linear.operator_s": "s",
    "quantum_linear.basis_size": "count",
    "spectral.group_s": "s",
    "spectral.pairs_in": "count",
    "spectral.distinct_freqs": "count",
    "spectral.accumulate_s": "s",
    "spectral.evaluate_s": "s",
    "spectral.evaluate_terms": "count",
    "density.belt_s": "s",
    "density.kernel_evals_computed": "count",
    "density.moments_s": "s",
    "io_formats.write_s": "s",
    "io_formats.read_s": "s",
    "io_formats.bytes_written": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Metrics that are not a layer's own work and are present in every run.
ALWAYS_PRESENT = ("cli.", "trace.")


class Tracer:
    """Spans and counters for one traced run of the program."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.fired: set[str] = set()         # layers that recorded anything
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._geometry_used: set[int] = set()    # build numbers asked for positions
        self._blocks: set[tuple] = set()
        self._last_group_size = 0

    # ---- recording ---------------------------------------------------------

    def _count(self, name: str, n=1):
        self.counts[name] += n
        self.fired.add(name.split(".")[0])

    def _span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(args, kwargs, result) records counts."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = perf_counter()
                self._stack.pop()
                self.fired.add(name.split(".")[0])
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapped

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)

        return wrapped

    # ---- patching ----------------------------------------------------------

    def _rebind(self, owner, attr: str, make):
        """Replace owner.attr and every propeller_sim alias of the same object."""
        original = getattr(owner, attr)      # AttributeError: the name is gone
        wrapper = make(original)
        sites = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not mod_name.startswith("propeller_sim"):
                continue
            for name, value in vars(mod).items():
                if value is original:
                    sites.append((mod, name))
        for obj, name in sites:
            self._undo.append((obj, name, getattr(obj, name)))
            setattr(obj, name, wrapper)

    def _rebind_method(self, cls, attr: str, make):
        original = cls.__dict__[attr]        # KeyError: the method is gone
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self):
        """Wrap every traced layer boundary; returns self."""
        import numpy as np
        import propeller_sim.cli  # noqa: F401  (loaded so its bindings are rebound)
        from propeller_sim import (angular, classical_linear, classical_symtop,
                                   density, ensemble, io_formats, quantum_linear,
                                   quantum_symtop, spectral)

        span, count = self._span, self._counter

        # ensemble
        def freeflight_steps(args, kwargs, ts):
            self._count("ensemble.freeflight_molecule_steps",
                        args[0].n_traj * len(ts.grid))

        self._rebind(ensemble, "run_protocol",
                     lambda f: span("ensemble.freeflight", f, freeflight_steps))
        self._rebind(ensemble, "find_alignment_extremum",
                     lambda f: span("ensemble.auto_delay", f))
        self._rebind(ensemble, "mean_cos2theta",
                     lambda f: count("ensemble.auto_delay_evals", f))
        self._rebind(ensemble, "delay_scan", lambda f: span("ensemble.delay_scan", f))
        for name in ("uniform_matrix", "linear_ensemble_from_uniforms",
                     "symtop_ensemble_from_uniforms"):
            self._rebind(ensemble, name, lambda f: span("ensemble.sample", f))

        # classical_linear
        self._rebind(classical_linear, "propagate_arrays",
                     lambda f: span("classical_linear.propagate", f))
        self._rebind(classical_linear, "kick_velocity",
                     lambda f: span("classical_linear.kick", f))

        # classical_symtop: geometry builds, and which of them ever serve positions
        def geometry_built(args, kwargs, result):
            self._count("classical_symtop.geometry_builds")
            args[0]._perfbench_build = self.counts["classical_symtop.geometry_builds"]

        def positions_used(args, kwargs, result):
            self._geometry_used.add(args[0]._perfbench_build)

        self._rebind_method(classical_symtop.SymTopEnsemble, "__init__",
                            lambda f: span("classical_symtop.geometry", f,
                                           geometry_built))
        self._rebind_method(classical_symtop.SymTopEnsemble, "positions",
                            lambda f: span("classical_symtop.positions", f,
                                           positions_used))
        self._rebind(classical_symtop, "kick_momentum",
                     lambda f: span("classical_symtop.kick", f))

        # angular
        self._rebind(angular, "wigner3j", lambda f: count("angular.wigner3j_calls", f))

        # quantum_symtop
        def block_built(args, kwargs, result):
            basis, key = args
            self._count("quantum_symtop.coupling_builds")
            self._blocks.add((basis.J_max, basis.K_limit, basis.i1_over_i3, tuple(key)))

        self._rebind(quantum_symtop, "coupling_block",
                     lambda f: span("quantum_symtop.coupling_build", f, block_built))
        for name in ("alignment_trace", "delay_curve"):
            self._rebind(quantum_symtop, name,
                         lambda f: span("quantum_symtop.block_algebra", f))

        def eigh(f):
            traced = span("quantum_symtop.eigh", f, eigh_counted)

            @functools.wraps(f)
            def wrapped(a, *args, **kwargs):
                caller = sys._getframe(1).f_globals.get("__name__")
                if caller != quantum_symtop.__name__:
                    return f(a, *args, **kwargs)
                return traced(a, *args, **kwargs)

            return wrapped

        def eigh_counted(args, kwargs, result):
            n = args[0].shape[0]
            self._count("quantum_symtop.eigh_calls")
            self._count("quantum_symtop.eigh_n3_computed", n ** 3)
            self.counts["quantum_symtop.max_block_dim"] = max(
                self.counts["quantum_symtop.max_block_dim"], n)

        self._rebind(np.linalg, "eigh", eigh)

        # quantum_linear
        self._rebind(quantum_linear, "kick_batch",
                     lambda f: span("quantum_linear.kick", f))
        for name in ("operator", "op_cos2beta"):
            self._rebind_method(quantum_linear.LinearBasis, name,
                                lambda f: span("quantum_linear.operator", f))

        def basis_size(f):
            @functools.wraps(f)
            def init(obj, *args, **kwargs):
                f(obj, *args, **kwargs)
                self.counts["quantum_linear.basis_size"] = max(
                    self.counts["quantum_linear.basis_size"], obj.size)
                self.fired.add("quantum_linear")

            return init

        self._rebind_method(quantum_linear.LinearBasis, "__init__", basis_size)

        # spectral
        def grouped(args, kwargs, result):
            self._count("spectral.pairs_in", len(args[0]))
            self._count("spectral.distinct_freqs", len(result[0]))
            self._last_group_size = len(result[0])

        def evaluated(args, kwargs, result):
            self._count("spectral.evaluate_terms", self._last_group_size * len(args[1]))

        self._rebind(spectral, "group_amplitudes",
                     lambda f: span("spectral.group", f, grouped))
        self._rebind(spectral, "accumulate_pattern",
                     lambda f: span("spectral.accumulate", f))

        def evaluate(f):
            traced = span("spectral.evaluate", f, evaluated)

            @functools.wraps(f)
            def wrapped(trace, times):
                self._last_group_size = 0
                return traced(trace, times)

            return wrapped

        self._rebind_method(spectral.SpectralTrace, "evaluate", evaluate)

        # density
        def belt_counted(args, kwargs, grid):
            self._count("density.kernel_evals_computed",
                        len(args[1]) * grid.rho.size)

        self._rebind(density, "belt_average", lambda f: span("density.belt", f, belt_counted))
        self._rebind(density, "second_moments", lambda f: span("density.moments", f))

        # io_formats; bytes count data files only, because the manifest's
        # wall-time field changes length from run to run
        def written(args, kwargs, result):
            self._count("io_formats.bytes_written", os.path.getsize(args[0]))

        for name in ("write_timeseries_csv", "write_timeseries_json", "write_density_text"):
            self._rebind(io_formats, name, lambda f: span("io_formats.write", f, written))
        self._rebind_method(io_formats.RunManifest, "write",
                            lambda f: span("io_formats.write", f))
        for name in ("read_density_text", "read_timeseries_csv"):
            self._rebind(io_formats, name, lambda f: span("io_formats.read", f))
        return self

    def uninstall(self):
        while self._undo:
            obj, name, original = self._undo.pop()
            setattr(obj, name, original)

    # ---- derived metrics ---------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def metrics(self, wall_s: float) -> tuple[dict, list[str]]:
        """(metric -> value or None, absent layers) for one traced call of wall_s.

        A metric of a layer that never fired is None; cli.self_s is the wall
        time outside every span.  trace.overhead_s needs the untraced wall
        time and is left to the caller.
        """
        selfs = self.self_times()
        values = {}
        for name in LAYER_METRICS:
            if name.startswith(ALWAYS_PRESENT):
                continue
            if name.split(".")[0] not in self.fired:
                values[name] = None
            elif name.endswith("_s"):
                values[name] = selfs.get(name[:-2], 0.0)
            else:
                values[name] = self.counts.get(name, 0)
        builds = self.counts["classical_symtop.geometry_builds"]
        if builds:
            values["classical_symtop.geometry_useful_frac"] = len(self._geometry_used) / builds
        builds = self.counts["quantum_symtop.coupling_builds"]
        if builds:
            values["quantum_symtop.coupling_useful_frac"] = len(self._blocks) / builds
        values["cli.self_s"] = wall_s - sum(selfs.values())
        absent = sorted({n.split(".")[0] for n, v in values.items() if v is None})
        return values, absent

    def dump(self, path):
        """Write the spans and counters recorded so far as JSON."""
        doc = {"spans": [{"name": n, "start": s, "end": e, "parent": p}
                         for n, s, e, p in self.spans],
               "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(doc, fh)
