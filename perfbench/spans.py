"""Span tracer for the traced run.

Wraps dblab's public functions from outside: every module-level name in the
dblab package that refers to a traced object is rebound to a wrapper, so
callers pick the wrapper up at run time and no file of the program changes.
Spans (layer, parent span, start, end, entries) are kept in memory and
written out after the run.  A target that no longer exists is reported as
missing and its metrics read 0.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

import numpy as np


def _size(*arrays):
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


def _first(args):
    return _size(args[0])


def _first_two(args):
    return _size(args[0], args[1])


def _second_third(args):
    return _size(args[1], args[2])


def _second(args):
    return _size(args[1])


# (layer, module, attribute or Class.attribute, entry count from the call's args)
TARGETS = [
    ("multipliers.commutator_kernel", "dblab.multipliers", "commutator_kernel", _first_two),
    ("dyadic.phi_prime", "dblab.dyadic", "phi_prime", _first),
    ("multipliers.corrector_weight", "dblab.multipliers", "corrector_weight", _second_third),
    ("resonance.omega2", "dblab.resonance", "omega2", _second_third),
    ("dyadic.eta", "dblab.dyadic", "eta", _first),
    ("energies.modified_energy", "dblab.energies", "modified_energy", None),
    ("energies.corrector_term", "dblab.energies", "corrector_term", None),
    ("energies.difference_corrector1", "dblab.energies", "difference_corrector1", None),
    ("energies.difference_corrector2", "dblab.energies", "difference_corrector2", None),
    ("energies.coercivity_check", "dblab.energies", "coercivity_check", None),
    ("energies.difference_coercivity_check", "dblab.energies", "difference_coercivity_check", None),
    ("energies.band_energy", "dblab.energies", "band_energy", None),
    ("energies.hamiltonian", "dblab.energies", "hamiltonian", None),
    ("symbols.check_hyp2", "dblab.symbols", "check_hyp2", None),
    ("symbols.omega", "dblab.symbols", "DispersionSymbol.omega", _second),
    ("solver.run", "dblab.solver", "run", None),
    ("solver.make_stepper", "dblab.solver", "make_stepper", None),
    ("solver.nonlinear_rhs", "dblab.solver", "nonlinear_rhs", None),
    ("spectral.grid_tables", "dblab.spectral", "SpectralGrid.wavenumbers", None),
    ("spectral.grid_tables", "dblab.spectral", "SpectralGrid.frequencies", None),
    ("spectral.grid_tables", "dblab.spectral", "SpectralGrid.dealias_mask", None),
    ("solver.writer", "dblab.solver", "RunWriter.snapshot", None),
    ("solver.writer", "dblab.solver", "RunWriter.report", None),
    ("multipliers.check_marcinkiewicz", "dblab.multipliers", "check_marcinkiewicz", None),
]

# Reported per-layer metrics, in order.  `solver.stepper` is the object
# `make_stepper` returns, wrapped when it is returned.
METRICS = [
    ("multipliers.commutator_kernel", ("s", "calls", "entries")),
    ("dyadic.phi_prime", ("s", "entries")),
    ("multipliers.corrector_weight", ("s", "calls", "entries")),
    ("resonance.omega2", ("s", "entries")),
    ("dyadic.eta", ("s", "entries")),
    ("energies.modified_energy", ("s", "self_s", "calls")),
    ("energies.corrector_term", ("s", "calls")),
    ("energies.difference_corrector1", ("s", "calls")),
    ("energies.difference_corrector2", ("s", "calls")),
    ("energies.coercivity_check", ("s", "calls")),
    ("energies.difference_coercivity_check", ("s", "calls")),
    ("energies.band_energy", ("s", "calls")),
    ("energies.hamiltonian", ("s", "calls")),
    ("symbols.check_hyp2", ("s", "calls")),
    ("symbols.omega", ("s", "entries")),
    ("solver.run", ("s", "calls")),
    ("solver.make_stepper", ("s", "calls")),
    ("solver.stepper", ("self_s", "calls")),
    ("solver.nonlinear_rhs", ("s", "calls")),
    ("spectral.grid_tables", ("s", "calls")),
    ("solver.writer", ("s", "calls")),
    ("multipliers.check_marcinkiewicz", ("s", "calls")),
]

class _StepperProxy:
    """Times each call of a stepper; other attributes pass through."""

    def __init__(self, tracer, stepper):
        self._tracer = tracer
        self._stepper = stepper

    def __call__(self, *args, **kwargs):
        return self._tracer.span("solver.stepper", self._stepper, None, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._stepper, name)


class Tracer:
    def __init__(self):
        self.spans = []       # (layer, parent index, start, end, entries, nested in same layer)
        self._stack = []
        self._depth = {}
        self._undo = []
        self.missing = []

    def span(self, layer, fn, entries, args, kwargs):
        try:
            count = entries(args) if entries is not None else 0
        except (IndexError, ValueError):  # called with keywords or unbroadcastable shapes
            count = 0
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        nested = self._depth.get(layer, 0) > 0
        self.spans.append(None)
        self._stack.append(idx)
        self._depth[layer] = self._depth.get(layer, 0) + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._depth[layer] -= 1
            self._stack.pop()
            self.spans[idx] = (layer, parent, start, end, count, nested)

    def _wrap(self, layer, fn, entries):
        tracer = self
        if layer == "solver.make_stepper":
            def wrapper(*args, **kwargs):
                return _StepperProxy(tracer, tracer.span(layer, fn, entries, args, kwargs))
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(layer, fn, entries, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Rebind every traced name; missing targets are recorded, not fatal."""
        pkg = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "dblab" or name.startswith("dblab."))]
        for layer, modname, attr, entries in TARGETS:
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                self.missing.append(f"{modname}.{attr}")
                continue
            if "." in attr:
                cls_name, name = attr.split(".")
                cls = getattr(owner, cls_name, None)
                orig = vars(cls).get(name) if isinstance(cls, type) else None
                if orig is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                if inspect.isfunction(orig):
                    new = self._wrap(layer, orig, entries)
                else:  # property or other descriptor: time each attribute read
                    get = self._wrap(layer, lambda obj, _d=orig, _c=cls: _d.__get__(obj, _c), None)
                    new = property(get)
                setattr(cls, name, new)
                self._undo.append((cls, name, orig))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            new = self._wrap(layer, orig, entries)
            for mod in pkg:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, new)
                        self._undo.append((mod, name, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def summary(self):
        """Per-layer metrics: inclusive time (outermost spans of a layer only),
        self time (span minus direct child spans), calls and entries."""
        agg = {layer: {"s": 0.0, "self_s": 0.0, "calls": 0, "entries": 0} for layer, _ in METRICS}
        for layer, parent, start, end, count, nested in self.spans:
            d = end - start
            a = agg.setdefault(layer, {"s": 0.0, "self_s": 0.0, "calls": 0, "entries": 0})
            a["calls"] += 1
            a["entries"] += count
            a["self_s"] += d
            if not nested:
                a["s"] += d
            if parent >= 0:
                agg[self.spans[parent][0]]["self_s"] -= d
        return {f"{layer}.{stat}": agg[layer][stat] for layer, stats in METRICS for stat in stats}

    def write(self, path):
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,layer,start_s,end_s,entries\n")
            for i, (layer, parent, start, end, count, _) in enumerate(self.spans):
                fh.write(f"{i},{parent},{layer},{start - t0:.9f},{end - t0:.9f},{count}\n")
