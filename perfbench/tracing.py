"""Span tracer that times clawlab's modules from outside, without editing them.

``Tracer.install`` replaces every reference to a public clawlab function that
is held by *another* module -- another clawlab module, the ``clawlab``
package namespace, or one of the benchmark's own modules -- with a wrapper
that records a span.  A module's calls to its own functions stay unwrapped,
so every span marks a call that crosses a module boundary (a module that
another imports as a module object is patched in place).  ``uninstall``
puts the original references back.

The callables on the objects the benchmark receives from clawlab
(``FluxSpec`` from ``catalog_lookup``, ``EntropyPair`` from the pair
builders, ``TestFunction`` from the test-function builders) are wrapped too,
with counters for calls and evaluated points.  The solver's step methods get
counting wrappers (no span) for steps and cell updates.

Spans of one root (an experiment, or the set-up) share its id and are kept
in memory; ``write`` dumps them as JSON lines.  The self time of a span is
its duration minus the durations of its direct children.  Self time is
booked to ``(layer, tag)``, where the tag is the function through which the
layer was entered: a flux ``eval`` made inside ``lipschitz_constant`` counts
as Lipschitz time of the flux layer.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# The layers: clawlab's modules (``errors`` holds only exception classes).
LAYERS = ("cli", "config", "entropy", "flux", "grids", "mollifiers",
          "quadrature", "solver", "svgplot", "verifier")

_FLUX_CALLABLES = ("eval", "dk", "div_x", "grad_x_components")
_PAIR_CALLABLES = ("eta", "eta_prime", "q", "div_x_q")
_PHI_CALLABLES = ("value", "dt", "grad_x")


# grids I/O functions: (counter, the files a call wrote or read)
_GRIDS_FILES = {
    "write_csv": ("grids.bytes_written", lambda out, args: [args[1]]),
    "write_slab": ("grids.bytes_written", lambda out, args: [args[0]]),
    "write_slabs": ("grids.bytes_written", lambda out, args: out),
    **{name: ("grids.bytes_read",
              lambda out, args: args[0] if isinstance(args[0], (list, tuple))
              else [args[0]])
       for name in ("read_slabs", "load_field", "read_csv", "read_slab")},
}


def _file_bytes(path) -> int:
    p = Path(path)
    if p.is_dir():
        return sum(f.stat().st_size for f in p.glob("*.slab"))
    return p.stat().st_size


class Phase:
    """One root span (an experiment or the set-up): its spans, and the
    per-layer books computed from them when the root closes."""

    def __init__(self, kind: str, phase_id: int):
        self.kind = kind
        self.id = phase_id
        self.duration = 0.0
        # frames [span id, layer, tag, parent id, name, start, child s, end]
        self.frames: list[list] = []
        self.self_s = defaultdict(float)      # (layer, tag) -> seconds
        self.inclusive_s = defaultdict(float)  # (layer, name) -> seconds
        self.calls = defaultdict(int)          # (layer, name) -> count
        self.counts = defaultdict(int)         # counter name -> count

    def close(self) -> None:
        for _, layer, tag, _, name, start, child, end in self.frames:
            self.self_s[(layer, tag)] += end - start - child
            self.inclusive_s[(layer, name)] += end - start
            self.calls[(layer, name)] += 1

    def layer_self(self, layer: str, tags=None) -> float:
        return sum(s for (lay, tag), s in self.self_s.items()
                   if lay == layer and (tags is None or tag in tags))

    def layer_calls(self, layer: str, names) -> int:
        return sum(self.calls[(layer, n)] for n in names)


class Tracer:
    """Records spans at clawlab's module boundaries; see the module docstring."""

    def __init__(self):
        self.phases: list[Phase] = []
        self._stack: list[list] = []
        self._phase: Phase | None = None
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- span bookkeeping (the hot path: keep it to list operations) ------
    def _push(self, layer: str, name: str) -> list:
        parent = self._stack[-1]
        frame = [self._next_id, layer,
                 parent[2] if parent[1] == layer else name, parent[0], name,
                 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[5] = perf_counter()
        return frame

    def _pop(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        stack[-1][6] += end - frame[5]
        frame.append(end)
        self._phase.frames.append(frame)

    def root(self, kind: str):
        """Context manager for one root span (``bench`` layer)."""
        return _Root(self, kind)

    # -- wrappers ---------------------------------------------------------
    def _span(self, layer: str, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args)`` runs once the span
        has closed and may replace the result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            frame = tracer._push(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
            return out if after is None else after(out, args)
        return traced

    def _counted(self, layer: str, name: str, fn, counter: str, width: int):
        """Span plus a count of evaluated points (result size / width)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            frame = tracer._push(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
            tracer._phase.counts[counter] += getattr(out, "size", 1) // width
            return out
        return traced

    def wrap_flux(self, flux):
        fields = {n: self._counted("flux", n, getattr(flux, n), "flux.points",
                                   1 if n == "div_x" else flux.dim)
                  for n in _FLUX_CALLABLES}
        return dataclasses.replace(flux, **fields)

    def wrap_pair(self, pair):
        fields = {n: self._span("entropy", "pair." + n, getattr(pair, n))
                  for n in _PAIR_CALLABLES}
        return dataclasses.replace(pair, **fields)

    def wrap_phi(self, phi):
        fields = {n: self._counted("mollifiers", "phi." + n, getattr(phi, n),
                                   "mollifiers.phi_points",
                                   phi.dim if n == "grad_x" else 1)
                  for n in _PHI_CALLABLES}
        return dataclasses.replace(phi, **fields)

    def _after_hook(self, module: str, name: str):
        """Post-processing for functions whose results the tracer wraps or
        whose file traffic it counts."""
        if (module, name) == ("flux", "catalog_lookup"):
            return lambda out, args: self.wrap_flux(out)
        if module == "entropy" and name in ("make_kruzkov_pair",
                                            "make_smooth_pair"):
            return lambda out, args: self.wrap_pair(out)
        if module == "mollifiers" and name in ("bump_test_function",
                                               "contraction_test_function"):
            return lambda out, args: self.wrap_phi(out)
        if module == "grids" and name in _GRIDS_FILES:
            key, files = _GRIDS_FILES[name]

            def count(out, args):
                self._phase.counts[key] += sum(_file_bytes(f)
                                               for f in files(out, args))
                return out
            return count
        return None

    # -- install / uninstall ----------------------------------------------
    def install(self, extra_namespaces=()) -> None:
        """Patch cross-module references; ``extra_namespaces`` are the
        benchmark's own modules that imported clawlab functions by name."""
        import clawlab
        modules = {lay: sys.modules[f"clawlab.{lay}"] for lay in LAYERS}
        wrappers = {}
        for lay, mod in modules.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = self._span(lay, name, obj,
                                               self._after_hook(lay, name))
        # a module that another module imports as a module object (cli
        # calls ``svgplot.line_plot``) is patched in place as well
        in_place = {id(obj) for mod in modules.values()
                    for obj in vars(mod).values()
                    if isinstance(obj, types.ModuleType)}
        for ns in [clawlab, *modules.values(), *extra_namespaces]:
            for name, obj in list(vars(ns).items()):
                w = wrappers.get(id(obj))
                if w is not None and (id(ns) in in_place
                                      or obj.__module__ != ns.__name__):
                    self._patches.append((ns, name, obj))
                    setattr(ns, name, w)

        from clawlab import mollifiers, solver
        for cls, name in ((mollifiers.Mollifier, "value"),
                          (mollifiers.Mollifier, "grad")):
            orig = cls.__dict__[name]
            self._patches.append((cls, name, orig))
            setattr(cls, name, self._span("mollifiers", f"Mollifier.{name}",
                                          orig))
        for cls in (solver._Stepper1D, solver._Stepper2D):
            orig = cls.__dict__["step"]
            self._patches.append((cls, "step", orig))
            setattr(cls, "step", self._step_counter(orig))

    def _step_counter(self, step):
        tracer = self

        @functools.wraps(step)
        def counted(stepper, u, dt):
            if tracer._phase is not None:
                tracer._phase.counts["solver.steps"] += 1
                tracer._phase.counts["solver.cell_updates"] += u.size
            return step(stepper, u, dt)
        return counted

    def uninstall(self) -> None:
        for ns, name, orig in reversed(self._patches):
            setattr(ns, name, orig)
        self._patches.clear()

    def write(self, path) -> None:
        """Dump every span as one JSON line: phase id and kind, span id,
        parent id, layer, name, start and end (perf_counter seconds)."""
        os.makedirs(Path(path).parent, exist_ok=True)
        with open(path, "w") as fh:
            for phase in self.phases:
                for sid, layer, _, parent, name, start, _, end in phase.frames:
                    fh.write(json.dumps([phase.id, phase.kind, sid, parent,
                                         layer, name, start, end]) + "\n")


class _Root:
    def __init__(self, tracer: Tracer, kind: str):
        self.tracer = tracer
        self.kind = kind

    def __enter__(self) -> Phase:
        t = self.tracer
        phase = Phase(self.kind, len(t.phases))
        t.phases.append(phase)
        t._phase = phase
        t._stack = [[t._next_id, "bench", self.kind, -1, self.kind,
                     perf_counter(), 0.0]]
        t._next_id += 1
        return phase

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        t = self.tracer
        frame = t._stack.pop()
        frame.append(end)
        phase = t._phase
        phase.duration = end - frame[5]
        phase.frames.append(frame)
        phase.close()
        t._phase = None
