"""In-memory spans around calls into qchain's modules, and their self times.

The benchmark never edits the program: it wraps the public functions of each
module wherever qchain's own modules bind them, so a call from ``cli`` into
``render`` or from ``expr`` into ``fock`` opens a span whose parent is the
span of the caller.  A span is ``[name, start, end, parent index, figure
id]``; the layer is the part of the name before the dot.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) -> span name
TRACED = {
    ("chain", "real_mode_basis"): "chain.basis",
    ("expr", "parse_state_expr"): "expr.parse",
    ("expr", "evaluate_expr"): "expr.build",
    ("fock", "vacuum"): "fock.apply",
    ("fock", "apply_create"): "fock.apply",
    ("fock", "apply_create_local"): "fock.apply",
    ("fock", "linear_combine"): "fock.apply",
    ("sampling", "draw_samples"): "sampling.draw",
    ("sampling", "dump_samples"): "sampling.dump",
    ("sampling", "load_samples"): "sampling.load",
    ("wavefunction", "evaluate_batch"): "wavefunction.eval",
    ("wavefunction", "evaluate_oscillator2d"): "wavefunction.eval",
    ("render", "render_parallel_axes"): "render.svg",
    ("render", "render_scatter2d"): "render.svg",
    ("cli", "_write_atomic"): "cli.write",
}


class Tracer:
    """Records spans in memory; ``observers`` map a span name to a hook on its result."""

    def __init__(self):
        self.spans = []
        self.item = None
        self.observers = {}
        self._open = []
        self._patched = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.item]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            observe = self.observers.get(name)
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def install(self, package: str = "qchain"):
        """Replace each traced function in every module of ``package`` that binds it."""
        wrapped = {}
        for (module, attr), name in TRACED.items():
            original = getattr(sys.modules[f"{package}.{module}"], attr)
            wrapped[original] = self.wrap(name, original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, item in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, item) in enumerate(spans):
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children[index]):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def totals(spans, key=lambda span: span[0]):
    """Sum of self times grouped by ``key`` of each span (its name by default).

    Spans whose key is None are left out.
    """
    out = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        group = key(span)
        if group is not None:
            out[group] += own
    return dict(out)
