"""Outside-in span tracer for the collective_mode package.

`Tracer.install` wraps, from outside the package, every public function
of the layer modules, the stepper kernel, and the dense factorisations
the package asks for (`scipy.linalg.eigh`/`eigvalsh`, `numpy.linalg.qr`).
Every module attribute that refers to a wrapped function is rebound, so
names imported directly (`from .mapping import caldeira_leggett_form`)
are traced too.  Private helpers are left alone: `cli._fmt` alone runs
2e5 times on memory-long.

A span is [name, start_ns, end_ns, parent_index, n3]; n3 is the
computed m*n*min(m, n) of a factorisation's input, else None.  Spans
stay in memory until `write`.
"""

import functools
import importlib
import json
import sys
import time
import types
from collections import defaultdict

LAYERS = ("model", "mapping", "dynamics", "spectra", "verify", "cli")
LINALG = (("scipy.linalg", "eigh"), ("scipy.linalg", "eigvalsh"),
          ("numpy.linalg", "qr"))


def _n3(args, kwargs):
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    if len(shape) != 2:
        return None
    return int(shape[0]) * int(shape[1]) * int(min(shape))


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, size=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1,
                          size(args, kwargs) if size else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self, package="collective_mode"):
        """Wrap the package's public functions and the linalg entry points."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, self.wrap(f"{layer}.{name}", obj))
        kernel = importlib.import_module(f"{package}._kernels").volterra_path
        targets[id(kernel)] = (kernel, self.wrap("kernels.volterra_path", kernel))

        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

        for modname, fname in LINALG:
            mod = importlib.import_module(modname)
            setattr(mod, fname, self.wrap(f"linalg.{fname}", getattr(mod, fname),
                                          size=_n3))

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def self_times_ns(spans):
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so a span's children are disjoint and lie
    inside it; their coverage is the sum of their durations.
    """
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_, start, end, _, _) in enumerate(spans)]


def layer_table(spans):
    """Per span name: calls, total_s, self_s and n3 (summed)."""
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                 "n3": 0})
    for span, self_ns in zip(spans, self_times_ns(spans)):
        name, start, end, _, n3 = span
        row = table[name]
        row["calls"] += 1
        row["total_s"] += (end - start) * 1e-9
        row["self_s"] += self_ns * 1e-9
        row["n3"] += n3 or 0
    return dict(table)
