"""Spans and boundary counters around hamalg's public functions.

The tracer lives in the benchmark, not in the program: it replaces each
public function of a layer module with a wrapper, in the defining module
and in every hamalg module that re-imported the name, so calls made through
either route are seen.  A wrapper records nothing unless an op is running,
so the benchmark's own checks stay out of the figures.

Self time of a span is its duration minus the time covered by spans it
caused; each function accumulates calls and self time, and the
counters its boundary defines (see ``COUNTERS``).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

# layer modules whose public functions get a span; the name before the dot
# in every reported metric is the module name below
LAYERS = ("parser", "_rewrite", "variational", "poisson", "quantum",
          "lattice", "_kernels", "quasiclassics")


def _canonicalize_counts(args, kwargs, result):
    return {"terms_in": len(args[0]), "terms_out": len(result)}


def _quantize_counts(args, kwargs, result):
    return {"words_out": len(result.terms)}


def _ccr_counts(args, kwargs, result):
    return {"terms_in": len(args[0].terms), "terms_out": len(result.terms)}


def _gradient_counts(args, kwargs, result):
    return {"points": int(args[0].n)}


# counters read at a call boundary; they depend only on the arguments and
# the result, so they repeat exactly for a fixed seed
COUNTERS = {
    "_rewrite.canonicalize_terms": _canonicalize_counts,
    "quantum.quantize": _quantize_counts,
    "quantum.ccr_reduce": _ccr_counts,
    "_kernels.functional_gradient": _gradient_counts,
}

# functions whose peak traced allocation per call is recorded
ALLOCATIONS = ("_kernels.functional_gradient",)


class Tracer:
    def __init__(self):
        self.recording = False
        self.stats = defaultdict(lambda: defaultdict(float))
        self._stack = []  # child time accumulated per open span
        self._installed = []

    # -- op boundary ---------------------------------------------------------

    def begin_op(self):
        self.recording = True

    def end_op(self):
        self.recording = False

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer module of hamalg."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hamalg"
                                         or name.startswith("hamalg."))]
        for layer in LAYERS:
            mod = sys.modules[f"hamalg.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, name, wrapped)
                            self._installed.append((m, name, fn))

    def uninstall(self) -> None:
        for m, name, fn in reversed(self._installed):
            setattr(m, name, fn)
        self._installed.clear()

    def _wrap(self, key, fn):
        count = COUNTERS.get(key)
        alloc = key in ALLOCATIONS
        stats = self.stats[key]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if alloc:
                tracemalloc.start()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                stats["calls"] += 1
                stats["self_s"] += dur - child
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    stats["peak_bytes"] = max(stats["peak_bytes"], peak)
            if count is not None:
                for name, value in count(args, kwargs, result).items():
                    stats[name] += value
            return result

        return wrapper
