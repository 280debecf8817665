"""Span tracer that times layerwave's layers from outside the library.

Each span wraps a name that one layer of ``layerwave`` looks up in another
(``layerwave.forward.eval_batch``, ``layerwave.inverse.enumerate_restricted``,
...).  The wrapper replaces the attribute on the calling module, found
through ``sys.modules`` because the package attribute ``layerwave.forward``
is the function, not the module.  A span's self time is its duration minus
the time of the spans it encloses.

A wrapped name that has disappeared makes :func:`Tracer.install` fail with
:class:`TraceError`; a span the workload is known to enter but never did
makes :func:`Tracer.require` fail.  Neither case can read as a zero time.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter


class TraceError(RuntimeError):
    """The program no longer has a name the tracer wraps, or never calls it."""


def _count_forward(counts, args, result):
    data, em = result
    counts["forward.arrivals"] += len(data)
    counts["forward.merged_vectors"] += len(em.lattice) - len(data)


def _count_invert(counts, args, result):
    data = args[0]
    rejected = len(result.rejected_arrivals)
    counts["inverse.rejections"] += rejected
    # Stage I explains every arrival but the first two and the rejected
    counts["inverse.explained"] += len(data) - 2 - rejected


def _count_correct(counts, args, result):
    _, sets = result
    counts["inverse.ratio_votes"] += sum(len(v) for v in sets.ratios.values())


#: span name -> hook(counts, args, result) recording work counts
HOOKS = {
    "forward": _count_forward,
    "amplitude.eval": lambda c, a, r: c.update({"amplitude.evals": len(a[1])}),
    "lattice.enumerate": lambda c, a, r: c.update({"lattice.vectors": len(r)}),
    "lattice.restricted": lambda c, a, r: c.update(
        {"lattice.restricted_vectors": len(r)}),
    "inverse.invert": _count_invert,
    "inverse.correct": _count_correct,
}

#: (calling module, attribute it calls, span name)
WRAPPED = (
    ("layerwave.forward", "enumerate_lattice_set", "lattice.enumerate"),
    ("layerwave.forward", "eval_batch", "amplitude.eval"),
    ("layerwave.forward", "cluster_sorted", "core.cluster"),
    ("layerwave.core", "cluster_sorted", "core.cluster"),
    ("layerwave.inverse", "enumerate_restricted", "lattice.restricted"),
    ("layerwave.inverse", "enumerate_lattice_set", "lattice.enumerate"),
    ("layerwave.inverse", "redundancy_pairs", "inverse.redundancy_pairs"),
    ("layerwave.inverse", "consensus", "inverse.consensus"),
    ("layerwave.perturb", "normalize", "core.normalize"),
    ("layerwave.perturb", "sine_distort", "perturb.sine"),
    ("layerwave.cli", "invert", "inverse.invert"),
    ("layerwave.cli", "correct_reflectivity", "inverse.correct"),
    ("layerwave.cli", "data_from_dict", "core.json"),
    ("layerwave.cli", "data_to_dict", "core.json"),
    ("layerwave.cli", "model_from_dict", "core.json"),
    ("layerwave.cli", "model_to_dict", "core.json"),
)


class Tracer:
    """Per-span call counts and self seconds, and work counts.

    Disabled, :meth:`call` is a plain call; enabled, it records a span.
    """

    def __init__(self):
        self.enabled = False
        self.calls: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._children: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def call(self, span, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        self._children.append(0.0)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            child = self._children.pop()
            self.calls[span] += 1
            self.self_time[span] += elapsed - child
            if self._children:
                self._children[-1] += elapsed
        hook = HOOKS.get(span)
        if hook is not None:
            hook(self.counts, args, result)
        return result

    def install(self):
        """Wrap every name in :data:`WRAPPED`; raise if one is missing."""
        missing = []
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(module_name)
            if not callable(getattr(module, attr, None)):
                missing.append(f"{module_name}.{attr} (span {span})")
        if missing:
            raise TraceError(
                "cannot trace: " + ", ".join(missing) + " no longer exist; "
                "update WRAPPED in perfbench/spans.py so that no layer "
                "reads as zero time")
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrap(self, span, fn):
        def wrapper(*args, **kwargs):
            return self.call(span, fn, *args, **kwargs)
        return wrapper

    def require(self, spans):
        """Fail unless every named span was entered at least once."""
        never = sorted(s for s in spans if not self.calls[s])
        if never:
            raise TraceError(
                "spans never entered: " + ", ".join(never) + "; the program "
                "no longer calls the wrapped name, so its layer would read "
                "as zero time")
