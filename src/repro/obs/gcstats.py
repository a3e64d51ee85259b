"""Garbage-collector accounting: collections, freed objects and pauses.

CPython's cyclic collector stops the thread that triggers it for as
long as it traverses the generation it collects; a full collection
traverses the whole live heap.  Without accounting, that pause is
charged to whichever span happens to be open.  One :data:`gc.callbacks`
hook, registered when :mod:`repro.obs` is imported, counts per
generation:

* ``collections`` — collections run;
* ``collected`` — objects they freed (cyclic garbage);
* ``pause_s`` — seconds spent inside them.

:func:`gc_stats` snapshots the counters; the server exposes them in
``GET /v1/stats`` and ``GET /v1/metrics``.  While a
:class:`~repro.obs.spans.SpanTracer` is installed, each pause is also
booked as a ``gc`` child of the open span, timed with the tracer's
clock, so the self-profile shows collector time as its own ``obs://gc``
row instead of inflating the span it interrupted.

The hook only observes: it never changes when or how often the
collector runs.
"""

from __future__ import annotations

import gc
import os
import time

from repro.obs import spans

__all__ = ["GENERATIONS", "gc_stats", "register"]

#: the collector's generations, youngest first
GENERATIONS = ("gen0", "gen1", "gen2")

_collections = [0, 0, 0]
_collected = [0, 0, 0]
_pause_s = [0.0, 0.0, 0.0]

#: the collection in progress: ``(start, tracer, tracer clock at start)``;
#: collections never overlap (the collector does not re-enter itself)
_pending: tuple = (0.0, None, 0.0)


def _on_gc(phase: str, info: dict) -> None:
    global _pending
    if phase == "start":
        tracer = spans._tracer
        if tracer is not None:
            _pending = (time.perf_counter(), tracer, tracer.clock())
        else:
            _pending = (time.perf_counter(), None, 0.0)
        return
    start, tracer, tracer_start = _pending
    gen = info["generation"]
    _collections[gen] += 1
    _collected[gen] += info["collected"]
    _pause_s[gen] += time.perf_counter() - start
    if tracer is not None:
        tracer.add_child("gc", tracer.clock() - tracer_start)


def _reset() -> None:
    for counters in (_collections, _collected):
        counters[:] = [0, 0, 0]
    _pause_s[:] = [0.0, 0.0, 0.0]


def register() -> None:
    """Register the hook (once; later calls do nothing).

    The counters are per process: a forked child (a pool worker) starts
    from zero, so summing the workers' counters counts each collection
    once.
    """
    if _on_gc not in gc.callbacks:
        gc.callbacks.append(_on_gc)
        os.register_at_fork(after_in_child=_reset)


def gc_stats() -> dict[str, dict[str, float]]:
    """The counters so far, per generation (``gen0`` … ``gen2``)."""
    return {
        name: {
            "collections": _collections[gen],
            "collected": _collected[gen],
            "pause_s": _pause_s[gen],
        }
        for gen, name in enumerate(GENERATIONS)
    }
