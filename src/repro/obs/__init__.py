"""Self-profiling observability for the toolkit and its server.

The paper argues that performance becomes actionable when presented as
calling-context, callers, and flat views; this package applies that
argument to the reproduction itself:

* :mod:`repro.obs.spans` — a low-overhead in-process span tracer
  (near-zero cost when disabled) recording per-request, per-stage
  timings into a calling-context trie, plus ambient trace ids;
* :mod:`repro.obs.export` — turns recorded spans into a regular
  experiment database (framed v2 binary) that ``repro-view`` and
  ``repro-serve`` open like any profiled application;
* :mod:`repro.obs.promexport` — Prometheus text exposition for the
  server's ``GET /metrics`` endpoint;
* :mod:`repro.obs.slowlog` — a bounded slow-request log keyed by
  trace id;
* :mod:`repro.obs.gcstats` — garbage-collector collections, freed
  objects and pause time per generation (its hook is registered on
  import), optionally booked as ``gc`` spans.

Dogfooding loop::

    repro-serve fig1.rpdb --self-profile self.rpdb   # serve traffic
    repro-view self.rpdb --view all                  # inspect the server
"""

from repro.obs.export import save_self_profile, tracer_experiment, tracer_profile
from repro.obs.gcstats import gc_stats, register as _register_gc_hook
from repro.obs.promexport import Histogram
from repro.obs.slowlog import SlowLog
from repro.obs.spans import (
    SpanTracer,
    current_trace_id,
    current_tracer,
    install,
    reset_trace_id,
    set_trace_id,
    span,
    uninstall,
)

__all__ = [
    "Histogram",
    "SlowLog",
    "SpanTracer",
    "current_trace_id",
    "current_tracer",
    "gc_stats",
    "install",
    "reset_trace_id",
    "save_self_profile",
    "set_trace_id",
    "span",
    "tracer_experiment",
    "tracer_profile",
    "uninstall",
]

_register_gc_hook()
