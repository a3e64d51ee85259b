"""Low-overhead in-process span tracing — the self-profiling substrate.

The reproduction's whole point is making performance observable through
calling-context trees; this module lets the toolkit observe *itself*.
Instrumented stages (request handling, view construction, engine
kernels, table rendering) wrap themselves in :func:`span`; when a
:class:`SpanTracer` is installed the completed spans accumulate into a
calling-context trie (span-name path → call count and self time) that
:mod:`repro.obs.export` turns into a regular experiment database, so a
served instance's own behaviour renders in the same three views as any
profiled application.

Design constraints, in priority order:

* **disabled cost ≈ zero** — every hook site runs ``span(name)``, which
  with no tracer installed is one global read plus a shared no-op
  context manager (no allocation); production code paths stay clean of
  ``if tracing:`` branches;
* **enabled cost stays small** — per span: two reads of the tracer's
  clock (``perf_counter`` unless one is passed; bound per thread state),
  one list push/pop, and one dict update on thread-local state (no
  locks on the hot path; thread states are merged only at snapshot
  time);
* **self time, not inclusive time** — each frame accumulates the time
  its children took, and records only its own remainder; inclusive
  times are then recovered exactly by the normal CCT attribution pass,
  the same Eq. 1 the paper applies to application profiles.

Trace identifiers ride alongside: :func:`set_trace_id` installs the
current request's id in a context variable, and every structured error
payload and slow-request log line carries it, so one id follows a
request through logs, errors, and (when tracing) its spans.
"""

from __future__ import annotations

import contextvars
import functools
import threading
import time
from typing import Callable, Iterator, Mapping

__all__ = [
    "SpanTracer",
    "current_tracer",
    "current_trace_id",
    "install",
    "reset_trace_id",
    "set_trace_id",
    "span",
    "traced",
    "uninstall",
]

#: the process-wide tracer; ``None`` keeps every hook site on the no-op
#: fast path
_tracer: "SpanTracer | None" = None

_trace_id: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_trace_id", default=None
)


# --------------------------------------------------------------------- #
# trace ids
# --------------------------------------------------------------------- #
def set_trace_id(trace_id: str | None) -> contextvars.Token:
    """Install *trace_id* as the ambient request identity."""
    return _trace_id.set(trace_id)


def current_trace_id() -> str | None:
    """The ambient request's trace id, if one is set."""
    return _trace_id.get()


def reset_trace_id(token: contextvars.Token) -> None:
    """Restore the trace id that *token*'s ``set_trace_id`` replaced."""
    _trace_id.reset(token)


# --------------------------------------------------------------------- #
# span machinery
# --------------------------------------------------------------------- #
class _NullSpan:
    """Shared no-op context manager: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _ThreadState:
    """Per-thread span stack and accumulator (merged at snapshot time)."""

    __slots__ = ("stack", "acc", "clock")

    def __init__(self, clock: Callable[[], float]) -> None:
        #: the owning tracer's clock, bound once so a span reads one slot
        self.clock = clock
        #: active spans, outermost first: [path, start, child_seconds];
        #: the full path tuple is built at push so pop stays allocation-lean
        self.stack: list[list] = []
        #: completed work: span-name path -> [calls, self_seconds]
        self.acc: dict[tuple[str, ...], list[float]] = {}


class _Span:
    """One active span; created only when a tracer is installed."""

    __slots__ = ("_state", "_name")

    def __init__(self, state: _ThreadState, name: str) -> None:
        self._state = state
        self._name = name

    def __enter__(self) -> "_Span":
        state = self._state
        stack = state.stack
        path = (stack[-1][0] + (self._name,)) if stack else (self._name,)
        stack.append([path, state.clock(), 0.0])
        return self

    def __exit__(self, *exc) -> bool:
        state = self._state
        stack = state.stack
        path, start, child_s = stack.pop()
        elapsed = state.clock() - start
        if stack:
            stack[-1][2] += elapsed
        slot = state.acc.get(path)
        if slot is None:
            state.acc[path] = [1.0, elapsed - child_s]
        else:
            slot[0] += 1.0
            slot[1] += elapsed - child_s
        return False


class SpanTracer:
    """Accumulates span paths into a calling-context trie, per thread.

    Thread states register themselves on first use under a lock and are
    merged by :meth:`snapshot`; the recording hot path itself takes no
    lock.  The tracer survives arbitrarily many install/uninstall
    cycles — data accumulates until :meth:`reset`.

    While the tracer is installed, every garbage-collector pause becomes
    a ``gc`` child of the span it interrupted (see
    :mod:`repro.obs.gcstats`).  A collection can start at any allocation,
    including one made under the registry lock, and its ``gc`` span may
    be a thread's first: the lock is reentrant so that registering the
    thread there cannot deadlock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        #: seconds source every span of this tracer reads
        self.clock = clock
        self.started_at = time.time()
        self._registry_lock = threading.RLock()
        self._states: list[_ThreadState] = []
        self._local = threading.local()

    # -- recording ----------------------------------------------------- #
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(self.clock)
            self._local.state = state
            with self._registry_lock:
                self._states.append(state)
        return state

    def span(self, name: str) -> _Span:
        return _Span(self._state(), name)

    def add_child(self, name: str, seconds: float) -> None:
        """Book one completed *name* span of *seconds* under this thread's
        open span (a root span when none is open), taking the time out of
        the open span's self time as a nested span would."""
        state = self._state()
        stack = state.stack
        if stack:
            top = stack[-1]
            top[2] += seconds
            path = top[0] + (name,)
        else:
            path = (name,)
        slot = state.acc.get(path)
        if slot is None:
            state.acc[path] = [1.0, seconds]
        else:
            slot[0] += 1.0
            slot[1] += seconds

    # -- inspection ---------------------------------------------------- #
    def snapshot(self) -> dict[tuple[str, ...], tuple[int, float]]:
        """Merged ``path -> (calls, self_seconds)`` across all threads.

        Threads may still be recording; a dict that grows mid-copy is
        retried a few times, then iterated defensively.  (Export for
        analysis normally happens after the server quiesces, where this
        is exact.)
        """
        with self._registry_lock:
            states = list(self._states)
        merged: dict[tuple[str, ...], list[float]] = {}
        for state in states:
            items: Iterator = ()
            for _attempt in range(4):
                try:
                    items = list(state.acc.items())
                    break
                except RuntimeError:  # pragma: no cover - racing writer
                    continue
            for path, (calls, self_s) in items:
                slot = merged.get(path)
                if slot is None:
                    merged[path] = [calls, self_s]
                else:
                    slot[0] += calls
                    slot[1] += self_s
        return {
            path: (int(calls), self_s)
            for path, (calls, self_s) in merged.items()
        }

    def span_count(self) -> int:
        """Total completed spans across all threads."""
        return sum(calls for calls, _ in self.snapshot().values())

    def reset(self) -> None:
        """Drop all accumulated spans (active stacks are untouched)."""
        with self._registry_lock:
            states = list(self._states)
        for state in states:
            state.acc = {}


# --------------------------------------------------------------------- #
# the process-wide hook
# --------------------------------------------------------------------- #
def install(tracer: SpanTracer | None = None) -> SpanTracer:
    """Install (and return) the process-wide tracer.

    Hook sites all over the toolkit start recording immediately; call
    :func:`uninstall` to return them to the no-op fast path.
    """
    global _tracer
    if tracer is None:
        tracer = SpanTracer()
    _tracer = tracer
    return tracer


def uninstall() -> SpanTracer | None:
    """Remove the process-wide tracer; returns the one removed."""
    global _tracer
    tracer, _tracer = _tracer, None
    return tracer


def current_tracer() -> SpanTracer | None:
    """The installed process-wide tracer, if any."""
    return _tracer


def span(name: str):
    """A context manager timing one stage under the installed tracer.

    The universal hook site::

        with span("engine.scatter"):
            ...

    With no tracer installed this returns a shared no-op object — the
    cost is one global read and an attribute-free ``with`` — so hook
    sites are safe on the hottest paths.
    """
    tracer = _tracer
    if tracer is None:
        return _NULL_SPAN
    return _Span(tracer._state(), name)


def traced(name: str):
    """Decorator form of :func:`span` for whole functions and methods.

    The disabled path is one global read and a direct tail call — used
    on the engine kernels, where wrapping the body in a ``with`` block
    would obscure the numeric code.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = _tracer
            if tracer is None:
                return fn(*args, **kwargs)
            with _Span(tracer._state(), name):
                return fn(*args, **kwargs)
        return wrapper
    return decorate
