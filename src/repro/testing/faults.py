"""Seedable fault plans: the deterministic chaos vocabulary.

A :class:`FaultPlan` names one fault to inject — a byte-level corruption
of a serialized database, an exception thrown from inside a pipeline
stage, or a simulated slowdown — plus the seed-derived parameters that
make it reproducible.  The chaos suite generates hundreds of plans from
a base seed (:func:`fault_plans`), applies each
(:func:`apply_fault`, :func:`patched`), and asserts the system-wide
invariants: structured errors only, no tainted caches, salvage never
crashes.  A failing case is reproduced by its plan's ``describe()``
string alone; nothing depends on wall-clock time or global RNG state.

The injectors are deliberately tiny and stdlib-only:

* :func:`bit_flip` / :func:`truncate` / :func:`apply_fault` — byte-level
  corruption of a serialized database;
* :func:`frame_boundaries` — the v2 section-frame offsets of a database,
  for exhaustive boundary truncation;
* :func:`replace_section` — swap one v2 section's payload, re-framed
  with a valid CRC, for crafted corruption the checksums cannot see;
* :func:`patched` — a context-managed attribute swap (monkeypatching
  without pytest, usable inside helper processes and Hypothesis bodies);
* :func:`failing` / :func:`flaky` — callables that raise (always, or the
  first *n* times) to inject exceptions inside view construction;
* :func:`slow_call` — wrap a function with a simulated slow stage that
  cooperates with the deadline watchdog via ``checkpoint()``;
* :class:`FakeClock` — a manually-advanced monotonic clock for
  deterministic deadline-expiry and TTL-eviction tests;
* :func:`crash_point` / :func:`crashing_at` / :data:`REPRO_CRASH_POINT`
  — named kill-anywhere crash points inside multi-step state
  transitions (corpus ingest/compact/evict), either hard-killing the
  process via an environment variable (real ``SIGKILL`` batteries) or
  raising :class:`CrashPointHit` in-process (fast batteries that leave
  the identical on-disk state).
"""

from __future__ import annotations

import os
import random
import signal
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.hpcprof import binio

__all__ = [
    "FAULT_KINDS",
    "CrashPointHit",
    "FakeClock",
    "FaultPlan",
    "REPRO_CRASH_POINT",
    "apply_fault",
    "bit_flip",
    "crash_point",
    "crash_points",
    "crashing_at",
    "failing",
    "fault_plans",
    "flaky",
    "frame_boundaries",
    "patched",
    "register_crash_points",
    "replace_section",
    "slow_call",
    "truncate",
]

#: the fault vocabulary; ``fault_plans`` cycles through these
FAULT_KINDS = (
    "bit-flip",       # flip one bit somewhere in the database bytes
    "truncate",       # cut the database at an arbitrary offset
    "truncate-frame", # cut the database exactly at a section boundary
    "garble-run",     # overwrite a short run of bytes with noise
    "exception",      # raise from inside view construction
    "slow-render",    # make a render stage consume the request deadline
)


# --------------------------------------------------------------------- #
# byte-level corruption primitives
# --------------------------------------------------------------------- #
def bit_flip(data: bytes, offset: int, bit: int = 0) -> bytes:
    """*data* with bit *bit* of byte *offset* inverted."""
    if not 0 <= offset < len(data):
        raise ValueError(f"offset {offset} outside [0, {len(data)})")
    out = bytearray(data)
    out[offset] ^= 1 << (bit & 7)
    return bytes(out)


def truncate(data: bytes, offset: int) -> bytes:
    """The first *offset* bytes of *data* (a torn write / short read)."""
    return data[: max(0, offset)]


def frame_boundaries(data: bytes) -> list[int]:
    """Every v2 frame-boundary offset of *data*, ends inclusive.

    Truncating at any returned offset tears the database exactly
    between or inside section frames — the cut points salvage promises
    to recover a validated prefix from.
    """
    offsets: set[int] = {0, len(data)}
    for _sid, header, payload, end in binio.section_frames(data):
        offsets.update((header, payload, end))
    return sorted(o for o in offsets if 0 <= o <= len(data))


def replace_section(data: bytes, section_id: int, payload: bytes) -> bytes:
    """*data* with one v2 section's payload swapped for *payload*.

    The frame gets the new length and a matching CRC, so the result is
    a well-framed stream whose corruption only a semantic check can
    catch — the crafted inputs that probe what the strict loader and
    the salvage report agree on.
    """
    out = bytearray(data[:6])
    for sid, header, payload_at, end in binio.section_frames(data):
        body = payload if sid == section_id else data[payload_at:end]
        out += binio._FRAME_HEADER.pack(sid, len(body), zlib.crc32(body))
        out += body
    return bytes(out)


# --------------------------------------------------------------------- #
# fault plans
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultPlan:
    """One reproducible fault: a kind plus seed-derived parameters.

    ``position`` and ``magnitude`` are unit-interval floats scaled to
    the target at application time (a byte offset within the database,
    a run length, a delay fraction), so one plan applies meaningfully
    to databases of any size.
    """

    seed: int
    kind: str
    position: float
    magnitude: float
    bit: int

    def describe(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, kind={self.kind!r}, "
            f"position={self.position:.6f}, magnitude={self.magnitude:.6f}, "
            f"bit={self.bit})"
        )


def fault_plans(n: int, base_seed: int = 0xC0FFEE) -> list[FaultPlan]:
    """*n* deterministic plans cycling the fault vocabulary.

    Same ``(n, base_seed)`` → byte-identical plan list, on any machine;
    each plan's own parameters come from an RNG seeded with
    ``base_seed + index`` so a single plan regenerates without the rest.
    """
    plans = []
    for index in range(n):
        rng = random.Random(base_seed + index)
        plans.append(
            FaultPlan(
                seed=base_seed + index,
                kind=FAULT_KINDS[index % len(FAULT_KINDS)],
                position=rng.random(),
                magnitude=rng.random(),
                bit=rng.randrange(8),
            )
        )
    return plans


def apply_fault(data: bytes, plan: FaultPlan) -> bytes:
    """Corrupt *data* per *plan* (byte-level kinds only).

    Non-byte kinds (``exception``, ``slow-render``) return *data*
    unchanged — those faults are injected at the pipeline layer with
    :func:`patched`, not into the serialized form.
    """
    if not data:
        return data
    offset = min(len(data) - 1, int(plan.position * len(data)))
    if plan.kind == "bit-flip":
        return bit_flip(data, offset, plan.bit)
    if plan.kind == "truncate":
        return truncate(data, offset)
    if plan.kind == "truncate-frame":
        cuts = frame_boundaries(data)
        return truncate(data, cuts[min(len(cuts) - 1, int(plan.position * len(cuts)))])
    if plan.kind == "garble-run":
        run = 1 + int(plan.magnitude * 16)
        rng = random.Random(plan.seed)
        out = bytearray(data)
        for i in range(offset, min(len(out), offset + run)):
            out[i] = rng.randrange(256)
        return bytes(out)
    return data


# --------------------------------------------------------------------- #
# pipeline-level injection
# --------------------------------------------------------------------- #
@contextmanager
def patched(target: object, name: str, value: object):
    """Swap ``target.name`` for *value* inside the block, then restore.

    Monkeypatching without pytest: usable inside Hypothesis bodies,
    nested context stacks, and plain scripts.
    """
    sentinel = object()
    original = getattr(target, name, sentinel)
    setattr(target, name, value)
    try:
        yield
    finally:
        if original is sentinel:
            delattr(target, name)
        else:
            setattr(target, name, original)


def failing(exc: Exception | type[Exception]) -> Callable:
    """A callable that always raises *exc* (any signature)."""

    def _fail(*args, **kwargs):
        raise exc if isinstance(exc, Exception) else exc()

    return _fail


def flaky(fn: Callable, failures: int, exc: type[Exception] = RuntimeError) -> Callable:
    """Wrap *fn* to raise for its first *failures* calls, then pass through.

    The retry-client tests use this as a scripted transport: shed twice,
    then succeed.
    """
    remaining = [failures]

    def _flaky(*args, **kwargs):
        if remaining[0] > 0:
            remaining[0] -= 1
            raise exc(f"injected failure ({remaining[0]} more to come)")
        return fn(*args, **kwargs)

    return _flaky


def slow_call(
    fn: Callable,
    clock: "FakeClock",
    cost_s: float,
    steps: int = 10,
    what: str = "slow stage",
) -> Callable:
    """Wrap *fn* as a cooperative slow stage (simulated slow I/O).

    Each call advances *clock* by ``cost_s`` in *steps* increments,
    calling :func:`repro.server.deadline.checkpoint` between increments —
    exactly how a well-behaved long-running stage yields to the
    watchdog.  With a request deadline installed on the same clock, the
    call aborts mid-"I/O" with ``DeadlineExceeded`` once the budget is
    spent; without one, it completes and delegates to *fn*.
    """
    from repro.server.deadline import checkpoint

    def _slow(*args, **kwargs):
        for _ in range(steps):
            clock.advance(cost_s / steps)
            checkpoint(what)
        return fn(*args, **kwargs)

    return _slow


# --------------------------------------------------------------------- #
# named crash points (kill-anywhere batteries)
# --------------------------------------------------------------------- #
#: environment variable naming the crash point at which the process
#: hard-kills itself (``SIGKILL`` — no cleanup handlers, no flushing),
#: exactly like an external ``kill -9`` landing at that instruction.
REPRO_CRASH_POINT = "REPRO_CRASH_POINT"

#: every crash-point name declared via :func:`register_crash_points`;
#: batteries iterate this so new points are covered automatically.
_CRASH_POINTS: set[str] = set()

#: in-process crash handler installed by :func:`crashing_at` (or ``None``)
_crash_handler: Callable[[str], None] | None = None


class CrashPointHit(BaseException):
    """In-process stand-in for ``kill -9`` at a named crash point.

    Derives from ``BaseException`` so no ``except Exception`` cleanup
    path can swallow it — from the moment it is raised, the on-disk
    state is identical to a real ``SIGKILL`` at that instruction.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.name = name


def register_crash_points(*names: str) -> None:
    """Declare crash-point names so batteries can enumerate them."""
    _CRASH_POINTS.update(names)


def crash_points(prefix: str = "") -> list[str]:
    """All registered crash-point names, optionally filtered by prefix."""
    return sorted(n for n in _CRASH_POINTS if n.startswith(prefix))


def crash_point(name: str) -> None:
    """Die here if this crash point is armed; otherwise a no-op.

    Two arming mechanisms, checked in order:

    1. an in-process handler installed by :func:`crashing_at` — raises
       :class:`CrashPointHit` (fast batteries, hundreds of crashes per
       second, identical on-disk state to a kill);
    2. the :data:`REPRO_CRASH_POINT` environment variable — the process
       sends itself ``SIGKILL`` (subprocess batteries and the tier-1
       smoke stage, exercising the real no-cleanup path).
    """
    handler = _crash_handler
    if handler is not None:
        handler(name)
        return
    if os.environ.get(REPRO_CRASH_POINT) == name:
        os.kill(os.getpid(), signal.SIGKILL)


@contextmanager
def crashing_at(name: str) -> Iterator[None]:
    """Arm *name* in-process for the block: reaching it raises
    :class:`CrashPointHit`."""
    global _crash_handler

    def _hit(reached: str) -> None:
        if reached == name:
            raise CrashPointHit(reached)

    previous = _crash_handler
    _crash_handler = _hit
    try:
        yield
    finally:
        _crash_handler = previous


class FakeClock:
    """A monotonic clock advanced by hand; drop-in for ``time.monotonic``."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError("clocks only move forward")
        self.now += dt
        return self.now
