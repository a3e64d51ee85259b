"""Deterministic fault injection for the resilience test suites.

Everything here is seed-driven and free of wall-clock dependence, so a
failing chaos run reproduces from its seed alone.  See
:mod:`repro.testing.faults`.
"""

from repro.testing.faults import (
    FakeClock,
    FaultPlan,
    apply_fault,
    bit_flip,
    failing,
    fault_plans,
    flaky,
    frame_boundaries,
    patched,
    replace_section,
    slow_call,
    truncate,
)

__all__ = [
    "FakeClock",
    "FaultPlan",
    "apply_fault",
    "bit_flip",
    "failing",
    "fault_plans",
    "flaky",
    "frame_boundaries",
    "patched",
    "replace_section",
    "slow_call",
    "truncate",
]
