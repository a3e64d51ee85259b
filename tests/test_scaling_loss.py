"""§VI-A scaling loss, pinned bit for bit.

``build_pair(8, 32)`` weak-scales PFLOTRAN from 8 to 32 ranks; with
factor 4.0 the loss is ``big - 4 * small`` per context.  The values are
``float.hex`` strings, so any change in how the difference is formed or
attributed shows here.  The loss is the cycles of the pair's ensemble
diff, as :func:`repro.experiments.scaling_loss.run` computes it.
"""

from __future__ import annotations

import pytest

from repro.core.ensemble import align_experiments
from repro.experiments import scaling_loss
from repro.hpcrun.counters import CYCLES

FACTOR = 4.0

ROOT_LOSS = "0x1.3333333333343p+12"

#: inclusive loss of every Callers View root, by procedure name
CALLERS_LOSS = {
    "pflotran_main": "0x1.3333333333343p+12",
    "timestepper_run": "0x1.3333333333343p+12",
    "flow_solve": "0x1.333333333333bp+12",
    "SNESSolve": "0x1.333333333333bp+12",
    "KSPSolve": "0x1.333333333333ap+12",
    "MatMult": "0x0.0p+0",
    "MPI_Allreduce": "0x1.333333333333ap+12",
    "reactive_transport_step": "0x1.0000000000000p-37",
}


@pytest.fixture(scope="module")
def loss():
    """``(root loss, {callers root name: loss})`` at (8, 32), factor 4."""
    exp_small, exp_big = scaling_loss.build_pair(8, 32)
    diff = align_experiments([exp_small, exp_big]).diff(0, 1, factor=FACTOR)
    mid = diff.metric_id(CYCLES)
    root = diff.cct.root.inclusive.get(mid, 0.0)
    callers = {
        row.name: row.inclusive.get(mid, 0.0)
        for row in diff.callers_view().roots
    }
    return root, callers


def test_root_loss_is_pinned(loss):
    root, _ = loss
    assert root.hex() == ROOT_LOSS


def test_callers_root_losses_are_pinned(loss):
    _, callers = loss
    assert {name: value.hex() for name, value in callers.items()} == (
        CALLERS_LOSS
    )
