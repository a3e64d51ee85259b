"""Experiment §VI-A: scaling-loss derived metric (scale and difference).

The paper pinpoints scalability bottlenecks by scaling and differencing
call path profiles from a pair of executions [Coarfa et al.].  We run the
PFLOTRAN model at two scales with a deliberately non-scaling component
(the synchronization idleness grows with rank count), align the pair
into a two-member ensemble and take its diff ``big - (big/small) *
small`` per context (:meth:`repro.core.ensemble.EnsembleView.diff`).
The diff experiment's cycles are the scaling loss; we check it lands on
the synchronization contexts rather than the compute kernels.  Neither
run is modified.
"""

from __future__ import annotations

from repro.core.ensemble import align_experiments
from repro.experiments.report import ExperimentReport
from repro.hpcrun.counters import CYCLES
from repro.sim.spmd import spmd_experiment
from repro.sim.workloads import pflotran

__all__ = ["run", "build_pair"]


def build_pair(small: int = 8, big: int = 32):
    """Two weak-scaled runs: same per-rank grid, different rank counts."""
    base = {"nx": 40, "ny": 40, "nz": 8}
    exp_small = spmd_experiment(
        pflotran.build(), nranks=small,
        params={**base, "nx": base["nx"] * small},
    )
    exp_big = spmd_experiment(
        pflotran.build(), nranks=big,
        params={**base, "nx": base["nx"] * big},
    )
    return exp_small, exp_big


def run(small: int = 8, big: int = 32) -> ExperimentReport:
    exp_small, exp_big = build_pair(small, big)
    report = ExperimentReport(
        "§VI-A", f"Scaling loss by scale-and-difference ({small} -> {big} ranks)"
    )

    # weak scaling: a perfectly scaling code costs (big/small)x the total
    loss = align_experiments([exp_small, exp_big]).diff(
        0, 1, factor=big / small,
    )
    mid = loss.metric_id(CYCLES)
    total_loss = loss.total(CYCLES)
    total_big = exp_big.total(CYCLES)
    report.add("scaling loss share of big-run cycles", None,
               100 * total_loss / total_big, unit="%")

    # the loss must sort synchronization above the compute kernels
    callers = loss.callers_view()

    def loss_of(name: str) -> float:
        row = next(r for r in callers.roots if r.name == name)
        return row.inclusive.get(mid, 0.0)

    sync_loss = loss_of("MPI_Allreduce")
    matmult_loss = loss_of("MatMult")
    report.add("loss at MPI_Allreduce > loss at MatMult", "yes",
               "yes" if sync_loss > abs(matmult_loss) else "no", tolerance=0.0)
    report.add("MPI_Allreduce share of total loss", None,
               100 * sync_loss / total_loss if total_loss else 0.0, unit="%")
    report.note(
        "Imbalance-induced idleness grows with rank count in the model, so "
        "the derived metric isolates it in context — the paper's workflow "
        "for pinpointing scalability bottlenecks."
    )
    return report
