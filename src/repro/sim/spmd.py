"""SPMD execution of synthetic programs — the parallel-measurement substrate.

Runs one :class:`~repro.sim.program.Program` once per simulated MPI rank
(each rank sees its ``rank``/``nranks`` in the :class:`ExecContext`, so
workloads can model data decomposition and load imbalance), producing the
same set of per-rank call path profiles ``hpcrun`` would write for a real
MPI job.  The profiles then flow through the standard post-mortem
pipeline: per-rank correlation, merging, and statistical summarization.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SimulationError
from repro.hpcprof.experiment import Experiment
from repro.hpcrun.profile_data import ProfileData
from repro.hpcstruct.synthstruct import build_structure
from repro.sim.executor import execute, execute_trace
from repro.sim.program import Program

__all__ = ["run_spmd", "spmd_experiment", "trace_spmd"]


def run_spmd(
    program: Program,
    nranks: int,
    params: dict | None = None,
    seed: int = 12345,
) -> list[ProfileData]:
    """Execute *program* on ``nranks`` simulated ranks; per-rank profiles."""
    if nranks < 1:
        raise SimulationError(f"nranks must be >= 1, got {nranks}")
    return [
        execute(program, rank=rank, nranks=nranks, params=params, seed=seed)
        for rank in range(nranks)
    ]


def spmd_experiment(
    program: Program,
    nranks: int,
    params: dict | None = None,
    seed: int = 12345,
    name: str = "",
) -> Experiment:
    """Run SPMD and assemble the merged experiment in one step."""
    profiles = run_spmd(program, nranks, params=params, seed=seed)
    structure = build_structure(program)
    return Experiment.from_profiles(
        profiles, structure, name=name or f"{program.name} x{nranks}"
    )


def trace_spmd(
    program: Program,
    nranks: int,
    params: dict | None = None,
    seed: int = 12345,
    name: str = "",
    time_metric: str | None = None,
    time_scale: float = 1.0,
    trace_slices: int = 1,
):
    """Execute *program* in trace mode on every rank; one
    :class:`~repro.trace.model.TraceSet`.

    Each rank runs its own simulated clock from zero, so rank-dependent
    costs show up directly as skewed timelines (late-rank idleness) and
    the program's sequential statement order shows up as phases.
    ``traces.window_experiment(None, None)`` goes through the same
    :meth:`~repro.hpcprof.experiment.Experiment.from_profiles` as
    :func:`spmd_experiment`: it has the untimed run's scopes, with each
    cost quantized to integer ticks of its metric's resolution.
    """
    from repro.trace.model import TraceSet

    if nranks < 1:
        raise SimulationError(f"nranks must be >= 1, got {nranks}")
    traces = [
        execute_trace(
            program,
            rank=rank,
            nranks=nranks,
            params=params,
            seed=seed,
            time_metric=time_metric,
            time_scale=time_scale,
            trace_slices=trace_slices,
        )
        for rank in range(nranks)
    ]
    structure = build_structure(program)
    return TraceSet(
        traces, structure, name=name or f"{program.name} x{nranks} trace"
    )
