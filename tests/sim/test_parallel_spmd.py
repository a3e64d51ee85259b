"""Tests for multi-process SPMD execution."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.hpcrun.counters import CYCLES
from repro.sim.parallel import (
    resolve_factory,
    run_spmd_parallel,
    spmd_experiment_parallel,
)
from repro.sim.spmd import run_spmd
from repro.sim.workloads import pflotran

FACTORY = "repro.sim.workloads.pflotran:build"


class TestFactoryResolution:
    def test_resolves(self):
        assert resolve_factory(FACTORY) is pflotran.build

    @pytest.mark.parametrize("bad", ["", "no-colon", "repro.sim:", ":build",
                                     "not.a.module:build",
                                     "repro.sim.workloads.pflotran:missing"])
    def test_rejects_bad_references(self, bad):
        with pytest.raises(SimulationError):
            resolve_factory(bad)


class TestParallelExecution:
    def test_matches_sequential_results(self):
        """Worker-process execution must reproduce in-process profiles
        exactly: same trie, same totals, rank by rank."""
        nranks = 4
        sequential = run_spmd(pflotran.build(), nranks, seed=7)
        parallel = run_spmd_parallel(FACTORY, nranks, seed=7, processes=2)
        assert len(parallel) == nranks
        for seq, par in zip(sequential, parallel):
            assert par.rank == seq.rank
            assert par.totals() == pytest.approx(seq.totals())
            seq_paths = sorted(
                (tuple(f.key for f in frames), line, tuple(sorted(costs.items())))
                for frames, line, costs in seq.paths()
            )
            par_paths = sorted(
                (tuple(f.key for f in frames), line, tuple(sorted(costs.items())))
                for frames, line, costs in par.paths()
            )
            assert len(seq_paths) == len(par_paths)
            for (sk, sl, sc), (pk, pl, pc) in zip(seq_paths, par_paths):
                assert sk == pk and sl == pl
                assert dict(sc) == pytest.approx(dict(pc))

    def test_experiment_assembly(self):
        # 8+ ranks: fewer and the heterogeneity field's correlation window
        # covers every rank, flattening the imbalance to zero idleness
        exp = spmd_experiment_parallel(FACTORY, nranks=8, processes=2)
        assert exp.nranks == 8
        assert "(mp)" in exp.name
        result = exp.hot_path(pflotran.IDLENESS)
        assert any(n.name.startswith("loop at timestepper")
                   for n in result.path)

    def test_single_process_fallback(self):
        profiles = run_spmd_parallel(FACTORY, nranks=2, processes=1)
        assert len(profiles) == 2

    def test_invalid_nranks(self):
        with pytest.raises(SimulationError):
            run_spmd_parallel(FACTORY, nranks=0)
