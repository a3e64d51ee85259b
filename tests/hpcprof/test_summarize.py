"""Tests for statistical summarization (RowMoments, summary metrics)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import MetricError
from repro.hpcprof.experiment import Experiment
from repro.core.cct import CCT
from repro.core.metrics import MetricTable
from repro.hpcprof.merge import collect_rank_matrix, merge_ccts
from repro.hpcprof.summarize import (
    RowMoments,
    imbalance_factor,
    summarize_ranks,
)
from repro.sim.spmd import spmd_experiment
from repro.sim.workloads import pflotran
from tests.hpcprof.test_merge import make_rank_program, rank_ccts  # noqa: F401
from tests.oracles import Moments


class TestMoments:
    def test_basic_statistics(self):
        m = Moments.of([1.0, 2.0, 3.0, 4.0])
        assert m.count == 4
        assert m.mean == 2.5
        assert m.minimum == 1.0
        assert m.maximum == 4.0
        assert m.stddev == pytest.approx(np.std([1, 2, 3, 4]))

    def test_single_value(self):
        m = Moments.of([7.0])
        assert m.mean == 7.0
        assert m.stddev == 0.0

    def test_empty(self):
        m = Moments()
        assert m.count == 0
        assert m.variance == 0.0

    def test_merge_matches_batch(self):
        a = Moments.of([1.0, 5.0, 2.0])
        b = Moments.of([8.0, 3.0])
        a.merge(b)
        ref = Moments.of([1.0, 5.0, 2.0, 8.0, 3.0])
        assert a.count == ref.count
        assert a.mean == pytest.approx(ref.mean)
        assert a.m2 == pytest.approx(ref.m2)
        assert a.minimum == ref.minimum and a.maximum == ref.maximum

    def test_merge_with_empty_is_identity(self):
        a = Moments.of([2.0, 4.0])
        before = (a.count, a.mean, a.m2)
        a.merge(Moments())
        assert (a.count, a.mean, a.m2) == before

        empty = Moments()
        empty.merge(Moments.of([2.0, 4.0]))
        assert empty.mean == 3.0

    def test_total(self):
        assert Moments.of([2.0, 4.0, 6.0]).total == pytest.approx(12.0)


class TestSummarizeRanks:
    @pytest.fixture()
    def experiment(self):
        return Experiment.from_program(make_rank_program(), nranks=4)

    def test_summary_columns_registered(self, experiment):
        ids = experiment.summarize("cycles")
        names = experiment.metrics.names()
        assert "cycles (mean)" in names
        assert "cycles (min)" in names
        assert "cycles (max)" in names
        assert "cycles (stddev)" in names
        assert len(set(ids.all())) == 4

    def test_summary_values_at_root(self, experiment):
        ids = experiment.summarize("cycles")
        root = experiment.cct.root
        # rank inclusive totals are 20, 40, 60, 80
        assert root.inclusive[ids.mean] == 50.0
        assert root.inclusive[ids.minimum] == 20.0
        assert root.inclusive[ids.maximum] == 80.0
        assert root.inclusive[ids.stddev] == pytest.approx(np.std([20, 40, 60, 80]))

    def test_summarize_is_idempotent(self, experiment):
        first = experiment.summarize("cycles")
        second = experiment.summarize("cycles")
        assert first == second
        assert experiment.metrics.names().count("cycles (mean)") == 1

    def test_serial_experiment_rejects_summarize(self):
        exp = Experiment.from_program(make_rank_program(), nranks=1)
        with pytest.raises(Exception):
            exp.summarize("cycles")

    def test_summary_replaces_per_rank_storage(self, experiment):
        """The summary costs O(4) per scope regardless of rank count."""
        ids = experiment.summarize("cycles")
        root = experiment.cct.root
        summary_keys = [k for k in root.inclusive if k in ids.all()]
        assert len(summary_keys) == 4


class TestRowMoments:
    @pytest.fixture(scope="class")
    def matrix64(self):
        exp = spmd_experiment(pflotran.build(), nranks=64)
        _nodes, matrix = collect_rank_matrix(exp.cct, exp.rank_ccts, 0)
        return matrix

    def test_matches_scalar_accumulator(self, matrix64):
        """Stepping rank columns equals the scalar Welford oracle per row,
        bit for bit."""
        moments = RowMoments.of(matrix64.T)
        assert moments.count == 64
        for row in range(0, matrix64.shape[0], 7):
            reference = Moments.of(matrix64[row])
            assert (moments.mean[row], moments.m2[row], moments.minimum[row],
                    moments.maximum[row]) == (
                reference.mean, reference.m2, reference.minimum,
                reference.maximum)
            assert moments.stddev[row] == reference.stddev

    def test_matches_numpy_closely(self, matrix64):
        """Welford vs. numpy's pairwise axis kernels: the same statistics
        up to rounding (they sum in different orders by design)."""
        moments = RowMoments.of(matrix64.T)
        assert moments.mean == pytest.approx(matrix64.mean(axis=1), rel=1e-12)
        assert np.array_equal(moments.minimum, matrix64.min(axis=1))
        assert np.array_equal(moments.maximum, matrix64.max(axis=1))
        assert moments.stddev == pytest.approx(
            matrix64.std(axis=1), rel=1e-9, abs=1e-12
        )
        assert np.array_equal(moments.nonzero, np.any(matrix64 != 0.0, axis=1))


class TestSummarizeRanksDirect:
    def test_rejects_no_ranks(self):
        with pytest.raises(MetricError):
            summarize_ranks(CCT(), [], MetricTable(), 0)

    def test_sparse_scope_averages_over_all_ranks(self, rank_ccts):
        """A scope present in one rank only averages over ALL ranks: the
        rank that lacks it contributes a 0."""
        combined = merge_ccts(rank_ccts[:1])
        metrics = MetricTable()
        metrics.add("cycles")
        ids = summarize_ranks(combined, [rank_ccts[0], CCT()], metrics, 0)
        root = combined.root
        value = rank_ccts[0].root.inclusive[0]
        assert root.inclusive[ids.mean] == value / 2
        assert root.inclusive[ids.minimum] == 0.0
        assert root.inclusive[ids.maximum] == value


class TestImbalanceFactor:
    def test_balanced(self):
        assert imbalance_factor(np.array([5.0, 5.0, 5.0])) == 1.0

    def test_imbalanced(self):
        assert imbalance_factor(np.array([1.0, 1.0, 4.0])) == 2.0

    def test_zero_work(self):
        assert imbalance_factor(np.zeros(8)) == 1.0


class TestRankVector:
    def test_rank_vector_for_view_row(self):
        exp = Experiment.from_program(make_rank_program(), nranks=4)
        view = exp.flat_view()
        solve = view.find("solve")
        vec = exp.rank_vector(solve, "cycles")
        assert list(vec) == [20.0, 40.0, 60.0, 80.0]
