"""Tests for statistical summarization (Moments, summary metrics)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import MetricError
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.summarize import Moments, imbalance_factor, summarize_ranks
from tests.hpcprof.test_merge import make_rank_program


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
