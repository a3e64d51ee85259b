"""Tests for the dense metric projection and its vectorized kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MetricError
from repro.hpcprof.dense import DenseMetrics, attribute_dense
from repro.hpcprof.experiment import Experiment
from repro.sim.workloads import fig1, s3d
from repro.sim.workloads.synthetic import uniform_tree


@pytest.fixture(scope="module")
def s3d_exp():
    return Experiment.from_program(s3d.build())


@pytest.fixture(scope="module")
def dense(s3d_exp):
    return DenseMetrics.from_cct(s3d_exp.cct, len(s3d_exp.metrics))


class TestProjection:
    def test_shape_and_preorder(self, s3d_exp, dense):
        n = len(s3d_exp.cct)
        assert dense.raw.shape == (n, 3)
        assert dense.parent_rows[0] == -1
        # preorder: every parent row precedes its children
        assert all(
            dense.parent_rows[row] < row for row in range(1, n)
        )

    def test_matches_sparse_values(self, s3d_exp, dense):
        for node in s3d_exp.cct.walk():
            row = dense.index[node.uid]
            for mid in range(3):
                assert dense.inclusive[row, mid] == node.inclusive.get(mid, 0.0)
                assert dense.exclusive[row, mid] == node.exclusive.get(mid, 0.0)

    def test_invalid_metric_count(self, s3d_exp):
        with pytest.raises(MetricError):
            DenseMetrics.from_cct(s3d_exp.cct, 0)


class TestVectorizedKernels:
    def test_totals(self, s3d_exp, dense):
        totals = dense.totals()
        for mid in range(3):
            assert totals[mid] == s3d_exp.cct.root.inclusive.get(mid, 0.0)

    def test_shares_sum_properties(self, dense):
        shares = dense.shares(0)
        assert shares[0] == 1.0
        assert np.all(shares >= 0) and np.all(shares <= 1.0 + 1e-12)

    def test_top_k_matches_naive(self, s3d_exp, dense):
        top = dense.top_k(0, k=5, exclusive=True)
        naive = sorted(
            ((n, n.exclusive.get(0, 0.0)) for n in s3d_exp.cct.walk()),
            key=lambda t: -t[1],
        )[:5]
        assert [v for _n, v in top] == [v for _n, v in naive]

    def test_recompute_inclusive_matches_eq2(self, s3d_exp):
        dense = attribute_dense(s3d_exp.cct, 3)
        for node in s3d_exp.cct.walk():
            row = dense.index[node.uid]
            for mid in range(3):
                assert dense.inclusive[row, mid] == pytest.approx(
                    node.inclusive.get(mid, 0.0)
                )

    def test_recompute_on_recursive_tree(self):
        exp = Experiment.from_program(fig1.build())
        dense = attribute_dense(exp.cct, 1)
        assert dense.inclusive[0, 0] == 10.0


class TestAblationFacts:
    def test_raw_data_is_actually_sparse(self):
        """The paper's premise quantified: raw costs live on leaves, so
        most raw cells are zero; inclusive densifies by construction."""
        exp = Experiment.from_program(s3d.build())
        dense = DenseMetrics.from_cct(exp.cct, len(exp.metrics))
        assert dense.nonzero_fraction("raw") < 0.5
        assert dense.nonzero_fraction("inclusive") > \
            dense.nonzero_fraction("raw")

    def test_memory_comparison_runs(self):
        exp = Experiment.from_program(uniform_tree(6, 3))
        dense = DenseMetrics.from_cct(exp.cct, 1)
        assert dense.memory_bytes() > 0
        assert DenseMetrics.sparse_memory_bytes(exp.cct) > 0
