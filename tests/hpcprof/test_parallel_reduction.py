"""Process-pool rank reduction vs. serial reduction: identical Moments.

The acceptance bar for parallelizing the summarization is exactness:
chunk boundaries and the pairwise merge tree are fixed, so a process
pool changes *where* Welford partials are computed, never the arithmetic
— count/mean/m2/min/max must match the serial reduction bit for bit for
64 simulated ranks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MetricError
from repro.hpcprof.merge import collect_rank_matrix
from repro.hpcprof.summarize import (
    Moments,
    _merge_stats,
    rank_moments,
    summarize_ranks,
    welford_moments,
)
from repro.sim.spmd import spmd_experiment
from repro.sim.workloads import pflotran

NRANKS = 64


@pytest.fixture(scope="module")
def exp64():
    return spmd_experiment(pflotran.build(), nranks=NRANKS)


@pytest.fixture(scope="module")
def matrix64(exp64):
    _nodes, matrix = collect_rank_matrix(exp64.cct, exp64.rank_ccts, 0)
    assert matrix.shape[1] == NRANKS
    return matrix


def as_moments(stats, row: int) -> Moments:
    count, mean, m2, minimum, maximum = stats
    return Moments(
        count=count,
        mean=float(mean[row]),
        m2=float(m2[row]),
        minimum=float(minimum[row]),
        maximum=float(maximum[row]),
    )


class TestPoolIdentity:
    def test_pool_equals_serial_bitwise(self, matrix64):
        serial = rank_moments(matrix64, max_workers=1)
        pooled = rank_moments(matrix64, max_workers=4)
        assert pooled[0] == serial[0] == NRANKS
        for got, want in zip(pooled[1:], serial[1:]):
            assert np.array_equal(got, want)  # exact, not approx

    def test_every_moment_field_identical(self, matrix64):
        serial = rank_moments(matrix64, max_workers=1)
        pooled = rank_moments(matrix64, max_workers=4)
        for row in range(matrix64.shape[0]):
            assert as_moments(pooled, row) == as_moments(serial, row)

    def test_welford_chunk_matches_scalar_accumulator(self, matrix64):
        stats = welford_moments(matrix64)  # single chunk: pure Welford
        for row in range(0, matrix64.shape[0], 7):
            reference = Moments.of(matrix64[row])
            assert as_moments(stats, row) == reference

    def test_chunked_tree_matches_moments_merge(self, matrix64):
        """The vectorized merge replicates Moments.merge exactly: reducing
        two chunk partials row-wise equals merging scalar accumulators."""
        lo, hi = matrix64[:, :16], matrix64[:, 16:32]
        merged = _merge_stats(welford_moments(lo), welford_moments(hi))
        for row in range(0, matrix64.shape[0], 11):
            reference = Moments.of(lo[row]).merge(Moments.of(hi[row]))
            assert as_moments(merged, row) == reference

    def test_summarize_ranks_pool_equals_serial(self, exp64):
        from repro.core.metrics import MetricTable
        from repro.hpcprof.merge import merge_ccts

        def run(max_workers):
            combined = merge_ccts(exp64.rank_ccts)
            metrics = MetricTable()
            metrics.add("cycles")
            ids = summarize_ranks(
                combined, exp64.rank_ccts, metrics, 0, max_workers=max_workers
            )
            # keyed by preorder position: each merge mints fresh node uids
            return [
                (dict(node.inclusive), dict(node.exclusive))
                for node in combined.walk()
            ], ids

        serial, ids_a = run(max_workers=1)
        pooled, ids_b = run(max_workers=4)
        assert ids_a == ids_b
        assert pooled == serial  # bit-for-bit, every scope and column

    def test_pool_matches_default_numpy_path_closely(self, exp64, matrix64):
        """Welford tree vs. np axis kernels: same statistics up to FP noise
        (they use different summation orders by design)."""
        count, mean, m2, minimum, maximum = rank_moments(matrix64, max_workers=4)
        variance = m2 / count
        assert mean == pytest.approx(matrix64.mean(axis=1), rel=1e-12)
        assert np.array_equal(minimum, matrix64.min(axis=1))
        assert np.array_equal(maximum, matrix64.max(axis=1))
        assert np.sqrt(np.maximum(variance, 0.0)) == pytest.approx(
            matrix64.std(axis=1), rel=1e-9, abs=1e-12
        )

    def test_rank_moments_rejects_empty(self):
        with pytest.raises(MetricError):
            rank_moments(np.zeros((3, 0)))

    def test_odd_chunk_counts(self, matrix64):
        """Uneven trees (odd leaf counts) still reduce identically."""
        for chunk in (5, 7, 13, 63):
            serial = rank_moments(matrix64, max_workers=1, chunk_ranks=chunk)
            pooled = rank_moments(matrix64, max_workers=3, chunk_ranks=chunk)
            for got, want in zip(pooled[1:], serial[1:]):
                assert np.array_equal(got, want)
