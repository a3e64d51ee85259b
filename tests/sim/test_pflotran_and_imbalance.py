"""Tests for the imbalance models and the PFLOTRAN case study (Figure 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.hpcprof.summarize import imbalance_factor
from repro.hpcrun.counters import CYCLES
from repro.sim import imbalance
from repro.sim.spmd import run_spmd, spmd_experiment
from repro.sim.workloads import pflotran


class TestImbalanceModels:
    def test_uniform(self):
        shares = imbalance.work_shares(imbalance.uniform(), 16)
        assert np.allclose(shares, 1.0)
        assert imbalance_factor(shares) == 1.0

    def test_linear_skew_range_and_mean(self):
        shares = imbalance.work_shares(imbalance.linear_skew(0.5), 32)
        assert shares[0] == pytest.approx(0.5)
        assert shares[-1] == pytest.approx(1.5)
        assert shares.mean() == pytest.approx(1.0)

    def test_linear_skew_single_rank(self):
        assert imbalance.work_shares(imbalance.linear_skew(0.5), 1)[0] == 1.0

    def test_hotspot(self):
        shares = imbalance.work_shares(imbalance.hotspot(count=2, factor=4.0), 8)
        assert list(shares[:2]) == [4.0, 4.0]
        assert np.allclose(shares[2:], 1.0)

    def test_lognormal_deterministic_per_rank(self):
        model = imbalance.lognormal_field(sigma=0.5, seed=3)
        a = imbalance.work_shares(model, 64)
        b = imbalance.work_shares(model, 64)
        assert np.array_equal(a, b)
        assert a.std() > 0

    def test_heterogeneous_media_is_correlated(self):
        """Smoothing must reduce rank-to-rank variation vs the raw field."""
        raw = imbalance.work_shares(imbalance.lognormal_field(0.5, seed=11), 128)
        smooth = imbalance.work_shares(
            imbalance.heterogeneous_media(0.5, correlation=16, seed=11), 128
        )
        assert np.abs(np.diff(smooth)).mean() < np.abs(np.diff(raw)).mean()

    def test_idleness_shares(self):
        model = imbalance.linear_skew(0.5)
        idle = imbalance.idleness_shares(model, 16)
        assert idle.min() == 0.0          # the busiest rank never idles
        assert idle.argmin() == 15
        assert idle[0] == pytest.approx(1.0)  # lightest rank idles the most

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            imbalance.linear_skew(1.5)
        with pytest.raises(SimulationError):
            imbalance.hotspot(count=0)
        with pytest.raises(SimulationError):
            imbalance.work_shares(imbalance.uniform(), 0)


class TestPflotran:
    @pytest.fixture(scope="class")
    def exp(self):
        return spmd_experiment(pflotran.build(), nranks=32)

    def test_ranks_have_uneven_cycles(self, exp):
        vec = exp.rank_vector(exp.cct.root, CYCLES)
        assert len(vec) == 32
        assert imbalance_factor(vec) > 1.15

    def test_cycle_vector_matches_imbalance_model(self, exp):
        """Per-rank totals must follow the heterogeneity field's shape."""
        vec = exp.rank_vector(exp.cct.root, CYCLES)
        shares = pflotran.rank_work_shares({}, 32)
        correlation = np.corrcoef(vec, shares)[0, 1]
        assert correlation > 0.99

    def test_idleness_complements_work(self, exp):
        idle = exp.rank_vector(exp.cct.root, pflotran.IDLENESS)
        work = exp.rank_vector(exp.cct.root, CYCLES)
        # the busiest rank idles least
        assert idle[np.argmax(work)] == idle.min()
        # idleness + work share is flat across ranks (BSP synchronization)
        shares = pflotran.rank_work_shares({}, 32)
        gap = shares.max() - shares
        assert np.corrcoef(idle, gap)[0, 1] > 0.99

    def test_hot_path_on_idleness_finds_timestepper_loop(self, exp):
        """Sorting by total inclusive idleness and applying hot path
        analysis drills down into the main iteration loop at
        timestepper.F90:384 (the paper's Figure 7 workflow)."""
        result = exp.hot_path(pflotran.IDLENESS)
        loop_names = [
            n.name for n in result.path if n.name.startswith("loop at timestepper")
        ]
        assert loop_names == ["loop at timestepper.F90:384-425"]
        assert result.hotspot.name in ("MPI_Allreduce", "libmpi.so:0")

    def test_summary_metrics_capture_spread(self, exp):
        ids = exp.summarize(CYCLES)
        root = exp.cct.root
        assert root.inclusive[ids.maximum] > root.inclusive[ids.mean] * 1.1
        assert root.inclusive[ids.stddev] > 0

    def test_full_grid_params_scale_costs(self):
        small = spmd_experiment(pflotran.build(), nranks=4)
        big = spmd_experiment(
            pflotran.build(), nranks=4,
            params={"nx": 850, "ny": 1000, "nz": 80},
        )
        ratio = big.total(CYCLES) / small.total(CYCLES)
        assert ratio == pytest.approx(1000.0, rel=0.01)  # 1000x more cells

    def test_deterministic_given_seed(self):
        a = run_spmd(pflotran.build(), nranks=4, seed=5)
        b = run_spmd(pflotran.build(), nranks=4, seed=5)
        assert [p.totals() for p in a] == [p.totals() for p in b]
