"""Unit tests for :mod:`repro.core.ensemble` and the advisor bridge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.attribution import attribute
from repro.core.ensemble import (
    EnsembleView,
    align_experiments,
    detect_regressions,
)
from repro.errors import MetricError
from repro.hpcprof.experiment import Experiment
from repro.hpcstruct.synthstruct import build_structure
from repro.sim.executor import execute
from repro.sim.scale import scale_program


def _member(rank: int, name: str | None = None,
            boost: str | None = None, scale: float = 2.0) -> Experiment:
    """One run of the scale corpus; *boost* multiplies a subtree's costs."""
    program = scale_program(fanout=2, depth=2)
    structure = build_structure(program)
    profile = execute(program, rank=rank, nranks=4, seed=13)
    exp = Experiment.from_profile(profile, structure,
                                  name=name or f"m{rank}")
    if boost is not None:
        for node in exp.cct.walk():
            if any(f.name == boost for f in node.call_path()):
                for mid, value in list(node.raw.items()):
                    node.raw[mid] = value * scale
        attribute(exp.cct)
        exp.cct.invalidate_caches()
    return exp


@pytest.fixture(scope="module")
def ensemble() -> EnsembleView:
    return align_experiments([_member(i) for i in range(3)])


# --------------------------------------------------------------------- #
# selectors and statistics
# --------------------------------------------------------------------- #
def test_resolve_selectors(ensemble):
    assert ensemble.resolve(0) == (0, "m0")
    assert ensemble.resolve(-1) == (2, "m2")
    assert ensemble.resolve("m1") == (1, "m1")
    assert ensemble.resolve("mean") == (None, "mean")
    with pytest.raises(MetricError, match="unknown ensemble member"):
        ensemble.resolve("nope")
    with pytest.raises(MetricError, match="out of range"):
        ensemble.resolve(7)
    with pytest.raises(MetricError, match="selector"):
        ensemble.resolve(True)
    with pytest.raises(MetricError, match="selector"):
        ensemble.resolve(1.5)


def test_stats_match_numpy(ensemble):
    stats = ensemble.stats("cycles", "inclusive", quantiles=(0.5,))
    matrix = ensemble.matrix("cycles", "inclusive")
    assert stats.count == 3
    assert np.allclose(stats.mean, matrix.mean(axis=0))
    assert np.allclose(stats.stddev, matrix.std(axis=0))
    assert np.array_equal(stats.minimum, matrix.min(axis=0))
    assert np.array_equal(stats.maximum, matrix.max(axis=0))
    assert np.array_equal(stats.quantiles[0.5],
                          np.quantile(matrix, 0.5, axis=0))


def test_unknown_metric_and_flavor(ensemble):
    with pytest.raises(MetricError, match="unknown metric"):
        ensemble.matrix("no-such")
    with pytest.raises(MetricError, match="unknown flavor"):
        ensemble.matrix("cycles", "diagonal")


def test_attach_stats_is_idempotent():
    ensemble = align_experiments([_member(0), _member(1)])
    before = len(ensemble.union.metrics)
    ids = ensemble.attach_stats()
    assert ensemble.attach_stats() is ids
    names = {d.name for d in ensemble.union.metrics}
    assert {"cycles (mean)", "cycles (min)", "cycles (max)",
            "cycles (stddev)"} <= names
    assert len(ensemble.union.metrics) == before + 4
    # the mean column is the member average on the root
    mean_mid = ensemble.union.metrics.by_name("cycles (mean)").mid
    matrix = ensemble.matrix("cycles", "inclusive")
    assert ensemble.union.cct.root.inclusive.get(mean_mid, 0.0) \
        == pytest.approx(matrix[:, 0].mean())


# --------------------------------------------------------------------- #
# materialization
# --------------------------------------------------------------------- #
def test_member_rematerializes_totals(ensemble):
    member = ensemble.member(1)
    matrix = ensemble.matrix("cycles", "inclusive")
    mid = ensemble.alignment.mids[0]
    assert member.cct.root.inclusive.get(mid, 0.0) \
        == pytest.approx(matrix[1, 0])
    assert member.name == "m1"


def test_diff_scale_and_subtract(ensemble):
    mid = ensemble.alignment.mids[0]
    matrix = ensemble.matrix("cycles", "inclusive")
    diff = ensemble.diff(0, 2, factor=2.0)
    assert diff.name == "m2 vs 2*m0"
    assert diff.cct.root.inclusive.get(mid, 0.0) \
        == pytest.approx(matrix[2, 0] - 2.0 * matrix[0, 0])
    plain = ensemble.diff(0, 2)
    assert plain.name == "m2 vs m0"
    with pytest.raises(MetricError, match="must be positive"):
        ensemble.diff(0, 1, factor=0.0)


def _chain(structure, depth: int) -> Experiment:
    """``rec -> rec -> ...`` *depth* frames, 1.0 per statement, 2.0 leaf."""
    from repro.core.cct import CCT
    from repro.core.metrics import MetricTable

    cct = CCT()
    proc = structure.procedure("rec")
    node = cct.root.ensure_frame(proc)
    for _ in range(depth - 1):
        node.ensure_statement(2).add_raw({0: 1.0})
        node = node.ensure_call_site(5).ensure_frame(proc)
    node.ensure_statement(2).add_raw({0: 2.0})
    attribute(cct)
    metrics = MetricTable()
    metrics.add("cycles")
    return Experiment(f"rec x{depth}", metrics, structure, cct)


def test_diff_charges_baseline_only_scopes():
    """A scope only the baseline has reads ``-factor * baseline``, so the
    root is exactly ``target total - factor * baseline total``."""
    from repro.hpcstruct.model import StructureModel

    structure = StructureModel("chain")
    file_scope = structure.add_file(structure.add_load_module("chain.x"),
                                    "chain.c")
    structure.add_procedure(file_scope, "rec", 1, 20)
    baseline, target = _chain(structure, 3), _chain(structure, 2)
    factor = 2.0
    diff = align_experiments([baseline, target]).diff(0, 1, factor=factor)
    mid = diff.metric_id("cycles")
    assert diff.total("cycles") == (
        target.total("cycles") - factor * baseline.total("cycles")
    ) == -5.0

    def deepest_frame(exp):
        return max(exp.cct.frames(), key=lambda f: f.depth)

    only_in_baseline = deepest_frame(diff)
    assert only_in_baseline.depth == deepest_frame(baseline).depth
    assert only_in_baseline.inclusive[mid] == (
        -factor * deepest_frame(baseline).inclusive[mid]
    ) == -4.0


def test_scaling_loss_run_leaves_its_inputs_unchanged(monkeypatch):
    from repro.experiments import scaling_loss

    pair = scaling_loss.build_pair(2, 4)
    monkeypatch.setattr(scaling_loss, "build_pair", lambda small, big: pair)

    def snapshot(exp):
        return (
            list(exp.metrics),
            [(node.uid, dict(node.raw)) for node in exp.cct.walk()],
        )

    before = [snapshot(exp) for exp in pair]
    assert scaling_loss.run(2, 4).all_ok
    assert [snapshot(exp) for exp in pair] == before


def test_diff_views_render(ensemble):
    """The diff is a first-class experiment: all three views build."""
    diff = ensemble.diff("mean", -1, name="drift")
    assert diff.name == "drift"
    assert len(diff.views()) == 3
    flat = diff.flat_view()
    assert flat.roots


def test_payload_shape(ensemble):
    payload = ensemble.to_payload()
    assert payload["members"] == ["m0", "m1", "m2"]
    assert payload["n_experiments"] == 3
    assert payload["metrics"] == ["cycles"]
    assert payload["report"]["n_members"] == 3


# --------------------------------------------------------------------- #
# regression detection
# --------------------------------------------------------------------- #
def test_detect_flags_planted_regression():
    members = [_member(i) for i in range(3)]
    members.append(_member(3, name="bad", boost="p1_1", scale=3.0))
    ensemble = align_experiments(members)
    findings = detect_regressions(ensemble, target="bad")
    regressed = {f.scope for f in findings if f.kind == "regression"}
    assert "p1_1" in regressed
    top = findings[0]
    assert top.target == "bad"
    assert abs(top.delta) == max(abs(f.delta) for f in findings)
    # shares, not absolutes: scaling a whole member flags nothing
    uniform = align_experiments(
        [_member(0), _member(1), _member(2, boost="p0_0", scale=4.0)]
    )
    assert detect_regressions(uniform, target=2) == []


def test_detect_selector_validation(ensemble):
    with pytest.raises(MetricError, match="target must be a member"):
        detect_regressions(ensemble, target="mean")
    with pytest.raises(MetricError, match="corpus members must be"):
        detect_regressions(ensemble, target=0, baseline=["mean"])
    with pytest.raises(MetricError, match="corpus is empty"):
        detect_regressions(ensemble, target=0, baseline=[])


def test_detect_explicit_baseline_corpus():
    members = [_member(0), _member(1),
               _member(2, name="bad", boost="p1_0", scale=3.0)]
    ensemble = align_experiments(members)
    findings = detect_regressions(ensemble, target="bad", baseline=[0])
    assert any(f.scope == "p1_0" and f.kind == "regression"
               for f in findings)
    # a single-member corpus has no spread: sigma rule stays silent
    assert all(f.sigmas is None for f in findings)


def test_finding_payload_and_describe():
    members = [_member(0), _member(1),
               _member(2, name="bad", boost="p1_1", scale=3.0)]
    findings = detect_regressions(align_experiments(members), target="bad")
    assert findings
    finding = findings[0]
    payload = finding.to_payload()
    assert payload["scope"] == finding.scope
    assert payload["path"] == list(finding.path)
    text = finding.describe()
    assert finding.scope in text and "share" in text


def test_advise_regressions_bridges_findings():
    from repro.core.advisor import advise_regressions

    members = [_member(0), _member(1),
               _member(2, name="bad", boost="p1_1", scale=3.0)]
    suggestions = advise_regressions(align_experiments(members),
                                     target="bad")
    assert suggestions
    assert all(s.rule.startswith("ensemble-") for s in suggestions)
    top = suggestions[0]
    assert top.impact == abs(top.evidence["delta"])
    assert "target_share" in top.evidence
    assert top.describe()
