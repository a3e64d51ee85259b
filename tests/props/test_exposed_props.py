"""Differential battery: level-batched exposed aggregation vs per-row forms.

:meth:`~repro.core.engine.MetricEngine.aggregate_exposed` aggregates every
instance group of one view level at once (one segment prefix-max over the
preorder extents for exposure, one ``np.add.at`` per matrix for the sums).
It must agree **bit for bit** (``float.hex`` on every value) with

* the per-row engine kernel it replaced, frozen as an oracle in
  ``tests/oracles.py``, including the key order of the sparse dicts;
* the dict-path reference :func:`repro.core.attribution.aggregate_exposed`;

and the Callers and Flat views built level by level must equal the same
views built without an engine and built one row at a time.  Raw values
mix magnitudes and signs (1e16 next to 1.0, x next to -x), so a kernel
that summed a group in any order but input order, or lost a duplicate,
would change a bit somewhere.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attribution import aggregate_exposed, attribute_dicts
from repro.core.callers import CallersView
from repro.core.cct import CCTKind
from repro.core.engine import MetricEngine
from repro.core.flat import FlatView
from repro.hpcprof.experiment import Experiment
from repro.sim.workloads.synthetic import mutual_ladder
from repro.viewer.navigation import NavigationState
from tests.oracles import level_exposed, per_row_exposed
from tests.props.strategies import NUM_METRICS, cct_experiments

#: magnitudes where float addition is visibly non-associative
RAW_VALUES = [1e16, -1e16, 1.0, -1.0, 3.0, 0.1, -0.1, 2.5e-3, 7e15, -0.0]


def hexed(values: dict) -> list[tuple[int, str]]:
    """A sparse vector as ``(mid, float.hex)`` pairs, in key order."""
    return [(mid, float(v).hex()) for mid, v in values.items()]


def same(a: dict, b: dict) -> bool:
    """Equal mids and bit-equal values, ignoring key order."""
    return sorted(hexed(a)) == sorted(hexed(b))


@st.composite
def signed_ccts(draw):
    """A random CCT whose raw values mix signs and magnitudes."""
    cct, model, metrics = draw(cct_experiments())
    for node in cct.walk():
        if node.raw:
            node.raw = {
                mid: draw(st.sampled_from(RAW_VALUES))
                for mid in sorted(node.raw)
            }
    attribute_dicts(cct)
    return cct, model, metrics


@st.composite
def instance_groups(draw, cct):
    """Random instance groups in random input order: procedure frame
    sets, random scope subsets with duplicates, single instances, and
    every statement of one line (leaves only)."""
    nodes = list(cct.walk())[1:]
    groups = [list(frames) for frames in cct.frames_by_procedure().values()]
    for _ in range(draw(st.integers(0, 4))):
        group = draw(st.lists(st.sampled_from(nodes), min_size=1,
                              max_size=8))
        groups.append(group + draw(st.lists(st.sampled_from(group),
                                            max_size=3)))
    groups.append([draw(st.sampled_from(nodes))])
    groups = [draw(st.permutations(group)) for group in groups]
    return draw(st.permutations(groups))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_level_kernel_matches_oracle_and_dict_path(data):
    cct, _model, _metrics = data.draw(signed_ccts())
    engine = MetricEngine(cct, NUM_METRICS)
    groups = data.draw(instance_groups(cct))
    batched = level_exposed(engine, groups)
    assert len(batched) == len(groups)
    for group, (incl, excl) in zip(groups, batched):
        o_incl, o_excl = per_row_exposed(engine, group)
        # the oracle and the kernel both emit mids in ascending order
        assert hexed(incl) == hexed(o_incl)
        assert hexed(excl) == hexed(o_excl)
        d_incl, d_excl = aggregate_exposed(group)
        assert same(incl, d_incl) and same(excl, d_excl)
        # a level of one row is the same reduction
        assert level_exposed(engine, [group]) == [(incl, excl)]


def view_tree(row, depth):
    """Names, categories, locations and bit patterns down to *depth*."""
    out = (row.name, row.category.value, row.line, row.file,
           sorted(hexed(row.inclusive)), sorted(hexed(row.exclusive)))
    if depth == 0:
        return out
    return out + (tuple(view_tree(c, depth - 1) for c in row.children),)


def level_built(view, depth):
    NavigationState(view).expand_to_depth(depth)
    return [view_tree(r, depth) for r in view.roots]


def row_built(view, depth):
    # view_tree reads children row by row: every expand is a level of one
    return [view_tree(r, depth) for r in view.roots]


@settings(max_examples=60, deadline=None)
@given(signed_ccts(), st.booleans(), st.integers(1, 5))
def test_views_level_batched_equal_dict_and_row_at_a_time(case, fused, depth):
    cct, _model, metrics = case
    engine = MetricEngine(cct, NUM_METRICS)
    for make in (
        lambda e: CallersView(cct, metrics, engine=e),
        lambda e: FlatView(cct, metrics, fused=fused, engine=e),
        lambda e: FlatView(cct, metrics, fused=fused, show_load_modules=True,
                           engine=e),
    ):
        batched = level_built(make(engine), depth)
        assert batched == level_built(make(None), depth)
        assert batched == row_built(make(engine), depth)


@settings(max_examples=40, deadline=None)
@given(signed_ccts(), st.integers(1, 4))
def test_marker_probe_matches_children(case, depth):
    """``View.has_children`` answers from structure what ``children`` builds."""
    cct, _model, metrics = case
    engine = MetricEngine(cct, NUM_METRICS)
    for view in (CallersView(cct, metrics, engine=engine),
                 FlatView(cct, metrics, engine=engine)):
        level = list(view.roots)
        for _ in range(depth):
            probes = [view.has_children(row) for row in level]
            assert probes == [bool(row.children) for row in level]
            level = [c for row in level for c in row.children]


def test_mutual_ladder_groups_agree_bit_for_bit():
    """Nested instances interleaved with another procedure's, from
    several contexts: the deep-recursion case of the exposure rule."""
    exp = Experiment.from_program(mutual_ladder(40, contexts=3))
    engine = exp.engine
    frames = list(exp.cct.frames())
    groups = [list(g) for g in exp.cct.frames_by_procedure().values()]
    groups += [frames[::-1], frames[1::2] + frames[::3], frames[:1]]
    for group, got in zip(groups, level_exposed(engine, groups)):
        assert [hexed(v) for v in got] == [
            hexed(v) for v in per_row_exposed(engine, group)]
        assert all(same(a, b) for a, b in zip(got, aggregate_exposed(group)))
    for view in (exp.callers_view(), exp.flat_view()):
        plain = type(view)(exp.cct, exp.metrics)
        assert level_built(view, 6) == level_built(plain, 6)


def test_duplicates_and_cancellation_edge_cases():
    exp = Experiment.from_program(mutual_ladder(6, contexts=2))
    cct = exp.cct
    ping = [f for f in cct.frames() if f.name == "ping"]
    outer, inner = ping[0], ping[1]
    engine = exp.engine
    # an exposed row listed twice counts twice; a covered row never counts
    (incl, _excl), = level_exposed(engine, [[outer, inner, outer]])
    assert incl == {0: 2 * outer.inclusive[0]}
    # a duplicated single instance
    (incl, _excl), = level_exposed(engine, [[inner, inner]])
    assert incl == {0: 2 * inner.inclusive[0]}
    # values that cancel to +0.0 and -0.0 leave the sparse vector empty
    leaves = [n for n in cct.walk() if n.kind is CCTKind.STATEMENT][:2]
    eng = MetricEngine(cct, 1)
    eng.inclusive = np.zeros_like(eng.inclusive)
    eng.exclusive = np.zeros_like(eng.exclusive)
    a, b = (eng.row_of(n) for n in leaves)
    eng.inclusive[a, 0], eng.inclusive[b, 0] = 1e16, -1e16
    eng.exclusive[a, 0], eng.exclusive[b, 0] = -0.0, -0.0
    assert level_exposed(eng, [leaves, leaves[:1]]) == [
        ({}, {}), ({0: 1e16}, {})]
    # an empty level and an empty group
    assert level_exposed(eng, []) == []
    assert level_exposed(eng, [[]]) == [({}, {})]
