"""Differential battery: the union-direct experiment build vs. per-rank merge.

``Experiment.from_profiles`` correlates every rank straight into the
union tree and builds per-rank trees only when they are read.  The
reference here is assembled from the older public pieces — ``correlate``
and ``attribute`` on each rank, then ``merge_ccts`` — and the two must
agree exactly: preorder node keys, child order, and ``float.hex`` of
every raw, inclusive and exclusive value (in dict order) on every node,
for the union and for every lazily built rank tree.

Costs are arbitrary floats, so summation order shows: a build that adds
each context straight into the union leaf, instead of summing a rank's
contexts first, differs as soon as two contexts of one rank land on one
leaf.  The context pool therefore carries crafted collisions — a
file-less entry frame and an entry frame with a stray call line both
resolve to the same procedure frame as the real one — and a procedure
the structure does not know.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attribution import attribute
from repro.core.metrics import MetricTable
from repro.hpcprof.correlate import correlate
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.merge import merge_ccts
from repro.hpcrun.profile_data import Frame, ProfileData
from repro.hpcstruct.synthstruct import build_structure
from repro.sim.scale import scale_program
from repro.sim.spmd import run_spmd, spmd_experiment
from repro.sim.workloads import fig1, pflotran
from repro.trace import TraceData, TraceSet, create_trace_store
from repro.trace.model import materialize_profile

N_METRICS = 2
T_SPAN = 10.0


def _context_pool():
    """Real call paths of a simulated run plus colliding variants."""
    program = pflotran.build()
    structure = build_structure(program)
    seen, pool = set(), []
    for profile in run_spmd(program, 2, seed=3):
        for frames, line, _costs in profile.paths():
            key = (tuple(f.key for f in frames), line)
            if key not in seen:
                seen.add(key)
                pool.append((tuple(frames), line))
    real = list(pool)
    for frames, line in real[:6]:
        entry = frames[0]
        # both resolve to the same procedure frame as ``entry``
        pool.append(((Frame(entry.proc, ""),) + frames[1:], line))
        pool.append(((Frame(entry.proc, entry.file, 99),) + frames[1:], line))
    pool.append(((real[0][0][0], Frame("memcpy", "", 12)), 4))
    return structure, pool


STRUCTURE, CONTEXTS = _context_pool()
METRICS = MetricTable()
for _name in ("cycles", "flops"):
    METRICS.add(_name)

costs = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
              allow_infinity=False),
    st.sampled_from([0.1, 0.2, 0.3, 1 / 3, -0.1, 0.0, 1e-17]),
)


@st.composite
def rank_samples(draw, max_ranks: int = 4):
    """Per-rank lists of ``(context index, {mid: cost})``."""
    nranks = draw(st.integers(min_value=1, max_value=max_ranks))
    return [
        draw(st.lists(
            st.tuples(
                st.integers(0, len(CONTEXTS) - 1),
                st.dictionaries(st.integers(0, N_METRICS - 1), costs,
                                min_size=1),
            ),
            max_size=20,
        ))
        for _ in range(nranks)
    ]


def _profiles(samples) -> list[ProfileData]:
    out = []
    for rank, rank_samples_ in enumerate(samples):
        profile = ProfileData(METRICS, rank=rank, program="union-prop")
        for ci, values in rank_samples_:
            frames, line = CONTEXTS[ci]
            profile.add_sample(frames, line, values)
        out.append(profile)
    return out


def reference(profiles, structure):
    """Per-rank correlate + attribute, then ``merge_ccts``."""
    ranks = []
    for profile in profiles:
        cct = correlate(profile, structure)
        attribute(cct)
        ranks.append(cct)
    return merge_ccts(ranks), ranks


def _hex(values: dict) -> list:
    return [(mid, float(v).hex()) for mid, v in values.items()]


def tree_signature(cct) -> list:
    """Preorder ``(key, child keys, raw, inclusive, exclusive)`` rows."""
    return [
        (node.key, [c.key for c in node.children], _hex(node.raw),
         _hex(node.inclusive), _hex(node.exclusive))
        for node in cct.walk()
    ]


def assert_matches_reference(exp, profiles, structure) -> None:
    union, ranks = reference(profiles, structure)
    assert tree_signature(exp.cct) == tree_signature(union)
    if len(profiles) == 1 and exp.rank_ccts is None:
        return  # a serial experiment keeps no rank trees
    assert exp.nranks == len(ranks)
    assert len(exp.rank_ccts) == len(ranks)
    for mine, want in zip(exp.rank_ccts, ranks):
        assert tree_signature(mine) == tree_signature(want)


# --------------------------------------------------------------------- #
# profiles
# --------------------------------------------------------------------- #
@settings(max_examples=80, deadline=None)
@given(samples=rank_samples())
def test_from_profiles_equals_per_rank_merge(samples):
    profiles = _profiles(samples)
    exp = Experiment.from_profiles(profiles, STRUCTURE, name="union")
    assert_matches_reference(exp, profiles, STRUCTURE)


@settings(max_examples=30, deadline=None)
@given(samples=rank_samples(max_ranks=1))
def test_from_profile_equals_correlate(samples):
    profile = _profiles(samples)[0]
    exp = Experiment.from_profile(profile, STRUCTURE)
    assert exp.rank_ccts is None
    assert_matches_reference(exp, [profile], STRUCTURE)


def test_colliding_contexts_sum_per_rank_first():
    """Two contexts of one rank on one leaf: the rank's sum enters the
    union once, as ``merge_ccts`` adds it."""
    frames, line = CONTEXTS[0]
    fileless = (Frame(frames[0].proc, ""),) + frames[1:]
    profiles = []
    for rank, (a, b) in enumerate(((0.1, 0.2), (0.3, 0.7), (1e16, 1.0))):
        profile = ProfileData(METRICS, rank=rank)
        profile.add_sample(frames, line, {0: a})
        profile.add_sample(fileless, line, {0: b})
        profiles.append(profile)
    exp = Experiment.from_profiles(profiles, STRUCTURE)
    assert_matches_reference(exp, profiles, STRUCTURE)
    leaf = max(exp.cct.walk(), key=lambda n: n.raw.get(0, 0.0))
    assert leaf.raw[0] == ((0.1 + 0.2) + (0.3 + 0.7)) + (1e16 + 1.0)


def test_procedures_resolve_per_rank():
    """Rank 0's unknown ``g`` in z.c makes the file-less name ``g``
    ambiguous, so rank 1 resolves it to a new ``<unknown>`` procedure,
    as a per-rank correlator does, not to rank 0's cached ``g``."""
    def profiles():
        metrics = MetricTable()
        metrics.add("cycles")
        main = Frame("m", "file1.c")
        ranks = [ProfileData(metrics), ProfileData(metrics)]
        ranks[0].add_sample([main, Frame("g", "", 8)], 3, {0: 1.0})
        ranks[0].add_sample([main, Frame("g", "z.c", 8)], 3, {0: 2.0})
        ranks[1].add_sample([main, Frame("g", "", 8)], 3, {0: 4.0})
        return ranks

    def named(cct):  # keys that do not depend on one structure's uids
        return [(n.kind, n.name, n.file, n.line, _hex(n.raw),
                 _hex(n.inclusive), _hex(n.exclusive)) for n in cct.walk()]

    exp = Experiment.from_profiles(profiles(), build_structure(fig1.build()))
    union, ranks = reference(profiles(), build_structure(fig1.build()))
    assert named(exp.cct) == named(union)
    assert [named(c) for c in exp.rank_ccts] == [named(c) for c in ranks]
    assert sum(1 for n in exp.cct.walk() if n.name == "g") == 3


def test_rank_trees_build_once_under_concurrent_reads():
    """Racing first readers all get the one list of trees; ``nranks``
    does not force the build."""
    import sys
    import threading

    profiles = run_spmd(pflotran.build(), 8, seed=5)
    exp = Experiment.from_profiles(profiles, build_structure(pflotran.build()))
    assert exp.nranks == 8 and exp._rank_leaves is not None
    barrier = threading.Barrier(8)
    seen = []

    def read():
        barrier.wait(timeout=10)
        seen.append(exp.rank_ccts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8 and all(trees is seen[0] for trees in seen)
    assert_matches_reference(exp, profiles, exp.structure)


# --------------------------------------------------------------------- #
# SPMD runs (dict and columnar attribution sizes)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("program, nranks", [
    (fig1.build(), 1),
    (fig1.build(), 3),
    (pflotran.build(), 8),
    (scale_program(fanout=4, depth=3), 4),  # >= COLUMNAR_MIN_NODES
])
def test_spmd_experiment_equals_per_rank_merge(program, nranks):
    exp = spmd_experiment(program, nranks, seed=11)
    profiles = run_spmd(program, nranks, seed=11)
    assert_matches_reference(exp, profiles, exp.structure)


# --------------------------------------------------------------------- #
# trace windows, in memory and chunked
# --------------------------------------------------------------------- #
@st.composite
def trace_events(draw):
    """Per-rank ``(ctx index, t, ticks)`` events over 1-3 ranks."""
    nranks = draw(st.integers(min_value=1, max_value=3))
    out = []
    for _ in range(nranks):
        events = draw(st.lists(
            st.tuples(
                st.integers(0, len(CONTEXTS) - 1),
                st.floats(min_value=0.0, max_value=T_SPAN, exclude_max=True,
                          allow_nan=False),
                st.lists(st.integers(0, 10 ** 9), min_size=N_METRICS,
                         max_size=N_METRICS),
            ),
            max_size=15,
        ))
        out.append(events)
    return out


def _trace_set(rank_events) -> TraceSet:
    traces = []
    for rank, events in enumerate(rank_events):
        # non-dyadic resolutions, so materialized costs round when summed
        td = TraceData(METRICS, resolutions={0: 1e-9, 1: 0.1}, rank=rank,
                       program="union-trace")
        for frames, line in CONTEXTS:  # one shared context table
            td.record(frames, line, 0.0, {})
        for ci, t, ticks in events:
            frames, line = CONTEXTS[ci]
            td.record(frames, line, t, dict(enumerate(ticks)))
        traces.append(td)
    return TraceSet(traces, STRUCTURE, name="union-trace")


def window_profiles(source, t0, t1, metrics):
    """One profile per rank from the window's exact tick sums."""
    ticks = source.window_ticks(t0, t1)
    return [
        materialize_profile(ticks[r], source.contexts, metrics,
                            source.resolutions)
        for r in range(source.nranks)
    ]


@settings(max_examples=25, deadline=None)
@given(rank_events=trace_events(),
       cuts=st.tuples(st.floats(0, T_SPAN, allow_nan=False),
                      st.floats(0, T_SPAN, allow_nan=False)))
def test_trace_windows_equal_per_rank_merge(rank_events, cuts):
    traces = _trace_set(rank_events)
    a, b = sorted(cuts)
    windows = [(None, None), (a, b), (None, a), (b, None), (a, a)]
    with tempfile.TemporaryDirectory() as tmp:
        store = create_trace_store(traces, os.path.join(tmp, "t"),
                                   chunk_duration=T_SPAN / 7)
        try:
            for t0, t1 in windows:
                for source in (traces, store):
                    metrics, structure = source.skeleton_basis()
                    profiles = window_profiles(source, t0, t1, metrics)
                    exp = source.window_experiment(t0, t1)
                    if traces.nranks == 1:
                        assert exp.rank_ccts is None
                    assert_matches_reference(exp, profiles, structure)
                if t0 == t1 == a:
                    assert len(exp.cct) == 1  # the empty window
        finally:
            store.close()


def test_colliding_window_contexts(tmp_path):
    """Both backends sum a rank's colliding contexts before the union."""
    frames, line = CONTEXTS[0]
    fileless = CONTEXTS.index(((Frame(frames[0].proc, ""),) + frames[1:],
                               line))
    # (0.1 + 0.1) + (0.1 + 0.4) rounds apart from ((0.1 + 0.1) + 0.1) + 0.4
    traces = _trace_set([[(0, 1.0, [0, 1]), (fileless, 2.0, [0, 1])],
                         [(0, 1.5, [0, 1]), (fileless, 2.5, [0, 4])]])
    store = create_trace_store(traces, str(tmp_path / "t"))
    try:
        for source in (traces, store):
            metrics, structure = source.skeleton_basis()
            exp = source.window_experiment(None, None)
            assert_matches_reference(
                exp, window_profiles(source, None, None, metrics), structure)
            assert exp.total("flops") == (0.1 + 0.1) + (0.1 + 0.4)
    finally:
        store.close()


def test_store_basis_matches_the_skeleton(tmp_path):
    """The structure-only read yields the skeleton's metrics and
    structure, without decoding its tree."""
    traces = _trace_set([[(0, 1.0, [5, 7])], [(1, 2.0, [3, 4])]])
    store = create_trace_store(traces, str(tmp_path / "t"))
    metrics, structure = store.skeleton_basis()
    assert store._skeleton_exp is None
    skeleton = store.skeleton
    assert metrics.names() == skeleton.metrics.names()
    assert [(n.kind, n.name, n.location) for n in structure.root.walk()] == \
        [(n.kind, n.name, n.location) for n in skeleton.structure.root.walk()]
    store.close()

