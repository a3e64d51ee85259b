"""The viewer's ``find`` and ``filter`` against per-node oracles.

The viewer's ranked search (:func:`repro.viewer.tui._find`) runs on the
query engine's batched kernels — one name match over the deduplicated
vocabulary, one metric gather — and its elide/threshold splice
(:func:`repro.viewer.tui._elide`) replaced the retired search and
filter-set shims.  This suite keeps the original per-node algorithms as
test-only oracles and asserts the viewer reproduces them exactly —
same nodes, same float bits, same paths, same splice order — on every
view of several workloads; the programmatic form of the search (a
:func:`repro.query.query` on a node-budgeted view frame) is held to
the same oracle.
"""

from __future__ import annotations

import fnmatch

import pytest

from repro.core.metrics import MetricFlavor, MetricSpec
from repro.core.views import NodeCategory
from repro.hpcprof.experiment import Experiment
from repro.query import query
from repro.query.engine import ViewFrame
from repro.sim.workloads import fig1, moab, s3d
from repro.viewer.tui import _elide, _find


# --------------------------------------------------------------------- #
# per-node reference implementations
# --------------------------------------------------------------------- #
def _reference_search(view, pattern, spec, limit=10, categories=(),
                      max_nodes=200_000):
    total = view.total(MetricSpec(spec.mid, MetricFlavor.INCLUSIVE))
    hits = []
    visited = 0
    stack = [(root, (root.name,)) for root in reversed(view.roots)]
    while stack and visited < max_nodes:
        node, path = stack.pop()
        visited += 1
        if (not categories or node.category in categories) and \
                fnmatch.fnmatchcase(node.name, pattern):
            value = view.value(node, spec)
            hits.append((node, value,
                         (value / total) if total else 0.0, path))
        for child in reversed(node.children):
            stack.append((child, path + (child.name,)))
    hits.sort(key=lambda h: -h[1])
    return hits[:limit]


def _reference_visit(view, node, patterns, threshold):
    if any(fnmatch.fnmatchcase(node.name, p) for p in patterns):
        spliced = []
        for child in node.children:
            spliced.extend(_reference_visit(view, child, patterns, threshold))
        return spliced
    if threshold is not None:
        spec, share = threshold
        total = view.total(spec)
        incl = MetricSpec(spec.mid, MetricFlavor.INCLUSIVE)
        if total != 0.0 and view.value(node, incl) < share * total:
            return []
    return [node]


def _reference_apply(view, rows, patterns, threshold):
    out = []
    for row in rows:
        out.extend(_reference_visit(view, row, patterns, threshold))
    return out


# --------------------------------------------------------------------- #
@pytest.fixture(scope="module", params=["fig1", "s3d", "moab"])
def exp(request):
    build = {"fig1": fig1.build, "s3d": s3d.build, "moab": moab.build}
    return Experiment.from_program(build[request.param]())


def _hit_key(hit):
    # node identity + exact float bits + exact path
    node, value, share, path = hit
    return (id(node), value.hex(), share.hex(), path)


PATTERNS = ["*", "m*", "*loop*", "file*", "no-such-scope", "?", "[abc]*"]
INCLUSIVE = MetricSpec(0, MetricFlavor.INCLUSIVE)


class TestSearchShimIdentity:
    def test_every_view_every_pattern(self, exp):
        for view in exp.views():
            for pattern in PATTERNS:
                got = _find(view, pattern, INCLUSIVE, limit=50)
                want = _reference_search(view, pattern, INCLUSIVE, limit=50)
                assert list(map(_hit_key, got)) == list(map(_hit_key, want))

    def test_exclusive_ranking_and_limit(self, exp):
        spec = MetricSpec(0, MetricFlavor.EXCLUSIVE)
        for view in exp.views():
            got = _find(view, "*", spec, limit=5)
            want = _reference_search(view, "*", spec, limit=5)
            assert list(map(_hit_key, got)) == list(map(_hit_key, want))

    def test_categories_and_max_nodes(self, exp):
        """The programmatic form — a category step, a ranked query and a
        node-budgeted view frame — against the same per-node walk."""
        cats = (NodeCategory.LOOP, NodeCategory.PROCEDURE_FRAME)
        ranked = (query({"category": [c.value for c in cats]})
                  .select(metrics=[0], flavors="inclusive")
                  .sort().limit(50))
        for view in exp.views():
            for cap in (1, 3, 7, 200_000):
                frame = ViewFrame(view, max_nodes=cap)
                got = ranked.run(frame)
                want = _reference_search(view, "*", INCLUSIVE, limit=50,
                                         categories=cats, max_nodes=cap)
                assert [id(frame.nodes[r]) for r in got.rows] == [
                    id(h[0]) for h in want]
                assert [v.hex() for v in got.values[:, 0]] == [
                    h[1].hex() for h in want]


#: (elide globs, threshold) — every filter state the viewer can reach
FILTER_SETS = [
    ([], None),
    (["file*"], None),
    (["*loop*", "m*"], None),
    (["*"], None),
    (["f*"], (INCLUSIVE, 0.05)),
    ([], (INCLUSIVE, 0.25)),
    ([], (MetricSpec(0, MetricFlavor.EXCLUSIVE), 0.1)),
    # boundaries: a single root holds exactly the total; zero rows stay
    ([], (INCLUSIVE, 1.0)),
    ([], (INCLUSIVE, 0.0)),
]


class TestFilterShimIdentity:
    def test_apply_matches_reference(self, exp):
        for view in exp.views():
            for patterns, threshold in FILTER_SETS:
                got = _elide(view, view.roots, patterns, threshold)
                want = _reference_apply(view, view.roots, patterns, threshold)
                assert [id(n) for n in got] == [id(n) for n in want]

    def test_children_of_matches_reference(self, exp):
        view = exp.views()[0]
        for patterns, threshold in FILTER_SETS:
            forest = _elide(view, view.roots, patterns, threshold)
            for node in forest:
                got = _elide(view, node.children, patterns, threshold)
                want = _reference_apply(view, node.children, patterns,
                                        threshold)
                assert [id(n) for n in got] == [id(n) for n in want]

    def test_subset_roots(self, exp):
        view = exp.views()[0]
        roots = view.roots[:1]
        for patterns, threshold in FILTER_SETS:
            got = _elide(view, roots, patterns, threshold)
            want = _reference_apply(view, roots, patterns, threshold)
            assert [id(n) for n in got] == [id(n) for n in want]
