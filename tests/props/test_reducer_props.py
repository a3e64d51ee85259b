"""Differential battery: the array union reducer vs. the node-by-node graft.

:func:`~repro.hpcprof.align.align_members` and
:func:`~repro.hpcprof.merge.merge_rank_files` reduce their members as
preorder arrays through one keyed union.  The reference is the reducer
they replaced, frozen in :mod:`tests.oracles`: every member loaded as an
experiment, its structure mapped, its tree grafted node by node with
``add_into`` raw sums and its values recorded beside the union nodes.
The two must agree exactly, ``float.hex`` by ``float.hex`` and in key
order:

* the union trees — preorder keys and child order — and the canonical
  structure models;
* every union node's raw, inclusive and exclusive dicts;
* the alignment matrices;
* every file of the merged store, manifest included.

Members are random trees over independently built structure models, so
shared siblings come in different orders and subtrees are absent or
extra; each member is in memory, a ``.rpdb`` file or a ``.rpstore``
directory.  Raw costs are drawn from a pool of values that cancel, so a
union entry can drop out and be re-inserted at the end of its dict.
"""

from __future__ import annotations

import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attribution import attribute
from repro.core.cct import CCT
from repro.core.metrics import MetricTable
from repro.core.store import create_store
from repro.hpcprof import database
from repro.hpcprof.align import FLAVORS, align_members
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.merge import merge_rank_files
from repro.hpcstruct.model import (
    SourceLocation,
    StructKind,
    StructureModel,
    StructureNode,
)
from tests.oracles import oracle_merge_rank_files, oracle_reduce

PROCS = ("main", "f", "g", "h", "x")
NMETRICS = 3
#: values with exact negatives, so sums cancel across members
COSTS = (1.0, -1.0, 0.5, -0.5, 0.1, 0.2, 0.3, -0.3, 1e-17, 3.0)


def _structure(rng: random.Random, extra: bool) -> dict:
    """A fresh model of the test program; procedures in a random order,
    ``x`` only when *extra*.  Returns name -> (procedure, loop) plus the
    model under ``None``."""
    model = StructureModel("prog")
    module = model.add_load_module("a.out")
    source = model.add_file(module, "a.c")
    names = list(PROCS if extra else PROCS[:-1])
    rng.shuffle(names)
    scopes: dict = {None: model}
    for name in names:
        base = 100 * (PROCS.index(name) + 1)
        proc = model.add_procedure(source, name, base, base + 50)
        loop = StructureNode(StructKind.LOOP, "",
                             SourceLocation("a.c", base + 10, base + 20),
                             parent=proc)
        scopes[name] = (proc, loop)
    return scopes


def _raw(rng: random.Random) -> dict:
    mids = rng.sample(range(NMETRICS), rng.randint(1, NMETRICS))
    return {mid: rng.choice(COSTS) for mid in mids}


def _grow(rng, frame, name, scopes, depth) -> None:
    """Random children under *frame*, a frame of procedure *name*."""
    proc, loop = scopes[name]
    base = proc.location.line
    for _ in range(rng.randint(0, 3)):
        pick = rng.random()
        if pick < 0.35:
            node = frame.ensure_statement(base + rng.choice((2, 3, 4)))
            node.raw = _raw(rng)
        elif pick < 0.55:
            node = frame.ensure_loop(loop)
            inner = node.ensure_statement(base + rng.choice((11, 12)))
            inner.raw = _raw(rng)
            if rng.random() < 0.3:
                node.raw = _raw(rng)
        else:
            site = frame.ensure_call_site(base + rng.choice((5, 6)))
            if rng.random() < 0.3:
                site.raw = _raw(rng)
            callees = [n for n in scopes if n is not None]
            callee = rng.choice(callees)
            if depth < 4:
                _grow(rng, site.ensure_frame(scopes[callee][0]), callee,
                      scopes, depth + 1)


def _metrics() -> MetricTable:
    table = MetricTable()
    for i in range(NMETRICS):
        table.add(f"m{i}")
    return table


def _member(rng: random.Random, i: int) -> Experiment:
    scopes = _structure(rng, extra=rng.random() < 0.5)
    model = scopes.pop(None)
    cct = CCT(model)
    for _ in range(rng.randint(1, 2)):
        entry = rng.choice(["main", "f"])
        _grow(rng, cct.root.ensure_frame(scopes[entry][0]), entry, scopes, 0)
    attribute(cct)
    return Experiment(f"member-{i}", _metrics(), model, cct)


def _on_backend(exp: Experiment, backend: str, directory: str, i: int):
    if backend == "memory":
        return exp
    if backend == "rpdb":
        path = os.path.join(directory, f"m{i}.rpdb")
        database.save(exp, path)
        return path
    path = os.path.join(directory, f"m{i}.rpstore")
    create_store(exp, path).close()
    return path


def _hex(values: dict) -> list:
    return [(mid, float(v).hex()) for mid, v in values.items()]


def tree_signature(nodes) -> list:
    """Preorder keys, parent rows and the three value dicts, in key
    order, of a tree given as its preorder node list."""
    rows = {node.uid: row for row, node in enumerate(nodes)}
    out = []
    for node in nodes:
        parent = node.parent
        out.append((
            -1 if parent is None else rows[parent.uid],
            node.kind.value,
            None if node.struct is None else node.struct.key,
            node.line,
            _hex(node.raw), _hex(node.inclusive), _hex(node.exclusive),
        ))
    return out


def model_signature(model: StructureModel) -> list:
    out, stack = [], [(model.root, 0)]
    while stack:
        node, depth = stack.pop()
        out.append((depth, node.key, node.calls))
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return out


def assert_alignment_matches_oracle(sources) -> None:
    alignment = align_members(sources, name="battery")
    union = oracle_reduce(sources, FLAVORS, model=StructureModel("battery"))
    assert tree_signature(alignment.nodes) == tree_signature(union.nodes)
    assert model_signature(alignment.union.structure) \
        == model_signature(union.tree.structure)
    assert list(alignment.matrices) == union.columns
    for j, key in enumerate(union.columns):
        got = alignment.matrices[key]
        want = [rows[j] for rows in union.rows]
        assert [[x.hex() for x in row.tolist()] for row in got] \
            == [[x.hex() for x in row.tolist()] for row in want], key


def _files(root: str) -> dict[str, bytes]:
    out = {}
    for base, _dirs, names in os.walk(root):
        for name in names:
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


def assert_merge_matches_oracle(sources, directory: str) -> None:
    got, want = (os.path.join(directory, f"{side}.rpstore")
                 for side in ("array", "oracle"))
    merge_rank_files(sources, got, name="battery")
    oracle_merge_rank_files(sources, want, name="battery")
    assert _files(got) == _files(want)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       backends=st.lists(st.sampled_from(["memory", "rpdb", "rpstore"]),
                         min_size=2, max_size=4))
def test_array_union_matches_node_by_node_graft(seed, backends):
    rng = random.Random(seed)
    members = [_member(rng, i) for i in range(len(backends))]
    with tempfile.TemporaryDirectory() as directory:
        sources = [_on_backend(exp, backend, directory, i)
                   for i, (exp, backend) in enumerate(zip(members, backends))]
        assert_alignment_matches_oracle(sources)
        assert_merge_matches_oracle(sources, directory)


def _single(name: str, raw: dict) -> Experiment:
    scopes = _structure(random.Random(0), extra=False)
    model = scopes.pop(None)
    cct = CCT(model)
    frame = cct.root.ensure_frame(scopes["main"][0])
    frame.ensure_statement(102).raw = dict(raw)
    attribute(cct)
    return Experiment(name, _metrics(), model, cct)


def test_cancelled_entry_is_reinserted_at_the_end():
    """``add_into`` drops an entry whose sum reaches 0; a later member
    re-inserts it after the entries that stayed."""
    members = [_single("a", {0: 1.0, 1: 2.0}), _single("b", {0: -1.0}),
               _single("c", {0: 5.0})]
    alignment = align_members(members)
    statement = alignment.nodes[-1]
    assert list(statement.raw.items()) == [(1, 2.0), (0, 5.0)]
    assert_alignment_matches_oracle(members)
    with tempfile.TemporaryDirectory() as directory:
        assert_merge_matches_oracle(members, directory)


def _chain(depth: int) -> Experiment:
    """``main`` calling itself *depth* times, a cost at the bottom."""
    scopes = _structure(random.Random(1), extra=False)
    model = scopes.pop(None)
    cct = CCT(model)
    proc = scopes["main"][0]
    frame = cct.root.ensure_frame(proc)
    for _ in range(depth):
        frame = frame.ensure_call_site(105).ensure_frame(proc)
    frame.ensure_statement(102).raw = {0: 1.5, 2: 0.25}
    attribute(cct)
    return Experiment("chain", _metrics(), model, cct)


def test_deep_chain_member_reduces_without_recursion():
    """A 5 000-deep call chain, in memory and as a file, aligns and
    merges exactly as the node-by-node graft does."""
    chain = _chain(5000)
    other = _member(random.Random(7), 1)
    with tempfile.TemporaryDirectory() as directory:
        path = _on_backend(chain, "rpdb", directory, 0)
        for sources in ([chain, other], [path, other]):
            assert_alignment_matches_oracle(sources)
        assert_merge_matches_oracle([path, other], directory)


def test_duplicate_sibling_scopes_sum_into_one_union_node():
    """A member holding two sibling scopes with one key (a database can
    carry them; the tree builders never make them) lands both on one
    union node, summing their values as the graft does."""
    from repro.core.cct import CCTKind, CCTNode

    scopes = _structure(random.Random(2), extra=False)
    model = scopes.pop(None)
    cct = CCT(model)
    proc = scopes["main"][0]
    frame = cct.root.ensure_frame(proc)
    for value in (0.1, 0.2):
        twin = CCTNode(CCTKind.STATEMENT, struct=proc, line=102, parent=frame)
        twin.raw = {0: value, 1: 1.0}
    attribute(cct)
    dup = Experiment("dup", _metrics(), model, cct)
    members = [dup, _single("b", {0: 0.3})]
    assert_alignment_matches_oracle(members)
    alignment = align_members(members)
    assert len(alignment.nodes) == 3
    with tempfile.TemporaryDirectory() as directory:
        path = _on_backend(dup, "rpdb", directory, 0)
        assert_alignment_matches_oracle([path, members[1]])
        assert_merge_matches_oracle([path, members[1]], directory)
