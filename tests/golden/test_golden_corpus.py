"""Tier-1 golden-corpus drift test.

The checked-in ``.rpdb`` fixtures are decoded through every reader path
— eager strict, mmap streaming, and salvage — and the three rendered
views are compared **byte-for-byte** against the checked-in golden
text.  Any drift anywhere in decode → attribution (Eq. 1/2) → view
construction → table formatting fails here, on both the legacy v1 and
framed v2 formats.

Regenerate intentionally with::

    PYTHONPATH=src python tools/gen_golden.py --write
"""

from __future__ import annotations

import os

import pytest

from repro.hpcprof import binio, database
from tests.golden import corpus

NAMES = sorted(corpus.FIXTURES)
_missing = [n for n in NAMES
            if not os.path.exists(os.path.join(corpus.DATA_DIR,
                                               f"{n}.v2.rpdb"))]
pytestmark = pytest.mark.skipif(
    bool(_missing),
    reason=f"golden corpus not generated (missing {_missing}); "
           f"run tools/gen_golden.py --write",
)


def _data(name: str) -> str:
    return os.path.join(corpus.DATA_DIR, name)


def _golden_views(name: str) -> dict[str, str]:
    out = {}
    for slug in corpus.VIEW_SLUGS:
        with open(_data(f"{name}.{slug}.txt"), encoding="utf-8") as fh:
            out[slug] = fh.read()
    return out


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("version", ["v1", "v2"])
def test_eager_load_renders_golden(name: str, version: str) -> None:
    exp = database.load(_data(f"{name}.{version}.rpdb"))
    assert corpus.render_views(exp) == _golden_views(name)


@pytest.mark.parametrize("name", NAMES)
def test_streaming_load_renders_golden(name: str) -> None:
    """The mmap streaming reader decodes to the identical presentation."""
    exp = database.load(_data(f"{name}.v2.rpdb"), out_of_core=True)
    assert corpus.render_views(exp) == _golden_views(name)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("version", ["v1", "v2"])
def test_salvage_of_intact_file_renders_golden(name: str,
                                               version: str) -> None:
    """Salvage mode on an *intact* database loses nothing."""
    exp = database.load(_data(f"{name}.{version}.rpdb"), strict=False)
    report = getattr(exp, "load_report", None)
    assert report is None or report.clean
    assert corpus.render_views(exp) == _golden_views(name)


@pytest.mark.parametrize("name", NAMES)
def test_reserialization_is_byte_stable(name: str) -> None:
    """decode → encode reproduces the checked-in bytes exactly, both
    formats — pins the encoders, string-table interning order and all."""
    for version in (1, 2):
        path = _data(f"{name}.v{version}.rpdb")
        with open(path, "rb") as fh:
            blob = fh.read()
        exp = binio.loads_binary(blob)
        assert binio.dumps_binary(exp, version=version) == blob


@pytest.mark.parametrize("name", NAMES)
def test_fixture_builders_still_match_corpus(name: str) -> None:
    """The deterministic builders still produce the checked-in bytes."""
    exp = corpus.build_fixture(name)
    for version in (1, 2):
        with open(_data(f"{name}.v{version}.rpdb"), "rb") as fh:
            assert binio.dumps_binary(exp, version=version) == fh.read()


def test_columnar_table_frame_is_byte_stable() -> None:
    """The framed columnar table bytes for the pinned fixture are exact.

    Re-encoding the checked-in database must reproduce the checked-in
    frame (pins magic, framing, header JSON and slab layout), and the
    checked-in frame must still decode to the same table the JSON
    encoding serves.
    """
    from repro.core.views import ViewKind
    from repro.server.sessions import table_snapshot
    from repro.server.wire import decode_columnar
    from repro.viewer.session import ViewerSession

    name = corpus.COLUMNAR_FIXTURE
    exp = database.load(_data(f"{name}.v2.rpdb"))
    with open(_data(f"{name}.table.rpcol"), "rb") as fh:
        golden = fh.read()
    assert corpus.columnar_table_bytes(exp) == golden

    decoded = decode_columnar(golden)
    snapshot = table_snapshot(ViewerSession(exp), ViewKind.CALLING_CONTEXT,
                              depth=4, max_rows=120)
    reference = {k: v for k, v in
                 snapshot.to_json_payload("s1").items() if k != "session"}
    assert decoded == reference


# --------------------------------------------------------------------- #
# golden query corpus
# --------------------------------------------------------------------- #
def test_query_corpus_is_byte_stable() -> None:
    """Every fixture x query pair still produces the checked-in JSON —
    pins pattern matching, predicate evaluation, subtree operators,
    value gathering and result ordering in one sweep."""
    for name, content in sorted(corpus.query_outputs().items()):
        with open(_data(name), "rb") as fh:
            assert fh.read() == content, f"golden drift in {name}"


@pytest.mark.parametrize("name", NAMES)
def test_queries_from_pinned_files_match_golden(name: str) -> None:
    """Queries over the checked-in ``.rpdb`` bytes reproduce the golden
    results — the loader path and the builder path agree."""
    import json

    from repro.query import run_query

    exp = database.load(_data(f"{name}.v2.rpdb"))
    metric = exp.metrics.by_id(0).name
    for slug, build in sorted(corpus.GOLDEN_QUERIES.items()):
        result = run_query(build(metric), exp)
        payload = result.to_columns()
        payload["truncated"] = result.truncated
        with open(_data(f"{name}.query.{slug}.json"),
                  encoding="utf-8") as fh:
            assert json.load(fh) == json.loads(json.dumps(payload)), \
                f"{name}.query.{slug}"


# --------------------------------------------------------------------- #
# ensemble diff corpus
# --------------------------------------------------------------------- #
def _ensemble_member_paths() -> list[str]:
    return [_data(f"ensemble-m{i}.v2.rpdb") for i in range(4)]


def test_ensemble_outputs_are_byte_stable() -> None:
    """The ensemble builders still produce every checked-in byte.

    One comparison covers the member binaries, the three rendered diff
    views, and the findings JSON — any drift in alignment, diff
    attribution, share computation, or detection ordering fails here.
    """
    for name, content in sorted(corpus.ensemble_outputs().items()):
        with open(_data(name), "rb") as fh:
            assert fh.read() == content, f"golden drift in {name}"


def test_merged_store_is_byte_stable() -> None:
    """``merge_rank_files`` over the scale ranks still writes every
    checked-in byte: skeleton, engine columns and rank matrices."""
    for name, content in corpus.merge_store_outputs().items():
        with open(_data(name), "rb") as fh:
            assert fh.read() == content, f"golden drift in {name}"


def test_ensemble_diff_from_pinned_files_matches_golden() -> None:
    """Aligning the checked-in ``.rpdb`` members reproduces the golden
    diff renders — the file-path loader and the in-memory path agree."""
    from repro.core.ensemble import align_experiments

    ensemble = align_experiments(_ensemble_member_paths(),
                                 name="golden-ensemble")
    diff = ensemble.diff("mean", corpus.ENSEMBLE_TARGET)
    rendered = corpus.render_views(diff)
    for slug in corpus.VIEW_SLUGS:
        with open(_data(f"ensemble-diff.{slug}.txt"),
                  encoding="utf-8") as fh:
            assert rendered[slug] == fh.read()


def test_ensemble_planted_regressions_all_flagged() -> None:
    """Every planted drift scope is found — the no-false-negative pin."""
    import json

    from repro.core.ensemble import align_experiments, detect_regressions

    ensemble = align_experiments(_ensemble_member_paths(),
                                 name="golden-ensemble")
    findings = detect_regressions(ensemble, target=corpus.ENSEMBLE_TARGET)
    regressed = {f.scope for f in findings if f.kind == "regression"}
    assert set(corpus.ENSEMBLE_PLANTED) <= regressed

    with open(_data("ensemble.findings.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    assert [f.to_payload() for f in findings] == golden["findings"]


# --------------------------------------------------------------------- #
# golden trace corpus
# --------------------------------------------------------------------- #
TRACE_NAMES = sorted(corpus.TRACE_FIXTURES)


def test_trace_corpus_is_byte_stable() -> None:
    """Every trace fixture still produces every checked-in byte — store
    files (manifest, skeleton, chunk events and slabs) plus the pinned
    window-query / flame-slab / series JSON renders in one sweep."""
    for name, content in sorted(corpus.trace_outputs().items()):
        with open(_data(name), "rb") as fh:
            assert fh.read() == content, f"golden drift in {name}"


@pytest.mark.parametrize("name", TRACE_NAMES)
def test_trace_store_reserialization_is_byte_stable(name: str,
                                                    tmp_path) -> None:
    """Writing the same trace twice produces identical store bytes —
    chunk partitioning, manifest layout, and slab encoding carry no
    run-to-run state (no timestamps, no randomized ordering)."""
    traces = corpus.build_trace_fixture(name)
    first = corpus.trace_store_files(traces, str(tmp_path / "a"))
    second = corpus.trace_store_files(traces, str(tmp_path / "b"))
    assert first == second


@pytest.mark.parametrize("name", TRACE_NAMES)
def test_windowed_queries_from_pinned_store_match_golden(name: str,
                                                         tmp_path) -> None:
    """The checked-in store bytes answer the pinned window query with
    the pinned JSON — the chunked loader path and the in-memory builder
    path agree on every cell."""
    import json
    import shutil

    from repro.query import query, run_query
    from repro.trace import open_trace

    store_dir = tmp_path / "store" / "trace"
    store_dir.mkdir(parents=True)
    prefix = f"{name}.trace."
    for fname in os.listdir(corpus.DATA_DIR):
        if fname.startswith(prefix) and not fname.endswith(
                (".window.json", ".flame.json", ".series.json")):
            shutil.copy(_data(fname), store_dir / fname[len(prefix):])

    with open(_data(f"{name}.trace.window.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    t0, t1 = golden["window"]
    with open_trace(str(tmp_path / "store")) as store:
        metric = store.metrics.by_id(0).name
        result = run_query(query("**/*").window(t0, t1).sort(metric),
                           store)
        payload = result.to_columns()
        payload["truncated"] = result.truncated
        payload["window"] = [t0, t1]
        assert json.loads(json.dumps(payload)) == golden


@pytest.mark.parametrize("name", TRACE_NAMES)
def test_flame_slab_from_pinned_store_matches_golden(name: str,
                                                     tmp_path) -> None:
    """The checked-in chunk bytes render the pinned flame slab."""
    import json
    import shutil

    from repro.trace import flame_slab, open_trace

    store_dir = tmp_path / "trace"
    store_dir.mkdir(parents=True)
    prefix = f"{name}.trace."
    for fname in os.listdir(corpus.DATA_DIR):
        if fname.startswith(prefix) and not fname.endswith(
                (".window.json", ".flame.json", ".series.json")):
            shutil.copy(_data(fname), store_dir / fname[len(prefix):])

    with open(_data(f"{name}.trace.flame.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    with open_trace(str(store_dir)) as store:
        slab = flame_slab(store, rank=0)
    assert json.loads(json.dumps(slab)) == golden


def test_ensemble_alignment_matrices_match_in_memory() -> None:
    """File-based and in-memory alignment produce bit-identical matrices."""
    import numpy as np

    from repro.core.ensemble import align_experiments

    from_files = align_experiments(_ensemble_member_paths())
    in_memory = align_experiments(corpus.ensemble_members())
    assert from_files.alignment.matrices.keys() \
        == in_memory.alignment.matrices.keys()
    for key, matrix in from_files.alignment.matrices.items():
        assert np.array_equal(matrix, in_memory.alignment.matrices[key]), key
