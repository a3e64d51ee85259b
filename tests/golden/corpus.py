"""Golden regression corpus: fixture builders + the canonical rendering.

One place defines (a) the deterministic experiments that make up the
corpus and (b) exactly how they are rendered to text, so the generator
(``tools/gen_golden.py``) and the tier-1 drift test
(``tests/golden/test_golden_corpus.py``) can never disagree about what
"the golden output" means.

Every fixture is checked in twice — as a framed v2 ``.rpdb`` and a
frozen legacy v1 ``.rpdb`` (written by the retired v1 encoder, kept to
pin the v1 reader) — plus one golden text file per view.  The test
loads each binary through every reader path (eager, mmap-streaming,
salvage) and asserts the rendered views match the golden text
byte-for-byte, which pins the whole decode → attribute → view →
format pipeline against drift.
"""

from __future__ import annotations

import os
import shutil
import tempfile

from repro.core.metrics import MetricFlavor, MetricSpec
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.merge import merge_experiments
from repro.viewer.table import TableOptions, render_view

__all__ = ["COLUMNAR_FIXTURE", "DATA_DIR", "ENSEMBLE_DROPPED",
           "ENSEMBLE_PLANTED", "ENSEMBLE_TARGET", "FIXTURES",
           "GOLDEN_QUERIES", "TRACE_CHUNK_DURATION", "TRACE_FIXTURES",
           "VIEW_SLUGS", "build_fixture", "build_trace_fixture",
           "alignment_payload", "columnar_table_bytes", "ensemble_members",
           "ensemble_outputs", "merge_store_outputs", "query_outputs",
           "render_views", "scale_ranks", "trace_outputs",
           "trace_store_files", "trace_window"]

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

#: file-name slug for each of the three presentation views, in order
VIEW_SLUGS = ("cct", "callers", "flat")

#: fixture name -> builder (zero-argument, fully deterministic)
FIXTURES: dict[str, "callable"] = {}


def _fixture(fn):
    FIXTURES[fn.__name__.replace("_", "-")] = fn
    return fn


@_fixture
def fig1_serial() -> Experiment:
    """The paper's Figure 1 program, one rank."""
    from repro.sim.workloads import fig1

    return Experiment.from_program(fig1.build(), nranks=1, seed=7)


@_fixture
def fig1_ranks4() -> Experiment:
    """Figure 1 across four ranks (union CCT, no summaries)."""
    from repro.sim.workloads import fig1

    return Experiment.from_program(fig1.build(), nranks=4, seed=7)


@_fixture
def scale_merged() -> Experiment:
    """Six imbalanced ranks of the scale program merged with summaries.

    Exercises the summary-statistic metrics (mean/min/max/stddev) in the
    golden render — the part of the format the out-of-core merge must
    reproduce bit-for-bit.
    """
    return merge_experiments(scale_ranks(), name="scale-merged",
                             summarize="all")


def scale_ranks() -> list[Experiment]:
    """The six imbalanced single-rank experiments behind ``scale-merged``."""
    from repro.hpcstruct.synthstruct import build_structure
    from repro.sim.executor import execute
    from repro.sim.scale import scale_program

    program = scale_program(fanout=3, depth=2, imbalance="linear_skew")
    structure = build_structure(program)
    ranks = []
    for rank in range(6):
        profile = execute(program, rank=rank, nranks=6, seed=99)
        ranks.append(Experiment.from_profile(profile, structure,
                                             name=f"scale-r{rank}"))
    return ranks


@_fixture
def recursive_ladder() -> Experiment:
    """Self-recursion under several contexts (exposed-instance rule)."""
    from repro.sim.workloads.synthetic import recursive_ladder

    return Experiment.from_program(recursive_ladder(), nranks=1, seed=11)


#: the one fixture whose framed columnar table bytes are pinned —
#: ``<name>.table.rpcol`` in the data directory guards the wire format
#: (magic, framing, header JSON, column slab layout) against drift
COLUMNAR_FIXTURE = "fig1-serial"


def build_fixture(name: str) -> Experiment:
    return FIXTURES[name]()


def columnar_table_bytes(experiment: Experiment) -> bytes:
    """The canonical columnar table frame for a fixture.

    Calling-context view, four levels deep, the golden renders' row
    budget — the same shape a ``GET /table`` with columnar ``Accept``
    serves, so the pin covers the exact bytes a client decodes.
    """
    from repro.core.views import ViewKind
    from repro.server.sessions import table_snapshot
    from repro.server.wire import encode_columnar
    from repro.viewer.session import ViewerSession

    session = ViewerSession(experiment)
    snapshot = table_snapshot(session, ViewKind.CALLING_CONTEXT,
                              depth=4, max_rows=120)
    return encode_columnar(snapshot)


# --------------------------------------------------------------------- #
# the golden query corpus: every fixture through the query language
# --------------------------------------------------------------------- #

#: query slug -> builder taking the fixture's first metric name.  Covers
#: the language's operator surface: match, any-depth, category objects,
#: metric predicates, prune, squash, groupby, sort + limit.
GOLDEN_QUERIES: dict[str, "callable"] = {
    "all": lambda m: _query("**/*"),
    "loops": lambda m: _query('** / {"category": "loop"}'),
    "hot": lambda m: _query("**/*").filter(f"{m}.exclusive >= 5%")
                                   .sort(m, "exclusive"),
    "squashed": lambda m: _query("** / p*").squash(),
    "pruned": lambda m: _query("**/*").prune("*loop*").limit(10),
    "by-category": lambda m: _query("**/*").groupby("category").sort(m),
}


def _query(pattern):
    from repro.query import query as make_query

    return make_query(pattern)


def query_outputs() -> dict[str, bytes]:
    """filename -> bytes for the golden query corpus.

    Every fixture runs through every :data:`GOLDEN_QUERIES` shape; the
    columnar result is pinned as sorted JSON
    (``<fixture>.query.<slug>.json``).  Any drift in pattern matching,
    predicate evaluation, subtree operators, value gathering, or result
    ordering changes checked-in bytes.
    """
    import json

    from repro.query import run_query

    out: dict[str, bytes] = {}
    for name in sorted(FIXTURES):
        experiment = build_fixture(name)
        metric = experiment.metrics.by_id(0).name
        for slug, build in sorted(GOLDEN_QUERIES.items()):
            result = run_query(build(metric), experiment)
            payload = result.to_columns()
            payload["truncated"] = result.truncated
            out[f"{name}.query.{slug}.json"] = (
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            ).encode("utf-8")
    return out


# --------------------------------------------------------------------- #
# the ensemble diff corpus: four seeded runs with planted faults
# --------------------------------------------------------------------- #

#: the subtree member 1 is missing (union tolerance of absent scopes)
ENSEMBLE_DROPPED = "p2_0"

#: frames whose costs member 3 doubles — the planted regressions every
#: detection run over this corpus must flag (the no-false-negative pin)
ENSEMBLE_PLANTED = ("p1_1",)

#: the member the golden diff and findings target
ENSEMBLE_TARGET = 3


def _in_subtree(node, frame_name: str) -> bool:
    return any(f.name == frame_name for f in node.call_path())


def ensemble_members() -> list[Experiment]:
    """Four deterministic runs of the scale program, with seeded faults.

    Members 0 and 2 are pristine; member 1 is missing the
    :data:`ENSEMBLE_DROPPED` subtree entirely (alignment must tolerate
    the hole); member 3 doubles every cost under each
    :data:`ENSEMBLE_PLANTED` frame — the planted inclusive-share
    regression the detector must find.
    """
    from repro.core.attribution import attribute
    from repro.hpcstruct.synthstruct import build_structure
    from repro.sim.executor import execute
    from repro.sim.scale import scale_program

    program = scale_program(fanout=2, depth=2)
    structure = build_structure(program)
    members = []
    for rank in range(4):
        profile = execute(program, rank=rank, nranks=4, seed=31)
        members.append(Experiment.from_profile(profile, structure,
                                               name=f"ens-{rank}"))

    dropped = members[1]
    dropped.cct.prune(lambda n: not _in_subtree(n, ENSEMBLE_DROPPED))
    attribute(dropped.cct)
    dropped.cct.invalidate_caches()

    drifted = members[ENSEMBLE_TARGET]
    for node in drifted.cct.walk():
        if any(_in_subtree(node, name) for name in ENSEMBLE_PLANTED):
            for mid, value in list(node.raw.items()):
                node.raw[mid] = value * 2.0
    attribute(drifted.cct)
    drifted.cct.invalidate_caches()
    return members


def ensemble_outputs() -> dict[str, bytes]:
    """filename -> bytes for the ensemble diff corpus.

    Pins each member's framed v2 binary, the canonical rendering of the
    three diff views (target member vs the corpus mean), and the full
    regression-findings JSON — so any drift in alignment, diff
    attribution, share computation, or detection thresholds changes
    checked-in bytes.
    """
    import json

    from repro.core.ensemble import align_experiments, detect_regressions
    from repro.hpcprof import binio

    members = ensemble_members()
    out: dict[str, bytes] = {}
    for i, member in enumerate(members):
        out[f"ensemble-m{i}.v2.rpdb"] = binio.dumps_binary(member)
    ensemble = align_experiments(members, name="golden-ensemble")
    diff = ensemble.diff("mean", ENSEMBLE_TARGET)
    for slug, text in render_views(diff).items():
        out[f"ensemble-diff.{slug}.txt"] = text.encode("utf-8")
    findings = detect_regressions(ensemble, target=ENSEMBLE_TARGET)
    payload = {
        "target": ensemble.names[ENSEMBLE_TARGET],
        "planted": list(ENSEMBLE_PLANTED),
        "findings": [f.to_payload() for f in findings],
    }
    out["ensemble.findings.json"] = (
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")
    out["ensemble.align.memory.json"] = _dump_json(
        alignment_payload(ensemble.alignment))
    tmp = tempfile.mkdtemp(prefix="golden-ensemble-")
    try:
        paths = []
        for i in range(len(members)):
            path = os.path.join(tmp, f"ensemble-m{i}.v2.rpdb")
            with open(path, "wb") as fh:
                fh.write(out[f"ensemble-m{i}.v2.rpdb"])
            paths.append(path)
        from_files = align_experiments(paths, name="golden-ensemble")
        out["ensemble.align.files.json"] = _dump_json(
            alignment_payload(from_files.alignment))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def _dump_json(payload) -> bytes:
    import json

    return (json.dumps(payload, indent=2, sort_keys=True) + "\n"
            ).encode("utf-8")


def alignment_payload(alignment) -> dict:
    """An alignment's union preorder keys and matrices, as ``float.hex``.

    Each union scope is ``[parent row, kind, static scope, line]`` in
    preorder, the static scope being its structural key (kind, name,
    file, line) or null; each matrix is keyed ``<mid>.<flavor>`` and
    holds one list of hex floats per member.
    """
    rows = {node.uid: row for row, node in enumerate(alignment.nodes)}
    keys = []
    for node in alignment.nodes:
        parent = node.parent
        struct = node.struct
        keys.append([
            -1 if parent is None else rows[parent.uid],
            node.kind.value,
            None if struct is None else list(struct.key),
            node.line,
        ])
    matrices = {
        f"{mid}.{flavor}": [[float(x).hex() for x in row] for row in matrix]
        for (mid, flavor), matrix in sorted(alignment.matrices.items())
    }
    return {"names": list(alignment.names), "keys": keys,
            "matrices": matrices}


# --------------------------------------------------------------------- #
# the golden merged store: the scale ranks folded by merge_rank_files
# --------------------------------------------------------------------- #
def merge_store_outputs() -> dict[str, bytes]:
    """filename -> bytes of the store ``merge_rank_files`` builds from
    the six :func:`scale_ranks` databases.

    Every file but ``manifest.json`` is pinned, flattened as
    ``scale-merged.store.<path with '/' as '.'>``: the skeleton, the
    three engine column files and every rank matrix.  Any drift in the
    union, its attribution, the per-rank rows or the summaries changes
    checked-in bytes.
    """
    from repro.hpcprof import binio
    from repro.hpcprof.merge import merge_rank_files

    out: dict[str, bytes] = {}
    tmp = tempfile.mkdtemp(prefix="golden-store-")
    try:
        paths = []
        for i, rank in enumerate(scale_ranks()):
            path = os.path.join(tmp, f"scale-r{i}.rpdb")
            binio.write_binary(rank, path)
            paths.append(path)
        store = os.path.join(tmp, "scale-merged.rpstore")
        merge_rank_files(paths, store, name="scale-merged")
        for base, _dirs, files in os.walk(store):
            for fname in files:
                full = os.path.join(base, fname)
                rel = os.path.relpath(full, store)
                if rel == "manifest.json":
                    continue
                with open(full, "rb") as fh:
                    out["scale-merged.store." + rel.replace(os.sep, ".")] = \
                        fh.read()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return dict(sorted(out.items()))


# --------------------------------------------------------------------- #
# the golden trace corpus: seeded traces with planted time structure
# --------------------------------------------------------------------- #

#: time-partition width used for every pinned trace store
TRACE_CHUNK_DURATION = 2.0

#: trace fixture name -> builder (zero-argument, fully deterministic)
TRACE_FIXTURES: dict[str, "callable"] = {}


def _trace_fixture(fn):
    TRACE_FIXTURES[fn.__name__.replace("_", "-")] = fn
    return fn


@_trace_fixture
def trace_fig1():
    """The paper's Figure 1 program traced on two ranks — the baseline
    trace: symmetric ranks, one metric, program order as trace time."""
    from repro.sim.spmd import trace_spmd
    from repro.sim.workloads import fig1

    return trace_spmd(fig1.build(), nranks=2, seed=7, trace_slices=2,
                      name="golden-trace-fig1")


@_trace_fixture
def trace_phases():
    """A planted *phase shift*: a light smoothing phase followed by a
    heavy sweep phase.  The flame slab and idleness series must show the
    cost regime changing partway through the trace, and a window
    covering only the first phase must contain no ``sweep`` scopes."""
    from repro.sim.program import Call, Loop, Module, Procedure, Program, Work
    from repro.sim.spmd import trace_spmd

    smooth = Procedure(name="smooth", line=1, end_line=4, body=[
        Work(line=2, costs={"cycles": 1.0}),
    ])
    sweep = Procedure(name="sweep", line=6, end_line=10, body=[
        Work(line=7, costs={"cycles": 3.0}),
        Work(line=8, costs={"cycles": 1.0, "flops": 2.0}),
    ])
    main = Procedure(name="main", line=12, end_line=20, body=[
        Loop(line=13, end_line=15, trips=4,
             body=[Call(line=14, callee="smooth")]),
        Loop(line=16, end_line=18, trips=4,
             body=[Call(line=17, callee="sweep")]),
    ])
    program = Program(
        name="phases",
        modules=[Module(path="phases.c", procedures=[main, smooth, sweep])],
        entry="main",
        metrics=[("cycles", "cycles"), ("flops", "flops")],
    )
    return trace_spmd(program, nranks=2, seed=7, trace_slices=6,
                      name="golden-trace-phases")


@_trace_fixture
def trace_straggler():
    """Planted *late-rank idleness*: per-rank cost grows linearly with
    rank, so high ranks keep computing after low ranks have finished —
    the idleness series must rise toward the end of the trace."""
    from repro.sim.program import Call, Module, Procedure, Program, Work
    from repro.sim.spmd import trace_spmd

    ranked = Procedure(name="ranked_work", line=1, end_line=4, body=[
        Work(line=2,
             costs=lambda ctx: {"cycles": 4.0 * (1 + ctx.rank)}),
    ])
    main = Procedure(name="main", line=6, end_line=10, body=[
        Work(line=7, costs={"cycles": 1.0}),
        Call(line=8, callee="ranked_work"),
    ])
    program = Program(
        name="straggler",
        modules=[Module(path="straggler.c", procedures=[main, ranked])],
        entry="main",
        metrics=[("cycles", "cycles")],
    )
    return trace_spmd(program, nranks=4, seed=7, trace_slices=8,
                      name="golden-trace-straggler")


def build_trace_fixture(name: str):
    return TRACE_FIXTURES[name]()


def trace_window(traces) -> tuple[float, float]:
    """The pinned query window: the middle half of the trace span."""
    t0, t1 = traces.t_begin, traces.t_end
    span = t1 - t0
    return (t0 + 0.25 * span, t0 + 0.75 * span)


def trace_store_files(traces, directory: str) -> dict[str, bytes]:
    """Write *traces* as a chunked store under *directory*; return the
    store's files keyed by basename (manifest, skeleton, chunk pairs)."""
    from repro.trace import create_trace_store

    store = create_trace_store(
        traces, os.path.join(directory, "store.rpstore"),
        chunk_duration=TRACE_CHUNK_DURATION,
    )
    try:
        return {
            fname: open(os.path.join(store.path, fname), "rb").read()
            for fname in sorted(os.listdir(store.path))
        }
    finally:
        store.close()


def trace_outputs() -> dict[str, bytes]:
    """filename -> bytes for the golden trace corpus.

    Every trace fixture pins (a) the exact bytes of its chunked store —
    manifest, skeleton, per-chunk event and slab files, flattened as
    ``<name>.trace.<file>`` — and (b) JSON renders of a mid-half window
    query, the rank-0 flame slab, and the idleness series.  Any drift
    in event ordering, quantization, chunk partitioning, manifest
    layout, window semantics, span merging, or binning changes
    checked-in bytes.
    """
    import json
    import shutil
    import tempfile

    from repro.query import query as make_query
    from repro.query import run_query
    from repro.trace import flame_slab, idleness_series

    def dump(payload) -> bytes:
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n"
                ).encode("utf-8")

    out: dict[str, bytes] = {}
    for name in sorted(TRACE_FIXTURES):
        traces = build_trace_fixture(name)
        tmp = tempfile.mkdtemp(prefix="golden-trace-")
        try:
            for fname, content in trace_store_files(traces, tmp).items():
                out[f"{name}.trace.{fname}"] = content
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        t0, t1 = trace_window(traces)
        metric = traces.metrics.by_id(0).name
        result = run_query(
            make_query("**/*").window(t0, t1).sort(metric), traces
        )
        payload = result.to_columns()
        payload["truncated"] = result.truncated
        payload["window"] = [t0, t1]
        out[f"{name}.trace.window.json"] = dump(payload)
        out[f"{name}.trace.flame.json"] = dump(flame_slab(traces, rank=0))
        out[f"{name}.trace.series.json"] = dump(
            idleness_series(traces, bins=8)
        )
    return out


def render_views(experiment: Experiment) -> dict[str, str]:
    """The canonical text rendering: slug -> table, fixed options.

    Sorted by the first raw metric's inclusive flavour, expanded four
    levels deep, generous row budget — wide enough that value drift
    anywhere near the top of any view changes the bytes.
    """
    metric = MetricSpec(experiment.metrics.by_id(0).mid,
                        MetricFlavor.INCLUSIVE)
    options = TableOptions(max_rows=120, name_width=56)
    out: dict[str, str] = {}
    for slug, view in zip(VIEW_SLUGS, experiment.views()):
        out[slug] = render_view(view, metric=metric, depth=4,
                                options=options) + "\n"
    return out
