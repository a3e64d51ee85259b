"""``explore-paper`` and ``explore-scaled`` — one analyst session per op.

A session opens a database, builds and renders the three views, expands
the hot path, runs one query from a fixed battery, defines a derived
metric and renders the Flat View again.

* ``explore-paper`` runs it on the paper's workload models (fig1,
  pflotran with 8 ranks, s3d, moab), with every (model, query) pair
  once per 20 sessions in a seeded order, and adds an ensemble diff of
  s3d against its tuned variant.  Every tree is below
  ``COLUMNAR_MIN_NODES``, so the dict attribution path does the
  numeric work.
* ``explore-scaled`` runs it on a 4-rank ``.rpstore`` of the scaled
  program (mmap and engine path) and adds a timeline scrub over a
  chunked trace store: one narrow (1 or 5%), one wide (25%) and the full
  window of the span, in seeded order and position, each answered by a
  windowed query, a flame slab and an idleness series.

Every output is checked against fingerprints computed in set-up from an
independent source: the in-memory experiment the database was written
from (paper), ``merge_experiments`` over the rank files (scaled), and
the in-memory trace the store was written from (trace windows).
"""

from __future__ import annotations

import importlib
import os
import random
import statistics

from harness import VIEWS, NullRecorder, digest, query_fingerprint
from repro.core.derived import define_derived
from repro.core.ensemble import align_experiments, detect_regressions
from repro.core.hotpath import hot_path
from repro.core.views import ViewKind
from repro.hpcprof import database
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.merge import merge_experiments, merge_rank_files
from repro.query import Query, query, run_query
from repro.sim.scale import generate_rank_files, scale_program
from repro.sim.spmd import trace_spmd
from repro.sim.workloads import s3d
from repro.trace import (
    create_trace_store,
    flame_slab,
    idleness_series,
    open_trace,
)
from repro.viewer.session import ViewerSession

#: window classes of the timeline scrub, with their widths as fractions
#: of the span; a scrub opens one window of each class
WINDOW_CLASSES = (("narrow", (0.01, 0.05)), ("wide", (0.25,)),
                  ("full", (1.0,)))
DERIVED_FORMULA = "$0 / 1000"


def query_battery(metric: str) -> list[dict]:
    """Five query shapes in wire form, over the database's first metric."""
    return [
        {"pattern": "** / *"},
        {"ops": [{"op": "match", "pattern": "** / *"},
                 {"op": "filter", "where": [f"{metric}.exclusive >= 1%"]}],
         "sort": {"metric": metric, "flavor": "exclusive"}, "limit": 10},
        {"ops": [{"op": "match", "pattern": "** / *"},
                 {"op": "groupby", "key": "name"}],
         "sort": {"metric": metric}},
        {"ops": [{"op": "match", "pattern": "** / *"}, {"op": "squash"}]},
        {"ops": [{"op": "match", "pattern": "** / *"},
                 {"op": "filter", "where": [f"{metric}.inclusive >= 50%"]}]},
    ]


class _Database:
    def __init__(self, path: str, metric: str) -> None:
        self.path = path
        self.metric = metric
        self.specs = query_battery(metric)
        #: fingerprints of a session's renders, hot path, and each query
        self.expected: dict = {}


class ExploreWorkload:
    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.scaled = name == "explore-scaled"

    # ------------------------------------------------------------------ #
    # set-up
    # ------------------------------------------------------------------ #
    def setup(self, workdir: str) -> None:
        rng = random.Random(self.seed)
        if self.scaled:
            self._setup_scaled(workdir, rng)
        else:
            self._setup_paper(workdir)
        self.plans = self._plans(rng, 4096)
        self.begin_phase()
        # warm-up: one session per database shape, outside every timed op
        for i in range(len(self.databases)):
            problems = self.check(-1, self.op(-1, NullRecorder(), plan=(
                i, 0, self.plans[i][2])))
            if problems:
                raise RuntimeError(f"warm-up session failed: {problems}")

    def _setup_paper(self, workdir: str) -> None:
        self.databases = []
        for workload, nranks in (("fig1", 1), ("pflotran", 8), ("s3d", 1),
                                 ("moab", 1)):
            build = importlib.import_module(
                f"repro.sim.workloads.{workload}").build
            path = os.path.join(workdir, f"{workload}.rpdb")
            database.save(Experiment.from_program(build(), nranks=nranks),
                          path)
            # the reference is the in-memory experiment, not the database
            reference = Experiment.from_program(build(), nranks=nranks)
            db = _Database(path, reference.metrics.by_id(0).name)
            self._expect(db, reference)
            self.databases.append(db)
        self.members = []
        members = []
        for tuned in (False, True):
            exp = Experiment.from_program(s3d.build(tuned=tuned))
            path = os.path.join(workdir, f"{exp.name}.rpdb")
            database.save(exp, path)
            self.members.append(path)
            members.append(exp)
        self.expected_ensemble = self._ensemble_fingerprint(
            self._ensemble(members, NullRecorder()))

    def _setup_scaled(self, workdir: str, rng: random.Random) -> None:
        fanout, depth = (3, 3) if self.smoke else (4, 4)
        paths = generate_rank_files(os.path.join(workdir, "ranks"), 4,
                                    fanout=fanout, depth=depth)
        store = os.path.join(workdir, "scaled.rpstore")
        merge_rank_files(paths, store, summarize="all")
        ranks = [database.load(p) for p in paths]
        db = _Database(store, ranks[0].metrics.by_id(0).name)
        # the reference is the in-memory merge, not the store
        self._expect(db, merge_experiments(ranks, name=ranks[0].name,
                                           summarize="all"))
        self.databases = [db]

        tfanout, slices = (3, 8) if self.smoke else (4, 24)
        traces = trace_spmd(scale_program(fanout=tfanout, depth=3),
                            nranks=4, seed=rng.randrange(1 << 30),
                            trace_slices=slices, name="pipeline-trace")
        span = traces.t_end - traces.t_begin
        self.trace_path = os.path.join(workdir, "trace.rpstore")
        create_trace_store(traces, self.trace_path,
                           chunk_duration=span / 64).close()
        self.trace_metric = traces.metrics.by_id(0).name
        # a pool of seeded windows, each with its in-memory reference; one
        # position per quarter of the span, so every seed scrubs alike
        self.windows, self.by_class = [], []
        for cls, widths in WINDOW_CLASSES:
            self.by_class.append([])
            for width, quarter in ((w, q) for w in widths
                                   for q in range(1 if w >= 1.0 else 4)):
                self.by_class[-1].append(len(self.windows))
                if width >= 1.0:
                    lo = hi = None
                else:
                    lo = traces.t_begin + (quarter + rng.random()) / 4 * \
                        (1 - width) * span
                    hi = lo + width * span
                rank = rng.randrange(traces.nranks)
                q = query("**/*").window(lo, hi).sort(self.trace_metric) \
                    .limit(50)
                self.windows.append({
                    "class": cls, "lo": lo, "hi": hi, "rank": rank,
                    "query": query_fingerprint(run_query(q, traces)),
                    "flame": digest(flame_slab(traces, rank=rank, t0=lo,
                                               t1=hi)),
                    "series": digest(idleness_series(traces, lo, hi,
                                                     bins=16)),
                })

    def _plans(self, rng: random.Random, count: int) -> list[tuple]:
        """``(database index, query index, trace windows)`` per session.

        Every cycle of ``len(databases) * len(specs)`` sessions runs each
        (database, query) pair once, in a seeded order, so the mix is
        the same for every seed.  A scrub visits one window of every
        class, in a seeded order.
        """
        pairs = [(d, q) for d in range(len(self.databases))
                 for q in range(len(self.databases[0].specs))]
        plans = []
        while len(plans) < count:
            rng.shuffle(pairs)
            for db_index, qidx in pairs:
                windows = ()
                if self.scaled:
                    classes = list(self.by_class)
                    rng.shuffle(classes)
                    windows = tuple(rng.choice(c) for c in classes)
                plans.append((db_index, qidx, windows))
        return plans

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------ #
    # one session
    # ------------------------------------------------------------------ #
    def _analyze(self, exp, db: _Database, qidx: int, sp) -> dict:
        session = ViewerSession(exp)
        texts = {}
        for kind, slug in VIEWS:
            with sp.span(f"core.view_build.{slug}"):
                session.view(kind)
            with sp.span(f"viewer.render.{slug}"):
                texts[slug] = session.render(kind, expand_depth=3)
        spec = exp.spec(db.metric)
        with sp.span("core.hotpath"):
            path = hot_path(session.view(ViewKind.CALLING_CONTEXT), spec)
        with sp.span("query.compile"):
            q = Query.from_spec(db.specs[qidx])
        with sp.span("query.run"):
            result = run_query(q, exp)
        with sp.span("core.derived"):
            define_derived(exp.metrics, "derived (k)", DERIVED_FORMULA)
        with sp.span("viewer.render.flat"):
            texts["derived"] = session.render(ViewKind.FLAT, expand_depth=3)
        return {"texts": texts, "hot_path": [n.name for n in path.path],
                "query": result}

    def _expect(self, db: _Database, reference) -> None:
        """Fingerprint every query, then one whole session, on *reference*.

        The queries run first: the session's derived metric adds a
        column that a later query would also return.
        """
        db.expected["query"] = [
            query_fingerprint(run_query(Query.from_spec(spec), reference))
            for spec in db.specs]
        analysis = self._analyze(reference, db, 0, NullRecorder())
        db.expected["texts"] = self._fingerprint(analysis)["texts"]
        db.expected["hot_path"] = analysis["hot_path"]

    def _fingerprint(self, analysis: dict) -> dict:
        return {
            "texts": {k: digest(v) for k, v in analysis["texts"].items()},
            "hot_path": analysis["hot_path"],
            "query": query_fingerprint(analysis["query"]),
        }

    def _ensemble(self, members, sp) -> dict:
        with sp.span("core.ensemble.align"):
            ensemble = align_experiments(members)
        with sp.span("core.ensemble.diff"):
            diff = ensemble.diff(0, 1)
        with sp.span("core.ensemble.detect"):
            findings = detect_regressions(ensemble)
        return {"diff": diff, "findings": findings}

    def _ensemble_fingerprint(self, out: dict) -> dict:
        root = out["diff"].cct.root.inclusive
        return {
            "diff_root": [float(root[mid]).hex() for mid in sorted(root)],
            "findings": digest([f.to_payload() for f in out["findings"]]),
        }

    def op(self, i: int, sp, plan=None):
        db_index, qidx, windows = plan or self.plans[i % len(self.plans)]
        db = self.databases[db_index]
        with sp.span("hpcprof.load"):
            exp = database.load(db.path)
        out = {"db": db, "qidx": qidx, "experiment": exp,
               "analysis": self._analyze(exp, db, qidx, sp)}
        if self.scaled:
            out["scrub"] = self._scrub(windows, sp)
        else:
            out["ensemble"] = self._ensemble(self.members, sp)
        return out

    def _scrub(self, windows, sp) -> dict:
        with sp.span("trace.open"):
            store = open_trace(self.trace_path)
        results = []
        for wid in windows:
            w = self.windows[wid]
            store.reset_counters()
            with sp.span(f"trace.window.{w['class']}"):
                result = run_query(
                    query("**/*").window(w["lo"], w["hi"])
                    .sort(self.trace_metric).limit(50), store)
            touched = store.chunks_touched
            with sp.span("trace.flame"):
                slab = flame_slab(store, rank=w["rank"], t0=w["lo"],
                                  t1=w["hi"])
            with sp.span("trace.series"):
                series = idleness_series(store, w["lo"], w["hi"], bins=16)
            results.append((wid, result, touched, slab, series))
        return {"store": store, "windows": results}

    def check(self, i: int, out) -> list[str]:
        problems = []
        try:
            db = out["db"]
            got = self._fingerprint(out["analysis"])
            want = {"texts": db.expected["texts"],
                    "hot_path": db.expected["hot_path"],
                    "query": db.expected["query"][out["qidx"]]}
            for key in ("texts", "hot_path", "query"):
                if got[key] != want[key]:
                    problems.append(f"{os.path.basename(db.path)} query "
                                    f"{out['qidx']}: {key} differs")
            self.rows.append(out["analysis"]["query"].row_count)
            if "ensemble" in out:
                if self._ensemble_fingerprint(out["ensemble"]) != \
                        self.expected_ensemble:
                    problems.append("ensemble diff or findings differ")
            if "scrub" in out:
                store = out["scrub"]["store"]
                for wid, result, touched, slab, series in \
                        out["scrub"]["windows"]:
                    w = self.windows[wid]
                    if query_fingerprint(result) != w["query"] or \
                            digest(slab) != w["flame"] or \
                            digest(series) != w["series"]:
                        problems.append(f"trace window {wid} differs from "
                                        f"the in-memory trace")
                    self.touched.setdefault(w["class"], []).append(
                        touched / store.chunks_total)
                store.close()
        finally:
            release = getattr(out["experiment"], "close", None)
            if release is not None:  # stores hold mmaps; .rpdb loads do not
                release()
        return problems

    # ------------------------------------------------------------------ #
    def begin_phase(self) -> None:
        self.rows: list[int] = []
        self.touched: dict[str, list[float]] = {}

    def counters(self) -> dict:
        out = {"query.rows_returned": statistics.median(self.rows)}
        for cls in ("narrow", "full"):
            if cls in self.touched:
                out[f"trace.chunks_touched_ratio.{cls}"] = \
                    statistics.median(self.touched[cls])
        return out
