"""``ingest`` — the write path, one job per op.

One op is one SPMD job of the scaled synthetic program: simulate every
rank, correlate + attribute + encode each rank's profile, upload every
rank into the crash-safe corpus (group = job), compact the group into
an ``.rpstore``, load it back and render the three views.  It touches
no server, query or trace code, so it isolates the write path: corpus
ingest (validate, fsync, journal) and compaction (merge, summarize,
store write) are most of each job.  The corpus fsyncs on the disk that
holds the checkout, the same flush policy on every commit measured.
"""

from __future__ import annotations

import os
import random

from harness import VIEWS, NullRecorder, digest
from repro.core.attribution import attribute
from repro.corpus import open_corpus
from repro.hpcprof import binio
from repro.hpcprof.correlate import Correlator
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.merge import merge_experiments
from repro.hpcstruct.synthstruct import build_structure
from repro.sim.scale import scale_program
from repro.sim.spmd import run_spmd
from repro.viewer.session import ViewerSession

TENANT = "bench"
#: jobs whose renders are checked against the in-memory merge reference
REFERENCE_JOBS = 3


def _read_wchar() -> int:
    """Bytes this process has passed to write calls (``/proc/self/io``)."""
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("no wchar line in /proc/self/io")


class IngestWorkload:
    name = "ingest"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.nranks = 2 if smoke else 4
        self.fanout, self.depth = (3, 2) if smoke else (4, 3)

    def setup(self, workdir: str) -> None:
        self.program = scale_program(fanout=self.fanout, depth=self.depth,
                                     imbalance="linear_skew")
        self.structure = build_structure(self.program)
        self.corpus = open_corpus(os.path.join(workdir, "corpus"),
                                  create=True)
        # each job has its own seed: its values differ, while the tree
        # shape, and so the work per job, stays fixed
        rng = random.Random(self.seed)
        self.job_seeds = [rng.randrange(1 << 30) for _ in range(4096)]
        self.scopes = None
        self.uploaded = 0
        self.begin_phase()
        # warm-up: one job end to end, checked, outside every timed op
        problems = self.check(-1, self.op(-1, NullRecorder()))
        if problems:
            raise RuntimeError(f"warm-up job failed its check: {problems}")

    def close(self) -> None:
        self.corpus.close()

    def op(self, i: int, sp):
        job_seed = self.job_seeds[i % len(self.job_seeds)]
        structure = self.structure
        group = f"job{i:06d}" if i >= 0 else "warmup"
        with sp.span("sim.run_spmd"):
            profiles = run_spmd(self.program, self.nranks, seed=job_seed)
        blobs = []
        for rank, profile in enumerate(profiles):
            with sp.span("hpcprof.correlate"):
                correlator = Correlator(structure)
                correlator.add_profile(profile)
            with sp.span("core.attribute"):
                attribute(correlator.cct)
            with sp.span("hpcprof.encode"):
                blobs.append(binio.dumps_binary(Experiment(
                    f"{group}-r{rank}", profile.metrics, structure,
                    correlator.cct)))
        for rank, blob in enumerate(blobs):
            with sp.span("corpus.ingest"):
                self.corpus.ingest_bytes(TENANT, blob,
                                         name=f"{group}-r{rank}.rpdb",
                                         group=group)
        with sp.span("corpus.compact"):
            entry = self.corpus.compact_group(TENANT, group)
        with sp.span("corpus.load"):
            experiment = self.corpus.load(TENANT, entry.pid)
        session = ViewerSession(experiment)
        texts = {}
        for kind, slug in VIEWS:
            with sp.span(f"core.view_build.{slug}"):
                session.view(kind)
            with sp.span(f"viewer.render.{slug}"):
                texts[slug] = session.render(kind, expand_depth=4)
        return {"group": group, "blobs": blobs, "texts": texts,
                "experiment": experiment}

    def check(self, i: int, out) -> list[str]:
        """Every job: rank and scope counts.  The first jobs: each render
        equals the render of ``merge_experiments`` over the same uploads."""
        experiment = out["experiment"]
        problems = []
        try:
            if experiment.nranks != self.nranks:
                problems.append(f"store has {experiment.nranks} ranks, "
                                f"expected {self.nranks}")
            scopes = len(experiment.cct)
            if self.scopes is None:
                self.scopes = scopes
            elif scopes != self.scopes:
                problems.append(f"store has {scopes} scopes, "
                                f"expected {self.scopes}")
            if i < REFERENCE_JOBS:
                reference = ViewerSession(merge_experiments(
                    [binio.loads_binary(blob) for blob in out["blobs"]],
                    name=out["group"], summarize="all"))
                for kind, slug in VIEWS:
                    want = reference.render(kind, expand_depth=4)
                    if digest(want) != digest(out["texts"][slug]):
                        problems.append(f"{slug} render differs from "
                                        f"merge_experiments")
        finally:
            experiment.close()
        uploaded = sum(len(blob) for blob in out["blobs"])
        self.input_bytes += uploaded
        self.uploaded += uploaded
        return problems

    def begin_phase(self) -> None:
        self.input_bytes = 0
        self._wchar0 = _read_wchar()

    def counters(self) -> dict:
        """Write amplification of the phase since :meth:`begin_phase`."""
        wchar = _read_wchar() - self._wchar0
        stored = 0
        for dirpath, _dirs, files in os.walk(self.corpus.root):
            for fname in files:
                stored += os.path.getsize(os.path.join(dirpath, fname))
        return {
            "corpus.write_chars_per_input_byte": wchar / self.input_bytes,
            "corpus.stored_bytes_per_input_byte": stored / self.uploaded,
        }
