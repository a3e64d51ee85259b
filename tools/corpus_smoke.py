#!/usr/bin/env python
"""Fast tier-1 smoke of corpus crash recovery — two real ``kill -9``\ s.

1. A subprocess ingests into a fresh corpus and SIGKILLs itself at the
   ``corpus.ingest.renamed`` crash point (payload at its final path,
   commit record not yet journaled).  The parent then reopens the
   corpus and proves recovery: the interrupted ingest is resumed
   bit-identically, a pre-crash profile is untouched, staging is empty,
   and ``verify`` passes for every entry.
2. A subprocess compacts a three-profile group and SIGKILLs itself at
   ``corpus.compact.merged`` (store written and fsynced in staging,
   intent journaled, nothing renamed).  The reopened corpus converges:
   the intent is aborted, staging is reaped, the sources are still
   listed bit-identically, and compacting again yields a store whose
   three views render exactly like ``merge_experiments`` over the
   sources.

The exhaustive batteries live in ``tests/corpus/test_crash_battery.py``
and ``tests/corpus/test_corruption_sweep.py``; this script only proves
the kill-anywhere recovery paths work at all on this machine, in a few
seconds, inside the tier-1 gate.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.views import ViewKind  # noqa: E402
from repro.corpus import CorpusCatalog, open_corpus  # noqa: E402
from repro.hpcprof import binio  # noqa: E402
from repro.hpcprof.experiment import Experiment  # noqa: E402
from repro.hpcprof.merge import merge_experiments  # noqa: E402
from repro.sim.workloads import fig1  # noqa: E402
from repro.viewer.session import ViewerSession  # noqa: E402

_CHILD = """
import sys
from repro.corpus import open_corpus

root, payload_path = sys.argv[1], sys.argv[2]
with open(payload_path, "rb") as fh:
    blob = fh.read()
with open_corpus(root) as corpus:
    corpus.ingest_bytes("smoke", blob, name="doomed", meta={"k": "v"})
raise SystemExit("crash point did not fire")
"""

_COMPACT_CHILD = """
import sys
from repro.corpus import open_corpus

with open_corpus(sys.argv[1]) as corpus:
    corpus.compact_group("smoke", "job")
raise SystemExit("crash point did not fire")
"""

GROUP_SEEDS = (3, 5, 8)


def _killed_at(point: str, code: str, *args: str) -> None:
    """Run *code* in a child that SIGKILLs itself at crash *point*."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               REPRO_CRASH_POINT=point)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, (
        f"child should have SIGKILLed itself at {point}: "
        f"rc={proc.returncode} stderr={proc.stderr[-500:]}"
    )


def _renders(experiment) -> list[str]:
    session = ViewerSession(experiment)
    return [session.render(kind, expand_depth=4)
            for kind in (ViewKind.CALLING_CONTEXT, ViewKind.CALLERS,
                         ViewKind.FLAT)]


def compaction_smoke(tmp: str) -> str:
    """Kill a compaction after its merge; prove the corpus converges and
    the recompacted store renders like the in-memory merge."""
    root = os.path.join(tmp, "compact-corpus")
    blobs = [binio.dumps_binary(Experiment.from_program(fig1.build(),
                                                        seed=seed))
             for seed in GROUP_SEEDS]
    with CorpusCatalog(root, create=True) as corpus:
        sources = [corpus.ingest_bytes("smoke", blob, name=f"r{i}.rpdb",
                                       group="job").pid
                   for i, blob in enumerate(blobs)]

    _killed_at("corpus.compact.merged", _COMPACT_CHILD, root)

    with open_corpus(root, recover=False) as corpus:
        report = corpus.recover()
        assert report["aborted"] == 1 and report["resumed"] == 0, report
        entries = corpus.list("smoke")
        assert [e.pid for e in entries] == sources, entries
        for pid, blob in zip(sources, blobs):
            assert corpus.read_bytes("smoke", pid) == blob
            corpus.verify("smoke", pid)
        assert os.listdir(os.path.join(root, "staging")) == []
        assert not any(name.endswith(".rpstore") for name in os.listdir(
            corpus._profiles_dir("smoke")))
        entry = corpus.compact_group("smoke", "job")
        assert sorted(entry.sources) == sources
        store = corpus.load("smoke", entry.pid)
        try:
            got = _renders(store)
        finally:
            store.close()
    want = _renders(merge_experiments(
        [binio.loads_binary(blob) for blob in blobs], name="job",
        summarize="all"))
    assert got == want, "recompacted store renders differently"
    return (f"kill -9 at corpus.compact.merged, intent aborted, "
            f"{len(sources)} sources kept, recompacted store renders "
            f"like merge_experiments")


def main() -> int:
    blob = binio.dumps_binary(Experiment.from_program(fig1.build()))
    with tempfile.TemporaryDirectory(prefix="corpus-smoke-") as tmp:
        root = os.path.join(tmp, "corpus")
        payload = os.path.join(tmp, "payload.rpdb")
        with open(payload, "wb") as fh:
            fh.write(blob)

        with CorpusCatalog(root, create=True) as corpus:
            keeper = corpus.ingest_bytes("smoke", blob, name="keeper").pid

        _killed_at("corpus.ingest.renamed", _CHILD, root, payload)

        with open_corpus(root) as corpus:
            names = {e.name: e.pid for e in corpus.list("smoke")}
            assert set(names) == {"keeper", "doomed"}, names
            assert corpus.read_bytes("smoke", names["keeper"]) == blob
            assert corpus.read_bytes("smoke", names["doomed"]) == blob, (
                "post-rename crash must resume the ingest bit-identically"
            )
            assert corpus.get("smoke", names["doomed"]).meta == {"k": "v"}
            for pid in names.values():
                corpus.verify("smoke", pid)
            assert os.listdir(os.path.join(root, "staging")) == []
            report = corpus.recover()

        print(f"corpus smoke OK: kill -9 at corpus.ingest.renamed, "
              f"recovery resumed 1 ingest bit-identically "
              f"({len(blob)} bytes), journal clean "
              f"(truncated_bytes={report['truncated_bytes']})")
        print(f"corpus smoke OK: {compaction_smoke(tmp)}")
        return 0


if __name__ == "__main__":
    sys.exit(main())
