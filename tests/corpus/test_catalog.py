"""Catalog semantics: ingest, queries, pins, retention, compaction.

Crash-interruption coverage lives in ``test_crash_battery``; this file
pins the steady-state contract every crash must recover back to.
"""

from __future__ import annotations

import os

import pytest

from repro.corpus import CorpusCatalog, RetentionPolicy, open_corpus
from repro.errors import (
    CorpusCorrupt,
    CorpusError,
    DatabaseError,
    ProfilePinned,
)
from repro.hpcprof import database


@pytest.fixture()
def corpus(tmp_path):
    with CorpusCatalog(str(tmp_path / "corpus"), create=True) as catalog:
        yield catalog


class TestLayout:
    def test_create_then_reopen(self, tmp_path):
        root = str(tmp_path / "c")
        CorpusCatalog(root, create=True).close()
        with open_corpus(root) as corpus:
            assert corpus.tenants() == []

    def test_open_missing_refused(self, tmp_path):
        with pytest.raises(CorpusError):
            open_corpus(str(tmp_path / "nope"))

    def test_create_refuses_non_empty_dir(self, tmp_path):
        (tmp_path / "junk.txt").write_text("hi")
        with pytest.raises(CorpusError):
            CorpusCatalog(str(tmp_path), create=True)

    def test_bad_marker_is_corrupt(self, tmp_path):
        root = tmp_path / "c"
        CorpusCatalog(str(root), create=True).close()
        (root / "corpus.json").write_text("{}")
        with pytest.raises(CorpusCorrupt):
            open_corpus(str(root))


class TestIngest:
    def test_ingest_bytes_commits(self, corpus, profile_bytes):
        entry = corpus.ingest_bytes(
            "acme", profile_bytes, name="run.rpdb",
            group="nightly", meta={"build": "7"},
        )
        assert entry.pid == "p000001"
        assert entry.kind == "rpdb"
        assert corpus.read_bytes("acme", entry.pid) == profile_bytes
        assert corpus.tenants() == ["acme"]
        assert not os.listdir(os.path.join(corpus.root, "staging"))

    def test_ingest_is_durable_across_reopen(self, tmp_path, profile_bytes):
        root = str(tmp_path / "c")
        with CorpusCatalog(root, create=True) as corpus:
            pid = corpus.ingest_bytes("t", profile_bytes, name="a").pid
        with open_corpus(root) as corpus:
            assert corpus.read_bytes("t", pid) == profile_bytes

    def test_corrupt_upload_refused_strict(self, corpus, profile_bytes):
        with pytest.raises(DatabaseError):
            corpus.ingest_bytes("t", profile_bytes[:40], name="torn")

    def test_corrupt_upload_salvaged_clean(self, corpus, profile_bytes):
        entry = corpus.ingest_bytes(
            "t", profile_bytes[:-7], name="torn", salvage=True
        )
        # what was stored is the *re-serialized recovered* experiment,
        # which loads strictly from here on
        exp = corpus.load("t", entry.pid)
        assert len(exp.cct) > 0

    def test_garbage_upload_refused_even_with_salvage(self, corpus):
        with pytest.raises(DatabaseError):
            corpus.ingest_bytes("t", b"not a database", name="x",
                                salvage=True)

    def test_ingest_file_and_store_dir(self, corpus, profile_bytes,
                                       tmp_path):
        src = tmp_path / "run.rpdb"
        src.write_bytes(profile_bytes)
        entry = corpus.ingest_file("t", str(src))
        assert entry.name == "run.rpdb"

        store = tmp_path / "run.rpstore"
        database.save(database.loads(profile_bytes), str(store))
        entry = corpus.ingest_file("t", str(store))
        assert entry.kind == "rpstore"
        assert entry.files  # per-file manifest recorded
        exp = corpus.load("t", entry.pid)
        try:
            assert len(exp.cct) > 0
        finally:
            exp.close()

    def test_validation_rejects_bad_identifiers(self, corpus,
                                                profile_bytes):
        with pytest.raises(CorpusError):
            corpus.ingest_bytes("../evil", profile_bytes, name="x")
        with pytest.raises(CorpusError):
            corpus.ingest_bytes("t", profile_bytes, name="a\x00b")
        with pytest.raises(CorpusError):
            corpus.ingest_bytes("t", profile_bytes, name="x",
                                meta={i: "v" for i in range(40)})


class TestQueries:
    def test_search_by_name_group_meta(self, corpus, profile_bytes):
        corpus.ingest_bytes("t", profile_bytes, name="alpha.rpdb",
                            group="g1", meta={"build": "1"})
        corpus.ingest_bytes("t", profile_bytes, name="beta.rpdb",
                            group="g1", meta={"build": "2"})
        corpus.ingest_bytes("t", profile_bytes, name="gamma.rpdb",
                            group="g2", meta={"build": "2"})
        assert len(corpus.search("t", group="g1")) == 2
        assert len(corpus.search("t", name="alph")) == 1
        assert len(corpus.search("t", meta={"build": "2"})) == 2
        assert len(corpus.search("t", group="g1", meta={"build": "2"})) == 1

    def test_get_unknown_raises(self, corpus):
        with pytest.raises(CorpusError, match="unknown profile"):
            corpus.get("t", "p999999")

    def test_verify_catches_payload_tamper(self, corpus, profile_bytes):
        entry = corpus.ingest_bytes("t", profile_bytes, name="x")
        path = corpus.profile_path("t", entry.pid)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CorpusCorrupt):
            corpus.verify("t", entry.pid)

    def test_verify_catches_missing_payload(self, corpus, profile_bytes):
        entry = corpus.ingest_bytes("t", profile_bytes, name="x")
        os.unlink(corpus.profile_path("t", entry.pid))
        with pytest.raises(CorpusCorrupt):
            corpus.verify("t", entry.pid)


class TestPins:
    def test_pinned_profile_refuses_delete(self, corpus, profile_bytes):
        entry = corpus.ingest_bytes("t", profile_bytes, name="x")
        corpus.pin("t", entry.pid, "s1")
        with pytest.raises(ProfilePinned):
            corpus.delete("t", entry.pid)
        corpus.unpin("t", entry.pid, "s1")
        corpus.delete("t", entry.pid)
        with pytest.raises(CorpusError):
            corpus.get("t", entry.pid)

    def test_release_pins_by_owner(self, corpus, profile_bytes):
        """Any process can release a pin knowing only the owner sid —
        a pool worker closing an adopted session relies on this."""
        a = corpus.ingest_bytes("t", profile_bytes, name="a")
        b = corpus.ingest_bytes("t", profile_bytes, name="b")
        corpus.pin("t", a.pid, "s1")
        corpus.pin("t", b.pid, "s1")
        corpus.pin("t", b.pid, "s2")
        assert corpus.release_pins("s1") == 2
        assert not corpus.pinned("t", a.pid)
        assert corpus.pinned("t", b.pid), "other owners' pins survive"
        assert corpus.release_pins("s1") == 0
        assert corpus.release_pins("nobody") == 0

    def test_stale_pin_of_dead_process_is_reaped(self, corpus,
                                                 profile_bytes,
                                                 tmp_path):
        import json

        entry = corpus.ingest_bytes("t", profile_bytes, name="x")
        pin = corpus._pin_path("t", entry.pid, "ghost")
        os.makedirs(os.path.dirname(pin), exist_ok=True)
        with open(pin, "w", encoding="utf-8") as fh:
            json.dump({"ospid": 2**22 - 1, "owner": "ghost"}, fh)
        assert not corpus.pinned("t", entry.pid)
        assert not os.path.exists(pin)


class TestRetention:
    def test_count_policy_evicts_oldest_first(self, tmp_path,
                                              profile_bytes):
        now = [1000.0]
        corpus = CorpusCatalog(str(tmp_path / "c"), create=True,
                               clock=lambda: now[0])
        pids = []
        for i in range(4):
            now[0] += 1
            pids.append(corpus.ingest_bytes("t", profile_bytes,
                                            name=f"r{i}").pid)
        evicted = corpus.set_policy("t", RetentionPolicy(max_profiles=2))
        assert [e["id"] for e in evicted] == pids[:2]
        assert [e.pid for e in corpus.list("t")] == pids[2:]
        corpus.close()

    def test_ttl_policy(self, tmp_path, profile_bytes):
        now = [1000.0]
        corpus = CorpusCatalog(str(tmp_path / "c"), create=True,
                               clock=lambda: now[0])
        old = corpus.ingest_bytes("t", profile_bytes, name="old").pid
        now[0] += 100
        fresh = corpus.ingest_bytes("t", profile_bytes, name="new").pid
        corpus.set_policy("t", RetentionPolicy(ttl_s=50))
        assert [e.pid for e in corpus.list("t")] == [fresh]
        assert old not in {e.pid for e in corpus.list("t")}
        corpus.close()

    def test_byte_quota_enforced_on_ingest(self, tmp_path, profile_bytes):
        corpus = CorpusCatalog(str(tmp_path / "c"), create=True)
        corpus.set_policy(
            "t", RetentionPolicy(max_bytes=len(profile_bytes) * 2 + 1)
        )
        pids = [corpus.ingest_bytes("t", profile_bytes, name=f"r{i}").pid
                for i in range(3)]
        live = [e.pid for e in corpus.list("t")]
        assert live == pids[1:], "oldest evicted as the quota overflowed"
        corpus.close()

    def test_pinned_profiles_survive_retention(self, tmp_path,
                                               profile_bytes):
        corpus = CorpusCatalog(str(tmp_path / "c"), create=True)
        first = corpus.ingest_bytes("t", profile_bytes, name="a").pid
        corpus.pin("t", first, "s1")
        corpus.ingest_bytes("t", profile_bytes, name="b")
        evicted = corpus.set_policy("t", RetentionPolicy(max_profiles=1))
        # the pinned oldest is skipped; the tenant temporarily overflows
        assert first in {e.pid for e in corpus.list("t")}
        assert all(e["id"] != first for e in evicted)
        corpus.close()

    def test_policy_durable_across_reopen(self, tmp_path, profile_bytes):
        root = str(tmp_path / "c")
        with CorpusCatalog(root, create=True) as corpus:
            corpus.set_policy("t", RetentionPolicy(max_profiles=3))
        with open_corpus(root) as corpus:
            assert corpus.policy("t").max_profiles == 3

    def test_policy_validation(self):
        with pytest.raises(CorpusError):
            RetentionPolicy(max_profiles=0)
        with pytest.raises(CorpusError):
            RetentionPolicy(max_bytes=-1)
        with pytest.raises(CorpusError):
            RetentionPolicy.from_payload({"bogus": 1})


class TestCompaction:
    def _grouped(self, corpus, payloads, group="nightly"):
        return [
            corpus.ingest_bytes("t", blob, name=f"r{i}.rpdb", group=group).pid
            for i, blob in enumerate(payloads)
        ]

    def test_compact_group_merges_and_removes_sources(
        self, corpus, profile_bytes, profile_bytes_alt
    ):
        pids = self._grouped(corpus, [profile_bytes, profile_bytes_alt])
        entry = corpus.compact_group("t", "nightly")
        assert entry.kind == "rpstore"
        assert set(entry.sources) == set(pids)
        live = {e.pid for e in corpus.list("t")}
        assert live == {entry.pid}
        for pid in pids:
            assert not os.path.exists(
                os.path.join(corpus._profiles_dir("t"), f"{pid}.rpdb")
            )
        exp = corpus.load("t", entry.pid)
        try:
            assert len(exp.cct) > 0
        finally:
            exp.close()

    def test_compaction_phases_have_spans(self, corpus, profile_bytes,
                                          profile_bytes_alt):
        """A slow compaction is explained by its phases, and the merge
        phase by the reducer's decode and union steps."""
        from repro.obs import SpanTracer, install, uninstall

        self._grouped(corpus, [profile_bytes, profile_bytes_alt])
        tracer = install(SpanTracer())
        try:
            corpus.compact_group("t", "nightly")
        finally:
            uninstall()
        paths = set(tracer.snapshot())
        phases = {path[-1] for path in paths if len(path) == 1}
        assert {"corpus.compact.stage", "corpus.compact.merge",
                "corpus.compact.seal", "corpus.compact.commit"} <= phases
        graft = ("corpus.compact.merge", "hpcprof.reduce.graft")
        assert graft + ("hpcprof.reduce.decode",) in paths
        assert graft + ("hpcprof.reduce.union",) in paths
        # the store is written from the union's arrays, in its own step
        assert ("corpus.compact.merge", "hpcprof.merge.store") in paths
        for phase in ("corpus.compact.stage", "corpus.compact.commit"):
            assert (phase, "corpus.journal.append") in paths

    def test_ingest_phases_have_spans(self, corpus, profile_bytes):
        """A slow ingest is explained by admission, staging (payload
        fsync and intent record) and commit (rename and commit record)."""
        from repro.obs import SpanTracer, install, uninstall

        tracer = install(SpanTracer())
        try:
            corpus.ingest_bytes("t", profile_bytes, name="r.rpdb")
        finally:
            uninstall()
        paths = set(tracer.snapshot())
        phases = {path[-1] for path in paths if len(path) == 1}
        assert {"corpus.admit", "corpus.ingest.stage",
                "corpus.ingest.commit"} <= phases
        for phase in ("corpus.ingest.stage", "corpus.ingest.commit"):
            assert (phase, "corpus.journal.append") in paths

    def test_small_group_is_left_alone(self, corpus, profile_bytes):
        self._grouped(corpus, [profile_bytes])
        assert corpus.compact_group("t", "nightly") is None
        assert corpus.compactable_groups("t") == {}

    def test_pinned_source_refuses_compaction(self, corpus, profile_bytes,
                                              profile_bytes_alt):
        pids = self._grouped(corpus, [profile_bytes, profile_bytes_alt])
        corpus.pin("t", pids[0], "s1")
        with pytest.raises(ProfilePinned):
            corpus.compact_group("t", "nightly")

    def test_compaction_worker_sweeps(self, corpus, profile_bytes,
                                      profile_bytes_alt):
        from repro.corpus import CompactionWorker

        self._grouped(corpus, [profile_bytes, profile_bytes_alt])
        worker = CompactionWorker(corpus)
        made = worker.run_once()
        assert len(made) == 1 and made[0].kind == "rpstore"
        assert worker.stats["compacted"] == 1
        assert [e.kind for e in corpus.list("t")] == ["rpstore"]


class TestMultiProcessView:
    def test_sibling_catalog_sees_commits(self, tmp_path, profile_bytes):
        root = str(tmp_path / "c")
        with CorpusCatalog(root, create=True) as writer, \
                open_corpus(root) as reader:
            pid = writer.ingest_bytes("t", profile_bytes, name="x").pid
            assert reader.get("t", pid).name == "x"
            writer.delete("t", pid)
            with pytest.raises(CorpusError):
                reader.get("t", pid)
