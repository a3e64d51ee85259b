"""Journal framing invariants: the committed prefix is always replayable."""

from __future__ import annotations

import os

import pytest

from repro.corpus.journal import (
    MAX_PAYLOAD,
    Journal,
    encode_record,
    scan_records,
)
from repro.errors import CorpusError


def _records(n: int) -> list[dict]:
    return [{"op": "test", "seq": i, "payload": "x" * i} for i in range(n)]


class TestFraming:
    def test_round_trip(self):
        blob = b"".join(encode_record(r) for r in _records(5))
        out = [rec for _end, rec in scan_records(blob)]
        assert out == _records(5)

    def test_canonical_encoding_is_deterministic(self):
        a = encode_record({"b": 1, "a": 2})
        b = encode_record({"a": 2, "b": 1})
        assert a == b

    def test_oversized_record_refused(self):
        with pytest.raises(CorpusError):
            encode_record({"blob": "x" * (MAX_PAYLOAD + 1)})

    def test_scan_stops_at_bad_magic(self):
        good = encode_record({"seq": 1})
        blob = good + b"XX" + good
        out = list(scan_records(blob))
        assert len(out) == 1

    def test_scan_stops_at_torn_tail(self):
        good = encode_record({"seq": 1})
        tail = encode_record({"seq": 2})
        for cut in range(1, len(tail)):
            out = list(scan_records(good + tail[:cut]))
            assert len(out) == 1, f"cut at {cut} must keep the prefix only"

    def test_scan_rejects_non_dict_payload(self):
        import json
        import struct
        import zlib

        payload = json.dumps([1, 2, 3]).encode()
        blob = (
            b"RJ" + struct.pack("<I", len(payload)) + payload
            + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
        )
        assert list(scan_records(blob)) == []


class TestJournal:
    def test_append_replay(self, tmp_path):
        journal = Journal(str(tmp_path))
        for rec in _records(3):
            journal.append(rec)
        replay = journal.replay()
        assert replay.records == _records(3)
        assert not replay.torn
        assert replay.valid_end == replay.total

    def test_append_returns_size_and_offsets_chain(self, tmp_path):
        journal = Journal(str(tmp_path))
        offset = 0
        for rec in _records(4):
            offset += journal.append(rec)
        assert journal.replay().valid_end == offset

    def test_incremental_replay_from_offset(self, tmp_path):
        journal = Journal(str(tmp_path))
        first = journal.append({"seq": 1})
        journal.append({"seq": 2})
        replay = journal.replay(start=first)
        assert [r["seq"] for r in replay.records] == [2]
        # offsets stay absolute although only the tail is read
        size = os.path.getsize(journal.path)
        assert replay.valid_end == replay.total == size
        assert not replay.torn
        with open(journal.path, "ab") as fh:
            fh.write(encode_record({"seq": 3})[:-3])
        torn = journal.replay(start=first)
        assert torn.torn and torn.valid_end == size
        assert torn.total == os.path.getsize(journal.path)

    def test_torn_tail_detected_and_truncated(self, tmp_path):
        journal = Journal(str(tmp_path))
        journal.append({"seq": 1})
        keep = journal.replay().valid_end
        with open(journal.path, "ab") as fh:
            fh.write(encode_record({"seq": 2})[:-3])  # cut mid-trailer
        replay = journal.replay()
        assert replay.torn
        assert [r["seq"] for r in replay.records] == [1]
        journal.truncate(replay.valid_end)
        after = journal.replay()
        assert not after.torn
        assert after.valid_end == keep

    def test_missing_file_is_empty(self, tmp_path):
        journal = Journal(str(tmp_path))
        replay = journal.replay()
        assert replay.records == [] and replay.total == 0

    def test_locked_serializes_cross_process_writers(self, tmp_path):
        # the lock is advisory flock on a sibling file; two sequential
        # lock scopes must both succeed (no leaked lock state)
        journal = Journal(str(tmp_path))
        with journal.locked():
            journal.append({"seq": 1})
        with journal.locked():
            journal.append({"seq": 2})
        assert len(journal.replay().records) == 2
