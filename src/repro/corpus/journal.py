"""The corpus catalog journal: CRC32-framed, append-only, replayable.

Every catalog state transition (ingest intent, profile commit, delete,
compaction intent/commit, policy change) is one JSON record appended to
``journal.rjl`` before the transition is considered to have happened.
Records are framed the same way the v2 ``.rpdb`` format frames sections:

    +----+----------------+------------------+------------------+
    | RJ | payload length | JSON payload     | CRC32(payload)   |
    | 2B | uint32 LE      | UTF-8, canonical | uint32 LE        |
    +----+----------------+------------------+------------------+

The framing gives the journal the property the whole corpus leans on:
**the longest valid prefix is always a consistent catalog**.  A torn
tail — a record cut mid-write by ``kill -9`` or a full disk — fails the
magic, length, CRC, or JSON check and replay simply stops there; a
writer holding the journal lock then truncates the tail before
appending.  Readers in other pool workers replay the same prefix
without truncating (the tail they see may be an append in progress).

Appends are a single ``O_APPEND`` write followed by ``fsync``, so a
record is either fully durable or invisible; cross-process mutual
exclusion is an advisory ``flock`` on a sibling ``journal.lock`` file
(the journal itself is never the lock target, so truncation can swap
the fd freely).
"""

from __future__ import annotations

import fcntl
import json
import os
import struct
import zlib
from contextlib import contextmanager
from typing import Iterator

from repro.errors import CorpusError

__all__ = [
    "JOURNAL_NAME",
    "LOCK_NAME",
    "MAGIC",
    "MAX_PAYLOAD",
    "Journal",
    "Replay",
    "encode_record",
    "scan_records",
]

JOURNAL_NAME = "journal.rjl"
LOCK_NAME = "journal.lock"
MAGIC = b"RJ"

_HEADER = struct.Struct("<2sI")
_TRAILER = struct.Struct("<I")

#: sanity bound on a single record; a length field corrupted upward
#: past this is rejected without attempting a giant read
MAX_PAYLOAD = 1 << 20


def encode_record(record: dict) -> bytes:
    """*record* as one framed journal entry (canonical JSON payload)."""
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    if len(payload) > MAX_PAYLOAD:
        raise CorpusError(
            f"journal record too large ({len(payload)} bytes > {MAX_PAYLOAD})"
        )
    return (
        _HEADER.pack(MAGIC, len(payload))
        + payload
        + _TRAILER.pack(zlib.crc32(payload) & 0xFFFFFFFF)
    )


def scan_records(data: bytes, start: int = 0) -> Iterator[tuple[int, dict]]:
    """Yield ``(end_offset, record)`` for each valid record from *start*.

    Stops silently at the first frame that fails any check (bad magic,
    implausible length, short tail, CRC mismatch, non-dict or unparsable
    JSON) — by construction everything before that point is the
    committed prefix and everything after it is noise.
    """
    offset = max(0, start)
    total = len(data)
    while True:
        if offset + _HEADER.size > total:
            return
        magic, length = _HEADER.unpack_from(data, offset)
        if magic != MAGIC or length > MAX_PAYLOAD:
            return
        body_end = offset + _HEADER.size + length
        end = body_end + _TRAILER.size
        if end > total:
            return
        payload = data[offset + _HEADER.size : body_end]
        (crc,) = _TRAILER.unpack_from(data, body_end)
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return
        try:
            record = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return
        if not isinstance(record, dict):
            return
        yield end, record
        offset = end


class Replay:
    """The result of replaying a journal: records plus tail accounting."""

    def __init__(self, records: list[dict], valid_end: int, total: int) -> None:
        self.records = records
        #: byte offset just past the last valid record
        self.valid_end = valid_end
        #: size of the journal file when read
        self.total = total

    @property
    def torn(self) -> bool:
        """True when bytes past the committed prefix exist on disk."""
        return self.valid_end < self.total


class Journal:
    """One corpus journal file plus its advisory cross-process lock."""

    def __init__(self, directory: str) -> None:
        self.path = os.path.join(directory, JOURNAL_NAME)
        self.lock_path = os.path.join(directory, LOCK_NAME)

    @contextmanager
    def locked(self) -> Iterator[None]:
        """Exclusive advisory lock over every catalog mutation.

        ``flock`` on a sibling file, not the journal itself, so holders
        may truncate or reopen the journal fd freely.  Reentrant use is
        not needed — the catalog serializes in-process with its own
        ``threading.Lock`` before taking this one.
        """
        fd = os.open(self.lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing releases the flock

    def append(self, record: dict) -> int:
        """Durably append one record (single write + fsync); its size.

        Callers must hold :meth:`locked`; the ``O_APPEND`` single-write
        discipline additionally keeps records from interleaving even if
        they do not.
        """
        blob = encode_record(record)
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, blob)
            os.fsync(fd)
        finally:
            os.close(fd)
        return len(blob)

    def replay(self, start: int = 0) -> Replay:
        """Replay the committed prefix (all valid records from *start*).

        Only the bytes from *start* on are read: a catalog refreshing
        from its last offset reads what was appended since, not the
        whole journal.
        """
        start = max(0, start)
        try:
            with open(self.path, "rb") as fh:
                fh.seek(start)
                data = fh.read()
        except FileNotFoundError:
            data = b""
        records: list[dict] = []
        valid_end = start
        for end, record in scan_records(data):
            records.append(record)
            valid_end = start + end
        return Replay(records, valid_end, start + len(data))

    def truncate(self, valid_end: int) -> None:
        """Drop a torn tail: cut the journal to *valid_end* bytes.

        Only the recovery path calls this, under :meth:`locked` — a
        reader must never truncate, because the "torn" bytes it sees may
        be another worker's append in progress.
        """
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            os.ftruncate(fd, valid_end)
            os.fsync(fd)
        finally:
            os.close(fd)
