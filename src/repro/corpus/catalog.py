"""The durable, tenant-namespaced profile catalog.

On disk a corpus root looks like::

    root/
      corpus.json                     # format marker, written once
      journal.rjl                     # append-only catalog journal
      journal.lock                    # advisory flock target
      staging/<ospid>-<pid>/          # in-flight uploads and merges
      pins/<tenant>@@<pid>@@<owner>.pin
      tenants/<tenant>/profiles/<pid>.rpdb
      tenants/<tenant>/profiles/<pid>.rpstore/   # compacted groups

Every state transition follows the same two-phase discipline the
``.rpstore`` writer uses (manifest written last, rename as commit):

1. build the payload in ``staging/`` and ``fsync`` it,
2. journal an *intent* record,
3. ``os.rename`` the payload to its final path (atomic) and ``fsync``
   the parent directory,
4. journal the *commit* record.

A ``kill -9`` between any two steps leaves one of exactly four states,
and :meth:`CorpusCatalog.recover` maps each back to consistency: a
stale staging directory is reaped, an intent whose final payload landed
intact is committed (resumed), an intent whose payload is missing is
aborted, and a final file without a live catalog entry (crash between a
delete/compaction commit and its unlink) is removed.  Committed entries
carry sizes and CRC32s, so "consistent" is checkable bit-for-bit.

All mutations hold the journal's advisory ``flock``, which is what
makes one catalog shareable by every worker of a pre-forked server
pool: each worker owns a :class:`CorpusCatalog` on the same root and
:meth:`refresh` replays records appended by its siblings before acting.

Named :func:`~repro.testing.faults.crash_point` hooks sit between every
step above; the chaos battery (``tests/corpus/test_crash_battery.py``)
and the tier-1 smoke stage kill the process at each one and assert the
reopened catalog converges.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import CorpusCorrupt, CorpusError, DatabaseError, ProfilePinned
from repro.obs.spans import span
from repro.testing.faults import crash_point, register_crash_points

from .journal import Journal
from .retention import RetentionPolicy

__all__ = [
    "CORPUS_MARKER",
    "CRASH_POINTS",
    "CorpusCatalog",
    "ProfileEntry",
    "open_corpus",
]

CORPUS_MARKER = "corpus.json"
_FORMAT = {"format": "rpcorpus", "version": 1}

_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")
_OWNER_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._:-]{0,127}$")
_PID_RE = re.compile(r"^p[0-9]{6,}$")

#: every named kill-anywhere point, in protocol order — the chaos
#: battery iterates this list so new points are covered automatically
CRASH_POINTS = (
    "corpus.ingest.staged",
    "corpus.ingest.intent",
    "corpus.ingest.renamed",
    "corpus.ingest.committed",
    "corpus.compact.intent",
    "corpus.compact.merged",
    "corpus.compact.renamed",
    "corpus.compact.committed",
    "corpus.compact.cleaned",
    "corpus.evict.journaled",
    "corpus.evict.unlinked",
)
register_crash_points(*CRASH_POINTS)


def _fsync_file(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_tree(path: str) -> None:
    """fsync every file and directory under *path* (and *path* itself)."""
    if os.path.isfile(path):
        _fsync_file(path)
        return
    for dirpath, _dirnames, filenames in os.walk(path):
        for name in filenames:
            _fsync_file(os.path.join(dirpath, name))
        _fsync_dir(dirpath)


def _file_crc(path: str) -> tuple[int, int]:
    """(size, crc32) of a file, streamed."""
    crc = 0
    size = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
            size += len(chunk)
    return size, crc & 0xFFFFFFFF


def _tree_manifest(root: str) -> dict[str, list[int]]:
    """``{relpath: [size, crc32]}`` for every file under *root*."""
    out: dict[str, list[int]] = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root)
            size, crc = _file_crc(full)
            out[rel] = [size, crc]
    return out


def _pid_alive(ospid: int) -> bool:
    try:
        os.kill(ospid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except (OverflowError, ValueError):
        return False
    return True


@dataclass(frozen=True)
class ProfileEntry:
    """One committed profile: identity, provenance, and its checksums."""

    tenant: str
    pid: str
    name: str
    kind: str  # "rpdb" (single file) | "rpstore" (column-store directory)
    bytes: int
    checksum: int  # CRC32 of the .rpdb payload; 0 for stores (see files)
    created_at: float
    group: str | None = None
    meta: dict = field(default_factory=dict)
    sources: tuple[str, ...] = ()  # pids merged away by compaction
    files: dict | None = None  # rpstore: {relpath: [size, crc32]}

    @property
    def filename(self) -> str:
        return f"{self.pid}.{self.kind}"

    def to_payload(self) -> dict:
        payload = {
            "id": self.pid,
            "tenant": self.tenant,
            "name": self.name,
            "kind": self.kind,
            "bytes": self.bytes,
            "checksum": self.checksum,
            "created_at": self.created_at,
            "meta": dict(self.meta),
        }
        if self.group is not None:
            payload["group"] = self.group
        if self.sources:
            payload["sources"] = list(self.sources)
        return payload

    @classmethod
    def from_record(cls, record: dict) -> "ProfileEntry":
        return cls(
            tenant=record["tenant"],
            pid=record["pid"],
            name=record["name"],
            kind=record["kind"],
            bytes=int(record["bytes"]),
            checksum=int(record.get("checksum", 0)),
            created_at=float(record.get("created_at", 0.0)),
            group=record.get("group"),
            meta=dict(record.get("meta") or {}),
            sources=tuple(record.get("sources") or ()),
            files=record.get("files"),
        )


class CorpusCatalog:
    """A crash-safe, multi-process catalog of profile databases.

    Thread-safe within a process (one internal lock) and multi-process
    safe across a corpus root (journal ``flock`` + replay); see the
    module docstring for the on-disk protocol.
    """

    def __init__(
        self,
        root: str,
        *,
        create: bool = False,
        recover: bool = True,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.root = os.path.abspath(root)
        self._clock = clock if clock is not None else time.time
        self._mu = threading.RLock()
        self._entries: dict[str, dict[str, ProfileEntry]] = {}
        self._policies: dict[str, RetentionPolicy] = {}
        self._pending: dict[str, dict] = {}
        self._seq = 0
        self._offset = 0
        self._closed = False
        self._init_root(create)
        self._journal = Journal(self.root)
        if recover:
            self.recover()
        else:
            with self._mu:
                self._refresh_locked()

    # ------------------------------------------------------------------ #
    # layout
    # ------------------------------------------------------------------ #
    def _init_root(self, create: bool) -> None:
        marker = os.path.join(self.root, CORPUS_MARKER)
        if os.path.exists(marker):
            try:
                with open(marker, "r", encoding="utf-8") as fh:
                    info = json.load(fh)
            except (OSError, ValueError) as exc:
                raise CorpusCorrupt(f"unreadable corpus marker {marker}: {exc}") from None
            if not isinstance(info, dict) or info.get("format") != "rpcorpus":
                raise CorpusCorrupt(f"{marker} is not an rpcorpus marker")
            return
        if not create:
            raise CorpusError(f"not a corpus (no {CORPUS_MARKER}): {self.root}")
        os.makedirs(self.root, exist_ok=True)
        if os.listdir(self.root):
            raise CorpusError(f"refusing to initialize non-empty directory: {self.root}")
        for sub in ("staging", "pins", "tenants"):
            os.makedirs(os.path.join(self.root, sub), exist_ok=True)
        # marker last, via tmp+rename: a crash mid-init leaves a
        # directory that is visibly *not* a corpus rather than half of one
        tmp = marker + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(_FORMAT, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.rename(tmp, marker)
        _fsync_dir(self.root)

    def _staging_dir(self, token: str) -> str:
        return os.path.join(self.root, "staging", token)

    def _pins_dir(self) -> str:
        return os.path.join(self.root, "pins")

    def _profiles_dir(self, tenant: str) -> str:
        return os.path.join(self.root, "tenants", tenant, "profiles")

    def profile_path(self, tenant: str, pid: str) -> str:
        """Absolute path of a committed profile's payload."""
        entry = self.get(tenant, pid)
        return os.path.join(self._profiles_dir(tenant), entry.filename)

    # ------------------------------------------------------------------ #
    # journal replay / refresh
    # ------------------------------------------------------------------ #
    def _apply(self, record: dict) -> None:
        op = record.get("op")
        seq = record.get("seq")
        if isinstance(seq, int):
            self._seq = max(self._seq, seq)
        tenant = record.get("tenant")
        pid = record.get("pid")
        if op == "set-policy":
            try:
                self._policies[tenant] = RetentionPolicy.from_payload(
                    record.get("policy") or {}
                )
            except CorpusError:
                pass  # a bad historical policy record must not kill replay
        elif op in ("intent-ingest", "intent-compact"):
            if isinstance(pid, str):
                self._pending[pid] = record
        elif op == "abort":
            self._pending.pop(pid, None)
        elif op in ("commit-profile", "commit-compact"):
            self._pending.pop(pid, None)
            try:
                entry = ProfileEntry.from_record(record)
            except (KeyError, TypeError, ValueError):
                return  # malformed commit: safer to skip than to invent
            bucket = self._entries.setdefault(entry.tenant, {})
            bucket[entry.pid] = entry
            for src in entry.sources:
                bucket.pop(src, None)
        elif op == "delete-profile":
            self._entries.get(tenant, {}).pop(pid, None)
        # unknown ops are skipped: a newer writer's records must not
        # turn into phantom entries here

    def _refresh_locked(self) -> None:
        replay = self._journal.replay(self._offset)
        for record in replay.records:
            self._apply(record)
        self._offset = replay.valid_end

    def refresh(self) -> None:
        """Replay records appended by other processes since last look."""
        with self._mu:
            self._refresh_locked()

    def _append_locked(self, op: str, **fields) -> dict:
        record = {"op": op, "seq": self._seq + 1, **fields}
        with span("corpus.journal.append"):
            self._offset += self._journal.append(record)
        self._apply(record)
        return record

    @contextmanager
    def _exclusive(self) -> Iterator[None]:
        if self._closed:
            raise CorpusError("corpus catalog is closed")
        with self._mu:
            with self._journal.locked():
                self._refresh_locked()
                yield

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def recover(self) -> dict:
        """Replay the journal and repair every interrupted transition.

        Returns a small report (counts of truncated bytes, resumed
        commits, aborted intents, reaped staging dirs / orphan files).
        Safe to call any time; holds the journal lock throughout.
        """
        report = {
            "truncated_bytes": 0,
            "resumed": 0,
            "aborted": 0,
            "staging_reaped": 0,
            "orphans_reaped": 0,
        }
        with self._mu, self._journal.locked():
            # state may predate a prior partial replay; rebuild from zero
            self._entries.clear()
            self._policies.clear()
            self._pending.clear()
            self._seq = 0
            self._offset = 0
            replay = self._journal.replay(0)
            if replay.torn:
                report["truncated_bytes"] = replay.total - replay.valid_end
                self._journal.truncate(replay.valid_end)
            for record in replay.records:
                self._apply(record)
            self._offset = replay.valid_end
            for pid, intent in sorted(self._pending.items()):
                if self._resume_intent_locked(intent):
                    report["resumed"] += 1
                else:
                    report["aborted"] += 1
            report["staging_reaped"] = self._reap_staging_locked()
            report["orphans_reaped"] = self._reap_orphans_locked()
        return report

    def _resume_intent_locked(self, intent: dict) -> bool:
        """Finish or abort one interrupted ingest/compaction.

        True → the final payload landed intact before the crash, so the
        missing commit record is appended (the profile was *promised*
        by rename; recovery keeps the promise).  False → the payload
        never made it; the intent is aborted and staging reclaimed.
        """
        tenant, pid = intent["tenant"], intent["pid"]
        kind = intent.get("kind", "rpdb")
        final = os.path.join(self._profiles_dir(tenant), f"{pid}.{kind}")
        ok = False
        if intent["op"] == "intent-ingest" and os.path.isfile(final):
            size, crc = _file_crc(final)
            ok = size == intent.get("bytes") and crc == intent.get("checksum")
        elif intent["op"] == "intent-compact" and os.path.isdir(final):
            ok = self._store_intact(final)
        if ok:
            if intent["op"] == "intent-ingest":
                self._append_locked(
                    "commit-profile",
                    tenant=tenant, pid=pid, kind=kind,
                    name=intent.get("name", pid),
                    group=intent.get("group"),
                    meta=intent.get("meta") or {},
                    bytes=intent.get("bytes", 0),
                    checksum=intent.get("checksum", 0),
                    created_at=self._clock(),
                )
            else:
                files = _tree_manifest(final)
                self._append_locked(
                    "commit-compact",
                    tenant=tenant, pid=pid, kind=kind,
                    name=intent.get("name", pid),
                    group=intent.get("group"),
                    meta=intent.get("meta") or {},
                    bytes=sum(s for s, _ in files.values()),
                    checksum=0, files=files,
                    sources=intent.get("sources") or [],
                    created_at=self._clock(),
                )
        else:
            self._append_locked("abort", tenant=tenant, pid=pid)
        staging = intent.get("staging")
        if staging:
            shutil.rmtree(self._staging_dir(staging), ignore_errors=True)
        return ok

    @staticmethod
    def _store_intact(path: str) -> bool:
        from repro.core.store import is_store_path, open_store

        if not is_store_path(path):
            return False
        try:
            exp = open_store(path)
        except (DatabaseError, OSError):
            return False
        exp.close()
        return True

    def _reap_staging_locked(self) -> int:
        """Remove staging dirs whose owning process is gone.

        Directory names are ``<ospid>-<pid>``, so a sibling worker's
        in-flight upload (live ospid) survives; anything else is debris
        from a crash.  Pending intents were already resolved, and
        resolution removed their staging — whatever remains with a dead
        owner is unreferenced.
        """
        reaped = 0
        staging_root = os.path.join(self.root, "staging")
        try:
            names = os.listdir(staging_root)
        except FileNotFoundError:
            return 0
        for name in names:
            ospid_s, _, _token = name.partition("-")
            try:
                ospid = int(ospid_s)
            except ValueError:
                ospid = -1
            if ospid > 0 and ospid != os.getpid() and _pid_alive(ospid):
                continue
            shutil.rmtree(os.path.join(staging_root, name), ignore_errors=True)
            reaped += 1
        return reaped

    def _reap_orphans_locked(self) -> int:
        """Remove final-path payloads with no committed entry.

        These exist in exactly two crash windows: after a
        ``delete-profile`` record but before its unlink, and after a
        ``commit-compact`` record but before the source unlinks.  In
        both, the journal has already spoken — the file is dead.
        """
        reaped = 0
        pending_paths = {
            os.path.join(
                self._profiles_dir(i["tenant"]), f'{i["pid"]}.{i.get("kind", "rpdb")}'
            )
            for i in self._pending.values()
        }
        tenants_root = os.path.join(self.root, "tenants")
        try:
            tenants = os.listdir(tenants_root)
        except FileNotFoundError:
            return 0
        for tenant in tenants:
            profiles = self._profiles_dir(tenant)
            try:
                names = os.listdir(profiles)
            except FileNotFoundError:
                continue
            live = {
                e.filename for e in self._entries.get(tenant, {}).values()
            }
            for name in names:
                full = os.path.join(profiles, name)
                if name in live or full in pending_paths:
                    continue
                if os.path.isdir(full):
                    shutil.rmtree(full, ignore_errors=True)
                else:
                    try:
                        os.unlink(full)
                    except OSError:
                        continue
                reaped += 1
        return reaped

    # ------------------------------------------------------------------ #
    # validation helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_tenant(tenant: str) -> str:
        if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
            raise CorpusError(f"invalid tenant name: {tenant!r}")
        return tenant

    @staticmethod
    def _check_name(name: str) -> str:
        if not isinstance(name, str) or not name or len(name) > 200:
            raise CorpusError(f"invalid profile name: {name!r}")
        if any(ord(c) < 0x20 for c in name):
            raise CorpusError("profile name contains control characters")
        return name

    @staticmethod
    def _check_group(group: str | None) -> str | None:
        if group is None:
            return None
        if not isinstance(group, str) or not _TENANT_RE.match(group):
            raise CorpusError(f"invalid group tag: {group!r}")
        return group

    @staticmethod
    def _check_meta(meta: dict | None) -> dict:
        if meta is None:
            return {}
        if not isinstance(meta, dict) or len(meta) > 32:
            raise CorpusError("meta must be an object with at most 32 keys")
        for key, value in meta.items():
            if not isinstance(key, str) or not key or len(key) > 64:
                raise CorpusError(f"invalid meta key: {key!r}")
            if not isinstance(value, (str, int, float, bool)) or (
                isinstance(value, str) and len(value) > 512
            ):
                raise CorpusError(f"meta[{key!r}] must be a short scalar")
        return dict(meta)

    def _validated_payload(self, data: bytes, salvage: bool) -> bytes:
        """Upload admission: one strict record parse is the gatekeeper.

        A binary upload is stored verbatim iff ``loads_binary(data,
        exact=True)`` would accept it — it parses strictly and ends
        exactly at its last frame, the streams a salvage load would
        report clean.  The verdict is reached on the parsed records
        (``binio._check_exact``): frames, CRCs, the exact end, every
        record check and unique sibling structure keys; no structure
        model, tree or attribution is built to accept an upload.
        Anything else is refused with the salvage loader's report
        (strict default) or — with *salvage* — re-serialized from
        whatever the salvage loader recovered, so the corpus never
        stores a payload that a strict load cannot open.
        """
        from repro.hpcprof import binio, recovery

        if data[:4] != b"RPDB":
            # XML uploads are normalized to the framed v2 binary form
            from repro.hpcprof import database as db

            exp = db.loads(data, origin="<upload>")
            return binio.dumps_binary(exp)
        with span("corpus.admit"):
            try:
                binio._check_exact(data)
                return data
            except DatabaseError:
                salvaged = recovery.salvage_loads(data, origin="<upload>")
        if not salvage:
            raise DatabaseError(
                f"upload failed validation "
                f"({salvaged.load_report.summary()}); "
                "pass salvage=true to ingest the recovered prefix"
            )
        return binio.dumps_binary(salvaged)

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def ingest_bytes(
        self,
        tenant: str,
        data: bytes,
        *,
        name: str,
        group: str | None = None,
        meta: dict | None = None,
        salvage: bool = False,
        validate: bool = True,
    ) -> ProfileEntry:
        """Ingest one uploaded ``.rpdb`` payload; returns its entry.

        Follows the staged/journaled/renamed/committed protocol from the
        module docstring; on return the profile is durable and listed.
        Retention is enforced for the tenant afterwards, so a quota'd
        tenant converges immediately rather than at the next sweep.
        """
        self._check_tenant(tenant)
        self._check_name(name)
        group = self._check_group(group)
        meta = self._check_meta(meta)
        if not isinstance(data, (bytes, bytearray)):
            raise CorpusError("upload payload must be bytes")
        if validate:
            data = self._validated_payload(bytes(data), salvage)
        with self._exclusive():
            entry = self._ingest_locked(tenant, bytes(data), name, group, meta)
            self._enforce_locked(tenant)
        return entry

    def ingest_file(
        self,
        tenant: str,
        path: str,
        *,
        name: str | None = None,
        group: str | None = None,
        meta: dict | None = None,
        salvage: bool = False,
        validate: bool = True,
    ) -> ProfileEntry:
        """Server-side ingest of an existing database file or store dir."""
        if os.path.isdir(path):
            return self._ingest_store(
                tenant, path,
                name=name or os.path.basename(path.rstrip("/")),
                group=group, meta=meta, validate=validate,
            )
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise CorpusError(f"cannot read upload {path}: {exc}") from None
        return self.ingest_bytes(
            tenant, data,
            name=name or os.path.basename(path),
            group=group, meta=meta, salvage=salvage, validate=validate,
        )

    def _ingest_locked(
        self, tenant: str, data: bytes, name: str,
        group: str | None, meta: dict,
    ) -> ProfileEntry:
        pid = f"p{self._seq + 1:06d}"
        token = f"{os.getpid()}-{pid}"
        with span("corpus.ingest.stage"):
            sdir = self._staging_dir(token)
            os.makedirs(sdir, exist_ok=True)
            spath = os.path.join(sdir, f"{pid}.rpdb")
            with open(spath, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            _fsync_dir(sdir)
            crash_point("corpus.ingest.staged")
            checksum = zlib.crc32(data) & 0xFFFFFFFF
            self._append_locked(
                "intent-ingest",
                tenant=tenant, pid=pid, kind="rpdb", staging=token,
                name=name, group=group, meta=meta,
                bytes=len(data), checksum=checksum,
            )
        crash_point("corpus.ingest.intent")
        with span("corpus.ingest.commit"):
            profiles = self._profiles_dir(tenant)
            os.makedirs(profiles, exist_ok=True)
            final = os.path.join(profiles, f"{pid}.rpdb")
            os.rename(spath, final)
            _fsync_dir(profiles)
            crash_point("corpus.ingest.renamed")
            self._append_locked(
                "commit-profile",
                tenant=tenant, pid=pid, kind="rpdb",
                name=name, group=group, meta=meta,
                bytes=len(data), checksum=checksum,
                created_at=self._clock(),
            )
            crash_point("corpus.ingest.committed")
            shutil.rmtree(sdir, ignore_errors=True)
        return self._entries[tenant][pid]

    def _ingest_store(
        self, tenant: str, path: str, *,
        name: str, group: str | None, meta: dict | None,
        validate: bool,
    ) -> ProfileEntry:
        self._check_tenant(tenant)
        self._check_name(name)
        group = self._check_group(group)
        meta = self._check_meta(meta)
        if validate and not self._store_intact(path):
            raise DatabaseError(f"not a loadable .rpstore directory: {path}")
        with self._exclusive():
            pid = f"p{self._seq + 1:06d}"
            token = f"{os.getpid()}-{pid}"
            sdir = self._staging_dir(token)
            staged = os.path.join(sdir, f"{pid}.rpstore")
            shutil.copytree(path, staged)
            _fsync_tree(staged)
            _fsync_dir(sdir)
            crash_point("corpus.ingest.staged")
            files = _tree_manifest(staged)
            nbytes = sum(size for size, _crc in files.values())
            self._append_locked(
                "intent-compact",  # same resume rule: a store payload
                tenant=tenant, pid=pid, kind="rpstore", staging=token,
                name=name, group=group, meta=meta, sources=[],
            )
            crash_point("corpus.ingest.intent")
            profiles = self._profiles_dir(tenant)
            os.makedirs(profiles, exist_ok=True)
            final = os.path.join(profiles, f"{pid}.rpstore")
            os.rename(staged, final)
            _fsync_dir(profiles)
            crash_point("corpus.ingest.renamed")
            self._append_locked(
                "commit-compact",
                tenant=tenant, pid=pid, kind="rpstore",
                name=name, group=group, meta=meta,
                bytes=nbytes, checksum=0, files=files, sources=[],
                created_at=self._clock(),
            )
            crash_point("corpus.ingest.committed")
            shutil.rmtree(sdir, ignore_errors=True)
            entry = self._entries[tenant][pid]
            self._enforce_locked(tenant)
        return entry

    # ------------------------------------------------------------------ #
    # compaction
    # ------------------------------------------------------------------ #
    def compactable_groups(
        self, tenant: str, min_sources: int = 2
    ) -> dict[str, list[str]]:
        """Groups with enough single-file members to be worth merging."""
        self.refresh()
        with self._mu:
            groups: dict[str, list[str]] = {}
            for pid, entry in sorted(self._entries.get(tenant, {}).items()):
                if entry.kind == "rpdb" and entry.group:
                    groups.setdefault(entry.group, []).append(pid)
            return {g: pids for g, pids in groups.items() if len(pids) >= min_sources}

    def compact_group(
        self,
        tenant: str,
        group: str,
        *,
        min_sources: int = 2,
        working_set_bytes: int | None = None,
    ) -> ProfileEntry | None:
        """Merge a group's ``.rpdb`` members into one ``.rpstore``.

        The sources stay committed — listed, openable, diffable — until
        the merged store's commit record lands; only then are their
        files unlinked (their catalog entries fall out of the same
        ``commit-compact`` record, atomically).  Interrupted at any
        point, the next call (or :meth:`recover`) converges: the merge
        restarts from the unchanged sources, or the landed store is
        committed as-is.  Returns ``None`` when the group is too small.
        """
        from repro.hpcprof.merge import merge_rank_files

        self._check_tenant(tenant)
        group = self._check_group(group)
        if group is None:
            raise CorpusError("compaction needs a group tag")
        with self._exclusive():
            bucket = self._entries.get(tenant, {})
            sources = sorted(
                pid for pid, e in bucket.items()
                if e.kind == "rpdb" and e.group == group
            )
            if len(sources) < min_sources:
                return None
            if any(self._pinned_locked(tenant, pid) for pid in sources):
                raise ProfilePinned(
                    f"group {group!r} has members pinned by open sessions"
                )
            pid = f"p{self._seq + 1:06d}"
            token = f"{os.getpid()}-{pid}"
            with span("corpus.compact.stage"):
                sdir = self._staging_dir(token)
                os.makedirs(sdir, exist_ok=True)
                self._append_locked(
                    "intent-compact",
                    tenant=tenant, pid=pid, kind="rpstore", staging=token,
                    name=f"{group}.rpstore", group=group,
                    meta={"compacted-from": len(sources)}, sources=sources,
                )
            crash_point("corpus.compact.intent")
            staged = os.path.join(sdir, f"{pid}.rpstore")
            paths = [
                os.path.join(self._profiles_dir(tenant), f"{src}.rpdb")
                for src in sources
            ]
            kwargs = {}
            if working_set_bytes is not None:
                kwargs["working_set_bytes"] = working_set_bytes
            with span("corpus.compact.merge"):
                merge_rank_files(paths, staged, name=group, overwrite=True,
                                 **kwargs)
            with span("corpus.compact.seal"):
                _fsync_tree(staged)
                _fsync_dir(sdir)
                crash_point("corpus.compact.merged")
                files = _tree_manifest(staged)
                nbytes = sum(size for size, _crc in files.values())
                profiles = self._profiles_dir(tenant)
                final = os.path.join(profiles, f"{pid}.rpstore")
                os.rename(staged, final)
                _fsync_dir(profiles)
            crash_point("corpus.compact.renamed")
            with span("corpus.compact.commit"):
                self._append_locked(
                    "commit-compact",
                    tenant=tenant, pid=pid, kind="rpstore",
                    name=f"{group}.rpstore", group=group,
                    meta={"compacted-from": len(sources)},
                    bytes=nbytes, checksum=0, files=files, sources=sources,
                    created_at=self._clock(),
                )
                crash_point("corpus.compact.committed")
                for path in paths:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                crash_point("corpus.compact.cleaned")
                shutil.rmtree(sdir, ignore_errors=True)
            return self._entries[tenant][pid]

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def tenants(self) -> list[str]:
        self.refresh()
        with self._mu:
            return sorted(t for t, bucket in self._entries.items() if bucket)

    def list(self, tenant: str) -> list[ProfileEntry]:
        self._check_tenant(tenant)
        self.refresh()
        with self._mu:
            return [e for _pid, e in sorted(self._entries.get(tenant, {}).items())]

    def get(self, tenant: str, pid: str) -> ProfileEntry:
        self._check_tenant(tenant)
        self.refresh()
        with self._mu:
            entry = self._entries.get(tenant, {}).get(pid)
        if entry is None:
            raise CorpusError(f"unknown profile {tenant}/{pid}")
        return entry

    def search(
        self,
        tenant: str,
        *,
        name: str | None = None,
        group: str | None = None,
        meta: dict | None = None,
    ) -> list[ProfileEntry]:
        """Committed profiles matching every given criterion.

        *name* is a substring match, *group* exact, *meta* a subset
        match (every given key present with an equal value).
        """
        out = []
        for entry in self.list(tenant):
            if name is not None and name not in entry.name:
                continue
            if group is not None and entry.group != group:
                continue
            if meta and any(entry.meta.get(k) != v for k, v in meta.items()):
                continue
            out.append(entry)
        return out

    def verify(self, tenant: str, pid: str) -> ProfileEntry:
        """Checksum a committed profile; :class:`CorpusCorrupt` if torn."""
        entry = self.get(tenant, pid)
        path = os.path.join(self._profiles_dir(tenant), entry.filename)
        if entry.kind == "rpdb":
            try:
                size, crc = _file_crc(path)
            except OSError as exc:
                raise CorpusCorrupt(
                    f"committed profile {tenant}/{pid} unreadable: {exc}"
                ) from None
            if size != entry.bytes or crc != entry.checksum:
                raise CorpusCorrupt(
                    f"committed profile {tenant}/{pid} fails its checksum "
                    f"(size {size} vs {entry.bytes}, crc {crc:#x} vs "
                    f"{entry.checksum:#x})"
                )
            return entry
        recorded = entry.files or {}
        actual = _tree_manifest(path) if os.path.isdir(path) else None
        if actual != recorded:
            raise CorpusCorrupt(
                f"committed store {tenant}/{pid} does not match its manifest"
            )
        return entry

    def read_bytes(self, tenant: str, pid: str) -> bytes:
        """The verified raw payload of a committed ``.rpdb`` profile."""
        entry = self.verify(tenant, pid)
        if entry.kind != "rpdb":
            raise CorpusError(f"{tenant}/{pid} is a store directory, not a file")
        with open(os.path.join(self._profiles_dir(tenant), entry.filename), "rb") as fh:
            return fh.read()

    def load(self, tenant: str, pid: str, *, salvage: bool = False):
        """Open a committed profile as an experiment (checksum-verified)."""
        from repro.hpcprof import database

        entry = self.verify(tenant, pid)
        path = os.path.join(self._profiles_dir(tenant), entry.filename)
        return database.load(path, strict=not salvage)

    def stats(self) -> dict:
        self.refresh()
        with self._mu:
            tenants = {}
            for tenant, bucket in sorted(self._entries.items()):
                if not bucket:
                    continue
                tenants[tenant] = {
                    "profiles": len(bucket),
                    "bytes": sum(e.bytes for e in bucket.values()),
                    "groups": sorted({e.group for e in bucket.values() if e.group}),
                    "policy": self.policy(tenant).to_payload(),
                }
            return {
                "root": self.root,
                "seq": self._seq,
                "journal_bytes": self._offset,
                "pending": len(self._pending),
                "tenants": tenants,
            }

    # ------------------------------------------------------------------ #
    # pins (open sessions protect profiles from eviction)
    # ------------------------------------------------------------------ #
    def _pin_path(self, tenant: str, pid: str, owner: str) -> str:
        return os.path.join(self._pins_dir(), f"{tenant}@@{pid}@@{owner}.pin")

    def pin(self, tenant: str, pid: str, owner: str, *,
            refresh: bool = False) -> None:
        """Record that *owner* (a session id) holds *tenant*/*pid* open.

        The pin is a file naming this process, so it is visible to every
        pool worker and self-expiring: a pin whose process died is stale
        and reaped on the next scan.

        ``refresh=True`` rewrites an existing pin to name *this*
        process.  A pool worker adopting a crashed sibling's session
        must refresh: the pin on disk still carries the dead worker's
        pid, so without the rewrite the next eviction scan would reap
        it and a quota'd tenant could evict the profile out from under
        the live session.
        """
        self._check_tenant(tenant)
        if not _OWNER_RE.match(owner or ""):
            raise CorpusError(f"invalid pin owner: {owner!r}")
        self.get(tenant, pid)  # must exist
        os.makedirs(self._pins_dir(), exist_ok=True)
        path = self._pin_path(tenant, pid, owner)
        blob = json.dumps({"ospid": os.getpid(), "owner": owner}).encode()
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            if not refresh:
                return  # same owner re-pinning is a no-op
            # atomic rewrite: never leave a moment without a pin file
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
            return
        try:
            os.write(fd, blob)
        finally:
            os.close(fd)

    def unpin(self, tenant: str, pid: str, owner: str) -> None:
        try:
            os.unlink(self._pin_path(tenant, pid, owner))
        except OSError:
            pass

    def release_pins(self, owner: str) -> int:
        """Remove every pin held by *owner*, returning how many.

        Session close in the worker pool needs this: the closing worker
        may have *adopted* the session from the worker that opened the
        profile and never saw the in-memory pin record.  The pin
        filename carries its owner, so any process can release it.
        """
        suffix = f"@@{owner}.pin"
        try:
            names = os.listdir(self._pins_dir())
        except FileNotFoundError:
            return 0
        released = 0
        for name in names:
            if not name.endswith(suffix):
                continue
            try:
                os.unlink(os.path.join(self._pins_dir(), name))
                released += 1
            except OSError:
                pass
        return released

    def _pinned_locked(self, tenant: str, pid: str) -> bool:
        prefix = f"{tenant}@@{pid}@@"
        try:
            names = os.listdir(self._pins_dir())
        except FileNotFoundError:
            return False
        for name in names:
            if not name.startswith(prefix) or not name.endswith(".pin"):
                continue
            full = os.path.join(self._pins_dir(), name)
            try:
                with open(full, "r", encoding="utf-8") as fh:
                    ospid = int(json.load(fh).get("ospid", -1))
            except (OSError, ValueError, AttributeError):
                ospid = -1
            if ospid > 0 and _pid_alive(ospid):
                return True
            try:
                os.unlink(full)  # stale: the pinning process is gone
            except OSError:
                pass
        return False

    def pinned(self, tenant: str, pid: str) -> bool:
        """True while any live process holds this profile open."""
        self._check_tenant(tenant)
        with self._mu:
            return self._pinned_locked(tenant, pid)

    # ------------------------------------------------------------------ #
    # delete / retention
    # ------------------------------------------------------------------ #
    def delete(self, tenant: str, pid: str, *, reason: str = "delete") -> None:
        """Durably remove a committed profile (journal first, then unlink).

        Raises :class:`ProfilePinned` while an open session holds it.
        """
        self._check_tenant(tenant)
        with self._exclusive():
            if pid not in self._entries.get(tenant, {}):
                raise CorpusError(f"unknown profile {tenant}/{pid}")
            if self._pinned_locked(tenant, pid):
                raise ProfilePinned(
                    f"profile {tenant}/{pid} is pinned by an open session"
                )
            self._delete_locked(tenant, pid, reason)

    def _delete_locked(self, tenant: str, pid: str, reason: str) -> None:
        entry = self._entries[tenant][pid]
        self._append_locked(
            "delete-profile", tenant=tenant, pid=pid, reason=reason
        )
        crash_point("corpus.evict.journaled")
        path = os.path.join(self._profiles_dir(tenant), entry.filename)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        else:
            try:
                os.unlink(path)
            except OSError:
                pass
        crash_point("corpus.evict.unlinked")

    def set_policy(
        self, tenant: str, policy: RetentionPolicy
    ) -> list[dict]:
        """Durably set a tenant's retention policy and enforce it now.

        Returns what the immediate enforcement evicted (see
        :meth:`enforce_retention`), usually ``[]``.
        """
        self._check_tenant(tenant)
        if not isinstance(policy, RetentionPolicy):
            policy = RetentionPolicy.from_payload(policy)
        with self._exclusive():
            self._append_locked(
                "set-policy", tenant=tenant, pid=None,
                policy=policy.to_payload(),
            )
            return self._enforce_locked(tenant)

    def policy(self, tenant: str) -> RetentionPolicy:
        self._check_tenant(tenant)
        with self._mu:
            return self._policies.get(tenant) or RetentionPolicy()

    def enforce_retention(self, tenant: str | None = None) -> list[dict]:
        """Evict oldest-first until every (or one) tenant fits its policy.

        Pinned profiles are skipped, never evicted — the tenant may
        temporarily exceed its quota while sessions are open.  Returns
        ``[{"tenant", "id", "reason"}, ...]`` for what was evicted.
        """
        with self._exclusive():
            if tenant is not None:
                self._check_tenant(tenant)
                return self._enforce_locked(tenant)
            evicted = []
            for t in sorted(self._entries):
                evicted.extend(self._enforce_locked(t))
            return evicted

    def _enforce_locked(self, tenant: str) -> list[dict]:
        policy = self._policies.get(tenant)
        if policy is None or policy.unlimited:
            return []
        evicted: list[dict] = []
        now = self._clock()

        def _evict(pid: str, reason: str) -> bool:
            if self._pinned_locked(tenant, pid):
                return False
            # resolve the payload path before the entry disappears —
            # callers invalidate path-keyed caches from this record
            path = os.path.join(
                self._profiles_dir(tenant),
                self._entries[tenant][pid].filename,
            )
            self._delete_locked(tenant, pid, reason)
            evicted.append(
                {"tenant": tenant, "id": pid, "reason": reason, "path": path}
            )
            return True

        oldest_first = lambda: sorted(  # noqa: E731 - tiny local helper
            self._entries.get(tenant, {}).values(),
            key=lambda e: (e.created_at, e.pid),
        )
        if policy.ttl_s is not None:
            for entry in oldest_first():
                if now - entry.created_at > policy.ttl_s:
                    _evict(entry.pid, "ttl")
        if policy.max_profiles is not None:
            entries = oldest_first()
            excess = len(entries) - policy.max_profiles
            for entry in entries:
                if excess <= 0:
                    break
                if _evict(entry.pid, "count"):
                    excess -= 1
        if policy.max_bytes is not None:
            entries = oldest_first()
            total = sum(e.bytes for e in entries)
            for entry in entries:
                if total <= policy.max_bytes:
                    break
                if _evict(entry.pid, "quota"):
                    total -= entry.bytes
        return evicted

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "CorpusCatalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_corpus(
    root: str,
    *,
    create: bool = False,
    recover: bool = True,
) -> CorpusCatalog:
    """Open (or with *create* initialize) a corpus root directory.

    The one-call entry point mirroring :func:`repro.api.open_database`:
    returns a ready :class:`CorpusCatalog` after journal replay and
    crash recovery.  Raises :class:`~repro.errors.CorpusError` for a
    directory that is not a corpus, :class:`~repro.errors.CorpusCorrupt`
    for one damaged beyond the recovery rules.
    """
    return CorpusCatalog(root, create=create, recover=recover)
