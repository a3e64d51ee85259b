"""Experiment database I/O with format dispatch.

``save`` / ``load`` pick the serializer from the file extension:
``.xml`` for the human-readable XML schema, ``.rpdb`` (or anything else)
for the compact binary format (framed v2 by default; see
:mod:`repro.hpcprof.binio`).

``load`` / ``loads`` take a ``strict`` flag (default ``True``).  Strict
loads convert every malformed-input failure — including files that
vanish between a check and the open — to :class:`DatabaseError`.
``strict=False`` switches to salvage mode
(:mod:`repro.hpcprof.recovery`): the largest validated prefix of a
corrupted or truncated binary database is recovered and returned as an
:class:`Experiment` tagged with a :class:`~repro.hpcprof.recovery.LoadReport`
(``experiment.load_report``) instead of raising.  Salvage applies to the
binary format only; XML databases always parse strictly.
"""

from __future__ import annotations

import os

from repro.errors import DatabaseError
from repro.hpcprof import binio, xmlio
from repro.hpcprof.experiment import Experiment

__all__ = ["save", "load", "loads", "XML_EXTENSION", "BINARY_EXTENSION",
           "STORE_EXTENSION"]

XML_EXTENSION = ".xml"
BINARY_EXTENSION = ".rpdb"
STORE_EXTENSION = ".rpstore"


def save(experiment: Experiment, path: str) -> int:
    """Serialize *experiment* to *path*; returns the byte size written.

    A ``.rpstore`` path builds an out-of-core column store directory
    (:func:`repro.core.store.create_store`) instead of a single file.
    """
    ext = os.path.splitext(path)[1].lower()
    if ext == STORE_EXTENSION:
        from repro.core.store import create_store

        store_exp = create_store(experiment, path, overwrite=True)
        size = store_exp.store.size_bytes()
        store_exp.close()
        return size
    if ext == XML_EXTENSION:
        data = xmlio.dumps_xml(experiment)
    else:
        data = binio.dumps_binary(experiment)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def loads(data: bytes, origin: str = "<bytes>", strict: bool = True) -> Experiment:
    """Deserialize an experiment, sniffing the format from the content.

    *origin* only labels error messages (a path, a URL, a session id);
    the analysis server loads uploaded/streamed databases through this
    without touching the filesystem.  ``strict=False`` salvages what a
    corrupted/truncated binary database still holds (see module doc).
    """
    if data[:4] == b"RPDB":
        if strict:
            return binio.loads_binary(data)
        from repro.hpcprof import recovery

        return recovery.salvage_loads(data, origin=origin)
    if data.lstrip()[:1] == b"<":
        return xmlio.loads_xml(data)
    raise DatabaseError(f"{origin}: unrecognized database format")


def has_binary_magic(path: str) -> bool:
    """True when the file at *path* starts with the binary format's magic.

    Unreadable paths answer False, so the caller's regular load raises
    its canonical error for them.
    """
    try:
        with open(path, "rb") as fh:
            return fh.read(4) == b"RPDB"
    except OSError:
        return False


def load(path: str, strict: bool = True, out_of_core: bool = False) -> Experiment:
    """Deserialize an experiment from a file, sniffing the format.

    The open/read is what gets checked — not a racy ``os.path.exists``
    probe — so a path deleted (or swapped for a directory, or made
    unreadable) between any check and the open still surfaces as
    :class:`DatabaseError` naming the path, never a raw ``OSError``
    traceback through a caller such as the analysis server.

    A *directory* path is dispatched to the out-of-core column store
    (:mod:`repro.core.store`): ``load("merged.rpstore")`` returns a
    :class:`~repro.core.store.StoreExperiment` whose engine matrices
    and rank data stay memory-mapped.  ``out_of_core=True`` additionally
    routes strict binary *file* loads through the mmap streaming reader
    (:func:`repro.hpcprof.binio.read_binary_streaming`) so the raw bytes
    are never fully resident either; the decoded experiment is
    identical to the eager path.
    """
    if os.path.isdir(path):
        from repro.core.store import is_store_path, open_store

        if is_store_path(path):
            return open_store(path)
        raise DatabaseError(f"database path is a directory: {path}")
    if out_of_core and strict and has_binary_magic(path):
        return binio.read_binary_streaming(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise DatabaseError(f"no such database: {path}") from None
    except IsADirectoryError:
        raise DatabaseError(f"database path is a directory: {path}") from None
    except PermissionError:
        raise DatabaseError(f"database is not readable: {path}") from None
    except OSError as exc:
        raise DatabaseError(f"cannot read database {path}: {exc}") from None
    return loads(data, origin=path, strict=strict)
