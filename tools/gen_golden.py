#!/usr/bin/env python
"""Regenerate the golden regression corpus under ``tests/golden/data``.

For every fixture in ``tests/golden/corpus.py`` this writes:

* ``<name>.v2.rpdb`` — the experiment in the framed v2 format;
* ``<name>.<view>.txt`` — the canonical rendering of each of the three
  presentation views (see ``corpus.render_views``);
* ``<name>.table.rpcol`` — for the one pinned fixture, the framed
  columnar table bytes the server sends under ``Accept:
  application/x-repro-columnar`` (see ``corpus.columnar_table_bytes``);
* ``ensemble.align.{memory,files}.json`` — the golden ensemble's union
  preorder keys and align matrices as ``float.hex``, aligned from the
  in-memory members and from their ``.v2.rpdb`` files (see
  ``corpus.alignment_payload``);
* ``scale-merged.store.<file>`` — every file but the manifest of the
  store ``merge_rank_files`` folds from the six scale ranks (see
  ``corpus.merge_store_outputs``);
* ``<name>.trace.<file>`` — for every trace fixture, the exact bytes of
  its time-partitioned chunked store (manifest, skeleton, per-chunk
  event/slab files) plus JSON renders of a pinned window query, flame
  slab, and idleness series (see ``corpus.trace_outputs``).

The ``<name>.v1.rpdb`` files are frozen fixtures of the legacy unframed
format, which is read but no longer written: this script never writes
or removes them, and checks that each one decodes and re-encodes as v2
to exactly its ``.v2.rpdb`` twin.

``tests/golden/test_golden_corpus.py`` re-renders the checked-in
binaries through every reader path and compares byte-for-byte, so this
script is only ever run when an output change is *intentional*:

    PYTHONPATH=src python tools/gen_golden.py --write

Without ``--write`` it is a drift check: it regenerates everything
in-memory, diffs against the checked-in files and exits non-zero on any
mismatch (the same comparison the test makes, usable pre-commit).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from repro.hpcprof import binio  # noqa: E402
from tests.golden import corpus  # noqa: E402


def generate() -> dict[str, bytes]:
    """filename -> exact content for the complete corpus."""
    out: dict[str, bytes] = {}
    for name in sorted(corpus.FIXTURES):
        experiment = corpus.build_fixture(name)
        out[f"{name}.v2.rpdb"] = binio.dumps_binary(experiment)
        for slug, text in corpus.render_views(experiment).items():
            out[f"{name}.{slug}.txt"] = text.encode("utf-8")
        if name == corpus.COLUMNAR_FIXTURE:
            out[f"{name}.table.rpcol"] = corpus.columnar_table_bytes(
                experiment
            )
    out.update(corpus.query_outputs())
    out.update(corpus.ensemble_outputs())
    out.update(corpus.merge_store_outputs())
    out.update(corpus.trace_outputs())
    return out


def frozen_v1_drift(files: dict[str, bytes]) -> list[str]:
    """Each frozen ``<name>.v1.rpdb`` fixture must decode and re-encode
    as v2 to exactly its ``<name>.v2.rpdb`` twin in *files*."""
    drift = []
    for name in sorted(corpus.FIXTURES):
        path = Path(corpus.DATA_DIR) / f"{name}.v1.rpdb"
        if not path.exists():
            drift.append(f"missing frozen v1 fixture: {path.name}")
            continue
        v1 = binio.loads_binary(path.read_bytes(), exact=True)
        if binio.dumps_binary(v1) != files[f"{name}.v2.rpdb"]:
            drift.append(f"frozen v1 fixture differs from its v2 twin: "
                         f"{path.name}")
    return drift


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite tests/golden/data instead of checking")
    args = parser.parse_args(argv)

    files = generate()
    data_dir = Path(corpus.DATA_DIR)
    frozen = {f"{name}.v1.rpdb" for name in corpus.FIXTURES}
    if args.write:
        data_dir.mkdir(parents=True, exist_ok=True)
        stale = set(os.listdir(data_dir)) - set(files) - frozen
        for name in sorted(stale):
            (data_dir / name).unlink()
            print(f"removed stale {name}")
        for name, content in sorted(files.items()):
            (data_dir / name).write_bytes(content)
        print(f"wrote {len(files)} corpus files to {data_dir}")
        return 0

    drift = frozen_v1_drift(files)
    for name, content in sorted(files.items()):
        path = data_dir / name
        if not path.exists():
            drift.append(f"missing: {name}")
        elif path.read_bytes() != content:
            drift.append(f"differs: {name}")
    for line in drift:
        print(line)
    if drift:
        print("golden corpus drifted; if intentional rerun with --write")
        return 1
    print(f"golden corpus clean ({len(files)} files, "
          f"{len(frozen)} frozen v1 fixtures)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
