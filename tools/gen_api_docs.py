#!/usr/bin/env python
"""Generate ``docs/api.md`` from the server's endpoint registry.

The registry in :mod:`repro.server.schema` is the single source of
truth for the HTTP surface — paths, methods, request field schemas,
response shapes, error codes.  This script renders it as the endpoint
reference, so the docs cannot drift from the code:

    PYTHONPATH=src python tools/gen_api_docs.py --write
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields as dc_fields
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TARGET = REPO / "docs" / "api.md"

HEADER = """\
# HTTP API reference (v1)

<!-- Generated by tools/gen_api_docs.py from repro/server/schema.py.
     Do not edit by hand: rerun the generator after changing the
     endpoint registry. -->

Every endpoint is mounted under `/v1/...`; a path outside `/v1`
answers the structured `404 unknown-endpoint` of any unknown route.

Conventions:

* every response is a JSON object except `GET /v1/metrics`
  (Prometheus text exposition, `text/plain; version=0.0.4`);
* every response carries an `X-Trace-Id` header; failures embed the
  same id as `error.trace_id`, and slow-query log lines repeat it;
* failures use the structured taxonomy:
  `{"error": {"status", "code", "message", "trace_id"[, "retry_after"]}}`;
* `GET` endpoints accept the same fields as URL query parameters
  (values parse as JSON scalars: `depth=4`, `hot_path=true`);
* table-shaped operations list their **encodings**: JSON by default,
  or the framed columnar table (`application/x-repro-columnar`) when
  the request's `Accept` names it (parameters and case are ignored;
  wildcards do not select it);
* operations marked **cached** are served from the session's response
  cache, keyed on the session id, its generation, the canonical
  request and the negotiated encoding (plus the session's sort spec
  and flatten depth where the request resolves against them); each
  fill is encoded once, so a repeat on an unchanged session is a byte
  write, and
  every mutation (derived metric, flatten, unflatten) bumps the
  generation and drops the session's entries;
* request bodies over the server's `--max-body` limit are rejected
  with `413 payload-too-large`.
"""


def _default_repr(spec) -> str:
    if spec.required:
        return "**required**"
    if spec.default is None:
        return "—"
    if isinstance(spec.default, bool):
        return f"`{str(spec.default).lower()}`"
    return f"`{spec.default!r}`"


def _request_table(request) -> list[str]:
    specs = list(request.FIELDS)
    for extra in ("_DB_FIELDS", "_WORKLOAD_FIELDS"):
        specs.extend(getattr(request, extra, ()))
    lines = [
        "| field | type | default | constraints | description |",
        "|---|---|---|---|---|",
    ]
    for spec in specs:
        constraints = []
        if spec.lo is not None or spec.hi is not None:
            constraints.append(f"range [{spec.lo}, {spec.hi}]")
        if spec.choices:
            constraints.append(
                "one of " + ", ".join(f"`{c}`" for c in spec.choices)
            )
        lines.append(
            f"| `{spec.name}` | {spec.type_name} | {_default_repr(spec)} "
            f"| {'; '.join(constraints) or '—'} | {spec.doc} |"
        )
    return lines


def _response_fields(response) -> str:
    parts = []
    for f in dc_fields(response):
        optional = (
            f.default is not MISSING and f.metadata.get("omit_none")
        )
        parts.append(f"`{f.name}`" + ("?" if optional else ""))
    return ", ".join(parts)


def render() -> str:
    from repro.server.schema import API_VERSION, ENDPOINTS
    from repro.errors import WIRE_CODES

    out = [HEADER]
    out.append("## Endpoints\n")
    for endpoint in ENDPOINTS:
        seen = set()
        for op in endpoint.ops:
            key = (op.handler,)
            methods = "/".join(
                o.method for o in endpoint.ops if o.handler == op.handler
            )
            if key in seen:
                continue
            seen.add(key)
            out.append(f"### `{methods} /{API_VERSION}{endpoint.path}`\n")
            out.append(op.summary[0].upper() + op.summary[1:] + ".\n")
            notes = []
            if endpoint.admission_exempt:
                notes.append(
                    "exempt from admission control (usable while the "
                    "server sheds load)"
                )
            if endpoint.raw:
                notes.append("non-JSON response body")
            if op.status != 200:
                notes.append(f"success status `{op.status}`")
            if len(op.encodings) > 1:
                notes.append("encodings: " + ", ".join(
                    f"`{media}`" for media in op.encodings))
            if op.cache is not None:
                scope = (f"the session named by `{op.cache.session}`"
                         if op.cache.session else "the `<sid>` session")
                state = (" and its sort/flatten state"
                         if op.cache.view_state else "")
                notes.append(
                    f"cached per generation of {scope}{state} "
                    f"(counter label `{op.cache.name}`)"
                )
            if notes:
                out.append("*" + "; ".join(notes) + "*\n")
            if op.request is not None:
                out.append("Request fields:\n")
                out.extend(_request_table(op.request))
                out.append("")
            if op.response is not None:
                out.append(
                    f"Response object: {_response_fields(op.response)} "
                    f"(`?` = omitted when absent).\n"
                )
            if op.errors:
                out.append(
                    "Error codes: "
                    + ", ".join(f"`{code}`" for code in op.errors)
                    + " (plus the request-pipeline codes below).\n"
                )
    out.append("## Request-pipeline error codes\n")
    out.append(
        "Any endpoint can answer with: `malformed-json`, "
        "`malformed-encoding`, `bad-request-shape`, `missing-field`, "
        "`bad-field-type`, `bad-field-value` (400); "
        "`unknown-endpoint`, `unknown-session` (404); "
        "`method-not-allowed` (405); `payload-too-large` (413); "
        "`rate-limited` (429); `deadline-exceeded`, `overloaded` (503).\n"
    )
    out.append("## Domain error translation\n")
    out.append(
        "Domain failures from the analysis engine map onto one wire "
        "code per error family (`repro.errors.WIRE_CODES`):\n"
    )
    out.append("| domain error | wire code | status |")
    out.append("|---|---|---|")
    for exc_type, (code, status) in WIRE_CODES.items():
        out.append(f"| `{exc_type.__name__}` | `{code}` | {status} |")
    out.append("")
    out.append("## Python facade\n")
    out.append(
        "The blessed Python surface is `repro.api` (see its docstring "
        "and `tests/api_surface.txt` for the pinned name list):\n"
    )
    out.append("```python")
    out.append("from repro.api import open_database, ViewKind, render_view")
    out.append("")
    out.append('session = open_database("experiment.rpdb")')
    out.append("print(render_view(session.view(ViewKind.CALLING_CONTEXT)))")
    out.append("```")
    out.append("")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help=f"rewrite {TARGET.relative_to(REPO)} instead of printing",
    )
    args = parser.parse_args(argv)
    text = render()
    if args.write:
        TARGET.write_text(text)
        print(f"wrote {TARGET} ({len(text.splitlines())} lines)")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
