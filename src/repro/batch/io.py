"""Reading batch request files for the ``repro batch`` CLI.

Two formats:

* **JSONL** (``*.jsonl``/``*.ndjson``) — one request object per line,
  either ``{"seqs": ["...", "...", "..."]}`` or ``{"a": ..., "b": ...,
  "c": ...}``, with optional ``"id"``, ``"mode"``, ``"method"`` and
  ``"constraints"`` (a list of ``[i, j, k, length]`` anchor triples,
  see :mod:`repro.anchor`) fields. Blank lines and ``#`` comment lines
  are skipped.
* **FASTA-of-many** — a plain FASTA file whose record count is a
  multiple of three; consecutive triples form the requests, identified
  by their first record's header.

Every request is normalised as it is read, exactly as the scheduler
will normalise it, so a bad one (for instance a DNA + protein triple
with no scheme to score it) is rejected with its file position before
any request of the batch runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Any, Callable, Sequence

from repro.batch.scheduler import AlignmentRequest, BatchScheduler
from repro.core.scoring import ScoringScheme
from repro.seqio.fasta import read_fasta

#: Extensions parsed as JSONL request files; everything else is FASTA.
JSONL_SUFFIXES = (".jsonl", ".ndjson", ".json")

#: Picks one request's scheme from its sequences (``None``: the
#: scheduler resolves the default scheme per request).
SchemeFor = Callable[[Sequence[str]], ScoringScheme]


def _normalised(
    where: str, req: AlignmentRequest, scheme_for: SchemeFor | None
) -> AlignmentRequest:
    try:
        if scheme_for is not None:
            req = replace(req, scheme=scheme_for(req.seqs))
        return BatchScheduler._normalise(req)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def requests_from_jsonl(
    path: Any,
    mode: str = "global",
    method: str = "auto",
    scheme_for: SchemeFor | None = None,
) -> list[AlignmentRequest]:
    """Parse a JSONL request file (see module docs for the line schema).

    ``mode`` and ``method`` apply where a line leaves the default
    (``global``/``auto``); ``scheme_for`` gives every request a scheme.
    """
    out: list[AlignmentRequest] = []
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from None
            if not isinstance(obj, dict):
                raise ValueError(
                    f"{path}:{lineno}: expected a JSON object, got "
                    f"{type(obj).__name__}"
                )
            if "seqs" in obj:
                seqs = obj["seqs"]
            elif all(k in obj for k in ("a", "b", "c")):
                seqs = [obj["a"], obj["b"], obj["c"]]
            else:
                raise ValueError(
                    f"{path}:{lineno}: request needs 'seqs' or 'a'/'b'/'c'"
                )
            if not (
                isinstance(seqs, list)
                and len(seqs) == 3
                and all(isinstance(s, str) for s in seqs)
            ):
                raise ValueError(
                    f"{path}:{lineno}: 'seqs' must be three strings"
                )
            constraints = None
            if obj.get("constraints"):
                from repro.anchor import constraints_from_jsonable

                try:
                    constraints = constraints_from_jsonable(
                        obj["constraints"]
                    )
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
            line_mode = obj.get("mode", "global")
            line_method = obj.get("method", "auto")
            req = AlignmentRequest(
                seqs=tuple(seqs),  # type: ignore[arg-type]
                mode=mode if line_mode == "global" else line_mode,
                method=method if line_method == "auto" else line_method,
                rid=str(obj["id"]) if "id" in obj else f"req{lineno}",
                constraints=constraints,
            )
            out.append(_normalised(f"{path}:{lineno}", req, scheme_for))
    return out


def requests_from_fasta(
    path: Any,
    mode: str = "global",
    method: str = "auto",
    scheme_for: SchemeFor | None = None,
) -> list[AlignmentRequest]:
    """Read a FASTA file as consecutive record triples."""
    records = read_fasta(path)
    if not records or len(records) % 3 != 0:
        raise ValueError(
            f"{path}: FASTA batch input needs a multiple of three records, "
            f"got {len(records)}"
        )
    out: list[AlignmentRequest] = []
    for start in range(0, len(records), 3):
        triple = records[start : start + 3]
        req = AlignmentRequest(
            seqs=tuple(s for _h, s in triple),  # type: ignore[arg-type]
            mode=mode,
            method=method,
            rid=triple[0][0].split()[0] if triple[0][0].split() else f"req{start // 3}",
        )
        where = f"{path}: records {start + 1}-{start + 3}"
        out.append(_normalised(where, req, scheme_for))
    return out


def read_requests(
    path: Any,
    mode: str = "global",
    method: str = "auto",
    scheme_for: SchemeFor | None = None,
) -> list[AlignmentRequest]:
    """Dispatch on extension: JSONL request file or FASTA-of-many.

    JSONL lines may carry their own mode/method; the arguments here are
    the defaults (and the only source for FASTA input). ``scheme_for``,
    when given, picks each request's scheme from its own sequences.
    """
    text = os.fspath(path)
    if text.lower().endswith(JSONL_SUFFIXES):
        return requests_from_jsonl(path, mode, method, scheme_for)
    return requests_from_fasta(path, mode, method, scheme_for)
