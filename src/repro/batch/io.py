"""Reading alignment requests: the request object and the batch files.

:func:`request_from_json` is the one reader of the request object, the
schema shared by ``POST /v1/align`` (:mod:`repro.serve.app`, and so the
router) and ``repro batch``: ``{"seqs": ["...", "...", "..."]}`` or
``{"a": ..., "b": ..., "c": ...}``, with optional ``"id"``, ``"mode"``,
``"method"`` and ``"constraints"`` (a list of ``[i, j, k, length]``
anchor triples, see :mod:`repro.anchor`) fields.

``repro batch`` reads two file formats:

* **JSONL** (``*.jsonl``/``*.ndjson``) — one request object per line.
  Blank lines and ``#`` comment lines are skipped.
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
from typing import Any, Callable, Sequence

from repro.batch.scheduler import AlignmentRequest, BatchScheduler
from repro.core.scoring import ScoringScheme
from repro.seqio.fasta import read_fasta

#: Extensions parsed as JSONL request files; everything else is FASTA.
JSONL_SUFFIXES = (".jsonl", ".ndjson", ".json")

#: Picks one request's scheme from its sequences (``None``: the
#: scheduler resolves the default scheme per request).
SchemeFor = Callable[[Sequence[str]], ScoringScheme]


def request_from_json(
    obj: Any,
    *,
    mode: str = "global",
    method: str = "auto",
    rid: str | None = None,
    scheme_for: SchemeFor | None = None,
) -> AlignmentRequest:
    """Build and normalise one request from its JSON object.

    ``mode``, ``method`` and ``rid`` stand where the object sets no
    ``mode``, ``method`` or ``id``; ``scheme_for`` gives the request a
    scheme. The request is normalised as the scheduler normalises it
    (:meth:`BatchScheduler._normalise`). Any fault raises ``ValueError``
    without a position; each caller prefixes its own.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    if "seqs" in obj:
        seqs = obj["seqs"]
    elif all(k in obj for k in ("a", "b", "c")):
        seqs = [obj["a"], obj["b"], obj["c"]]
    else:
        raise ValueError("a request needs 'seqs' or 'a'/'b'/'c'")
    if not (
        isinstance(seqs, list)
        and len(seqs) == 3
        and all(isinstance(s, str) for s in seqs)
    ):
        raise ValueError("'seqs' must be three strings")
    constraints = None
    if obj.get("constraints"):
        from repro.anchor import constraints_from_jsonable

        constraints = constraints_from_jsonable(obj["constraints"])
    seqs = tuple(seqs)
    try:
        return BatchScheduler._normalise(AlignmentRequest(
            seqs=seqs,  # type: ignore[arg-type]
            scheme=scheme_for(seqs) if scheme_for is not None else None,
            mode=obj.get("mode", mode),
            method=obj.get("method", method),
            rid=str(obj["id"]) if "id" in obj else rid,
            constraints=constraints,
        ))
    except TypeError as exc:  # e.g. an unhashable method name
        raise ValueError(str(exc)) from None


def _read(where: str, obj: Any, **defaults: Any) -> AlignmentRequest:
    try:
        return request_from_json(obj, **defaults)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def requests_from_jsonl(
    path: Any,
    mode: str = "global",
    method: str = "auto",
    scheme_for: SchemeFor | None = None,
) -> list[AlignmentRequest]:
    """Parse a JSONL request file, one request object per line.

    ``mode`` and ``method`` apply where a line names none; a line
    without an ``id`` is ``req<line number>``; ``scheme_for`` gives
    every request a scheme.
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
            out.append(_read(
                f"{path}:{lineno}", obj, mode=mode, method=method,
                rid=f"req{lineno}", scheme_for=scheme_for,
            ))
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
        words = triple[0][0].split()
        out.append(_read(
            f"{path}: records {start + 1}-{start + 3}",
            {"seqs": [s for _h, s in triple]}, mode=mode, method=method,
            rid=words[0] if words else f"req{start // 3}",
            scheme_for=scheme_for,
        ))
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
