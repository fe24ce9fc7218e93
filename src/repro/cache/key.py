"""Canonical request digests for the result cache.

A cache key must be *content-addressed*: two requests collide exactly when
an engine would be handed the same inputs. The digest therefore covers

* the three sequences, upcased (every alphabet encoder upcases, so
  ``"gat"`` and ``"GAT"`` are the same request);
* the full :class:`~repro.core.scoring.ScoringScheme` — alphabet letters
  and wildcard, the raw ``float64`` bytes of the substitution matrix, and
  both gap parameters (the ``name`` is presentation only and excluded);
* the alignment ``mode`` (``global``/``local``/``semiglobal``); and
* the **equivalence class** of the method that will run
  (:func:`method_key_class`, from :data:`repro.core.methods.METHODS`),
  not the raw request string. The exact linear-gap engines
  ``dp3d``, ``wavefront``, ``pruned``, ``banded`` and ``blocks`` share
  one tie-break and so return the same rows: they share the class
  ``"exact"``. ``hirschberg`` returns the same optimal score but, on
  ties, another co-optimal alignment, so it keys as itself — a hit must
  return the rows its engine would have computed. The batch scheduler
  (``repro.batch.BatchScheduler._resolve``) keys on the class of the
  engine ``repro.core.api.resolve_method`` planned, after ``auto`` and
  the memory plan: a ``wavefront`` run degraded to ``hirschberg`` stores
  its rows under ``"hirschberg"``. Chain-solver requests (constraints, or
  ``method="anchored"``) pick their engines per sub-cube, so they key
  on :func:`chain_key_class` instead, and a result is stored only if
  :func:`chain_engines_fit` its key.

Permutation equivalence
-----------------------
SP scoring is symmetric in the three sequences: aligning ``(B, A, C)``
is the same DP as ``(A, B, C)`` with the rows swapped, and the optimal
*score* is identical. :func:`permutation_key` digests the sequences in
sorted order so permutation-equivalent requests share a secondary key,
and :func:`permute_rows` maps an alignment computed for one order onto
another. Tie-breaking among co-optimal alignments is order-dependent, so
a permutation-derived alignment is guaranteed score-identical but not
row-identical to a cold compute — callers must keep the two hit classes
distinct (see ``docs/batching.md``).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from repro.core.methods import METHODS, subcube_engine
from repro.core.scoring import ScoringScheme
# MODES (the alignment modes a key may carry) lives with the core types.
from repro.core.types import MODES, Alignment3

#: Exact linear-gap engines that share the kernel's tie-break (moves
#: 1..7, first of equals), and so return the same rows: their cached
#: results are interchangeable.
EXACT_METHODS = frozenset(
    m for m, row in METHODS.items() if row.key_class == "exact"
)


def method_key_class(method: str) -> str:
    """Cache-key equivalence class of the engine that will run.

    The engines of :data:`EXACT_METHODS` collapse to ``"exact"``;
    anything else (``hirschberg``, ``affine``) keys as itself. ``auto``
    must be resolved before calling this — passing it through would key
    the same answer twice.
    """
    if method == "auto":
        raise ValueError("resolve method='auto' before deriving a cache key")
    return METHODS[method].key_class


def chain_key_class(method: str, constrained: bool) -> str:
    """Cache-key class of a chain-solver request.

    An unconstrained ``anchored`` request discovers its own chain and
    keys as ``"anchored"``. A constrained request keys as its sub-cube
    engine: ``hirschberg`` apart from the exact class, and ``auto``
    (also named by ``anchored``) apart from both, because it may send a
    sub-cube to ``hirschberg``. The constraint digest in
    :func:`request_key` keeps these apart from unconstrained entries.
    """
    if not constrained:
        return "anchored"
    engine = subcube_engine(method)
    return "auto" if engine == "auto" else method_key_class(engine)


def chain_engines_fit(key_class: str, engines: Iterable[str]) -> bool:
    """Whether a chain result may be stored under ``key_class``.

    ``engines`` are the sub-cube engines that ran
    (``meta["anchor"]["engines"]``). A sub-cube the memory plan
    degraded ran another engine than the request named, so its rows do
    not belong under the named class; ``auto`` and ``anchored`` keys
    take whatever the per-sub-cube selection ran.
    """
    if key_class in ("auto", "anchored"):
        return True
    return all(method_key_class(e) == key_class for e in engines)


def scheme_fingerprint(scheme: ScoringScheme) -> bytes:
    """Byte string identifying the scoring semantics of ``scheme``.

    Covers everything that changes a DP result; excludes ``name``.
    """
    parts = [
        scheme.alphabet.letters.encode(),
        (scheme.alphabet.wildcard or "").encode(),
        repr(float(scheme.gap)).encode(),
        repr(float(scheme.gap_open)).encode(),
        scheme.matrix.tobytes(),
    ]
    return b"\x1f".join(parts)


def request_key(
    seqs: Sequence[str],
    scheme: ScoringScheme,
    mode: str = "global",
    method: str = "auto",
    *,
    constraints: Sequence[Sequence[int]] | None = None,
) -> str:
    """Primary cache key: exact request identity (order-sensitive).

    ``constraints`` is the *normalised* anchor chain (sorted
    ``(i, j, k, length)`` tuples from
    :func:`repro.anchor.normalize_constraints`); a constrained request
    computes a different optimum, so the chain is folded into the
    digest. ``None`` and ``()`` contribute nothing — unconstrained
    requests hash byte-for-byte as they did before constraints existed,
    so no persisted cache entry is invalidated.
    """
    if len(seqs) != 3:
        raise ValueError(f"request needs exactly three sequences, got {len(seqs)}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; available: {MODES}")
    h = hashlib.sha256()
    for s in seqs:
        h.update(s.upper().encode())
        h.update(b"\x1e")
    h.update(scheme_fingerprint(scheme))
    h.update(b"\x1e")
    h.update(mode.encode())
    h.update(b"\x1e")
    h.update(method.encode())
    if constraints:
        h.update(b"\x1e")
        for c in constraints:
            i, j, k, length = c
            h.update(f"{i},{j},{k},{length};".encode())
    return h.hexdigest()


def canonical_order(seqs: Sequence[str]) -> tuple[tuple[str, str, str], tuple[int, ...]]:
    """Sorted sequence triple plus the permutation that produced it.

    Returns ``(canonical, perm)`` with ``canonical[i] == seqs[perm[i]]``;
    the sort is stable, so duplicate sequences keep their input order and
    the permutation is deterministic.
    """
    order = sorted(range(3), key=lambda i: seqs[i].upper())
    canonical = tuple(seqs[i] for i in order)
    return canonical, tuple(order)  # type: ignore[return-value]


def permutation_key(
    seqs: Sequence[str],
    scheme: ScoringScheme,
    mode: str = "global",
    method: str = "auto",
) -> str:
    """Secondary key shared by all orderings of the same sequence triple."""
    canonical, _perm = canonical_order(seqs)
    return request_key(canonical, scheme, mode, method)


def permute_rows(aln: Alignment3, perm: Sequence[int]) -> Alignment3:
    """Reorder alignment rows by ``perm`` (``new.rows[i] == aln.rows[perm[i]]``).

    Columns are untouched, so the result is a valid alignment with the
    identical SP score (the objective is symmetric in the rows). Meta is
    shallow-copied with ``permuted_from`` recording the row map.
    """
    if sorted(perm) != [0, 1, 2]:
        raise ValueError(f"perm must be a permutation of (0, 1, 2), got {perm}")
    rows = tuple(aln.rows[p] for p in perm)
    meta = dict(aln.meta)
    spans = meta.get("spans")
    if isinstance(spans, (list, tuple)) and len(spans) == 3:
        # Per-row provenance (local/semiglobal) must follow its row.
        meta["spans"] = [spans[p] for p in perm]
    meta["permuted_from"] = list(perm)
    return Alignment3(rows=rows, score=aln.score, meta=meta)  # type: ignore[arg-type]


def derive_for_order(
    canonical_aln: Alignment3, seqs: Sequence[str]
) -> Alignment3:
    """Map an alignment of ``canonical_order(seqs)`` back onto ``seqs``.

    ``canonical[i] == seqs[perm[i]]`` means row ``i`` of the canonical
    alignment belongs at position ``perm[i]`` of the request, i.e. the
    request's row ``j`` is canonical row ``perm.index(j)``.
    """
    _canonical, perm = canonical_order(seqs)
    inverse = tuple(perm.index(j) for j in range(3))
    return permute_rows(canonical_aln, inverse)


#: Meta keys that legitimately differ between two computes of the same
#: request (timings and cache/batch bookkeeping); stripped by
#: :func:`comparable_meta` before bit-identity comparisons.
VOLATILE_META_KEYS = frozenset(
    {"wall_time_s", "cache", "batch", "permuted_from"}
)


def comparable_meta(meta: dict) -> dict:
    """``meta`` with volatile keys stripped and values JSON-canonicalised.

    Two alignments of the same request are "bit-identical modulo timing"
    when their rows and scores are equal and their ``comparable_meta``
    views are equal — the canonicalisation makes a tuple-bearing in-memory
    meta comparable with one that round-tripped through the disk tier.
    """
    from repro.cache.store import jsonable

    return {
        k: jsonable(v) for k, v in meta.items() if k not in VOLATILE_META_KEYS
    }
