"""Batch scheduler: many alignment requests, one cache, one compute path.

A serving stack does not treat each request as a cold start. This
scheduler accepts a whole batch of :class:`AlignmentRequest`\\ s and
serves it in stages, cheapest first:

1. **Exact dedup** — requests are grouped by their content digest
   (:func:`repro.cache.request_key`, keyed on the *resolved* method's
   equivalence class, so ``auto`` and ``wavefront`` requests for the
   same triple form one group); each distinct request is looked up in
   the :class:`~repro.cache.ResultCache` once, and duplicates share the
   answer.
2. **Permutation reuse** — remaining groups are probed by the
   order-insensitive secondary key. A hit (from the cache, or from
   another group of this batch) is mapped onto the request's sequence
   order by permuting rows: score-identical by the symmetry of SP
   scoring, though tie-breaking means the rows may legitimately differ
   from a cold compute (marked ``meta["permuted_from"]``).
3. **Compute** — each true miss runs in this process, in request
   order, on the engine ``auto`` resolved to when the batch derived its
   keys (``select_method`` runs once per request): :func:`align3` for
   global mode, the single sweep of a local or semiglobal mode. Only
   ``blocks`` forks workers (a one-job pool of ``workers``); on two
   cores a pool pays only from n≈140 (``docs/performance.md``).
   Results are cached under both keys for the next batch.

Metrics land in :mod:`repro.obs` — cache hit/miss counters, a
per-request latency histogram and the batch dedup ratio — and render
via ``repro report`` / ``--metrics``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

from repro.cache import (
    ResultCache,
    derive_for_order,
    method_key_class,
    permutation_key,
    permute_rows,
    request_key,
)
from repro.cache.key import MODES, canonical_order
from repro.core.api import (
    AVAILABLE_METHODS,
    align3,
    resolve_scheme,
    select_method,
)
from repro.core.scoring import ScoringScheme
from repro.core.types import Alignment3
from repro.obs import hooks as _obs
from repro.obs import trace as _trace
from repro.seqio.alphabet import guess_common_alphabet
from repro.util.validation import check_sequences

#: Namespace prefix for order-insensitive secondary cache entries, kept
#: disjoint from exact digests so a permutation-derived alignment can
#: never masquerade as a bit-identical exact hit.
PERM_PREFIX = "p:"

#: Unused here; ``perfbench/sut.py`` still imports it.
DEFAULT_MAX_POOL_CELLS = 2_000_000


@dataclass(frozen=True)
class AlignmentRequest:
    """One alignment request inside a batch.

    ``scheme=None`` resolves per request from the guessed alphabet
    (:func:`repro.core.api.resolve_scheme`); ``rid`` is an optional
    caller-supplied identifier echoed back on the result.
    ``constraints`` is an optional anchor chain (``(i, j, k, length)``
    tuples, see :mod:`repro.anchor`) forwarded to
    ``align3(constraints=...)``; it is normalised at admission and
    folded into the cache key.
    """

    seqs: tuple[str, str, str]
    scheme: ScoringScheme | None = None
    mode: str = "global"
    method: str = "auto"
    rid: str | None = None
    constraints: tuple[tuple[int, int, int, int], ...] | None = None


@dataclass
class RequestResult:
    """How one request was served."""

    index: int
    rid: str | None
    alignment: Alignment3
    key: str
    #: ``memory_hit``/``disk_hit`` (cache), ``dedup`` (identical request
    #: in this batch), ``permutation`` (row-permuted equivalent), or
    #: ``computed`` (cold).
    source: str
    latency_s: float

    @property
    def cache_hit(self) -> bool:
        return self.source in ("memory_hit", "disk_hit")


@dataclass
class BatchStats:
    """Aggregate accounting for one ``run()``."""

    requests: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    dedup_hits: int = 0
    permutation_hits: int = 0
    computed: int = 0
    #: Misses computed by ``blocks``, the one engine on a WavefrontPool.
    pool_jobs: int = 0
    wall_s: float = 0.0

    @property
    def cache_hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def dedup_ratio(self) -> float:
        """Fraction of requests served without a fresh O(n^3) compute."""
        if not self.requests:
            return 0.0
        return (self.requests - self.computed) / self.requests

    def snapshot(self) -> dict[str, float]:
        return {
            "requests": self.requests,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "dedup_hits": self.dedup_hits,
            "permutation_hits": self.permutation_hits,
            "computed": self.computed,
            "dedup_ratio": self.dedup_ratio,
            "pool_jobs": self.pool_jobs,
            "wall_s": self.wall_s,
        }


@dataclass
class BatchReport:
    """Results (in request order) plus the batch's accounting."""

    results: list[RequestResult]
    stats: BatchStats = field(default_factory=BatchStats)

    def alignments(self) -> list[Alignment3]:
        return [r.alignment for r in self.results]


class BatchScheduler:
    """Serve batches of alignment requests through a shared cache.

    Parameters
    ----------
    cache:
        Result cache shared across batches; None disables caching (the
        in-batch dedup stages still apply).
    workers:
        Worker count for ``blocks`` requests, the one engine that forks
        (a one-job pool per miss). Every other miss runs in this process.

    Holds no processes, so :meth:`close` and the context manager only
    scope its use::

        with BatchScheduler(cache=ResultCache()) as sched:
            report = sched.run(requests)
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        workers: int = 2,
        cells_per_s_hint: "float | Callable[[], float | None] | None" = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.cache = cache
        self.workers = int(workers)
        #: Observed plain-sweep throughput for admission-informed method
        #: selection: a number, or a zero-arg callable read per request
        #: (the serve tier binds the admission controller's live EWMA).
        self.cells_per_s_hint = cells_per_s_hint

    def _hint(self) -> float | None:
        hint = self.cells_per_s_hint
        if callable(hint):
            hint = hint()
        return float(hint) if hint else None

    def close(self) -> None:
        """Nothing to release; kept so callers can scope a scheduler."""

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request normalisation and single-request execution
    # ------------------------------------------------------------------

    @staticmethod
    def _normalise(req: "AlignmentRequest | Sequence[str]") -> AlignmentRequest:
        if not isinstance(req, AlignmentRequest):
            seqs = tuple(req)
            if len(seqs) != 3:
                raise ValueError(
                    f"a request needs exactly three sequences, got {len(seqs)}"
                )
            req = AlignmentRequest(seqs=seqs)  # type: ignore[arg-type]
        check_sequences(req.seqs, count=3)
        # No default scheme fits a mixed triple, and an explicit scheme
        # cannot score a residue outside its alphabet. Rejecting either
        # here, where every entry point normalises, keeps it out of a
        # batch whose other requests it would fail.
        if req.scheme is None:
            guess_common_alphabet(req.seqs)
        else:
            for seq in req.seqs:
                req.scheme.alphabet.encode(seq)
        if req.mode not in MODES:
            raise ValueError(f"unknown mode {req.mode!r}; available: {MODES}")
        if req.method not in AVAILABLE_METHODS:
            raise ValueError(
                f"unknown method {req.method!r}; available: {AVAILABLE_METHODS}"
            )
        if req.mode != "global" and req.method != "auto":
            raise ValueError(
                f"mode {req.mode!r} has a single engine; use method='auto'"
            )
        if req.constraints:
            if req.mode != "global":
                raise ValueError(
                    "constrained alignment supports mode='global' only"
                )
            from repro.anchor import normalize_constraints

            dims = tuple(len(s) for s in req.seqs)
            req = replace(
                req, constraints=normalize_constraints(req.constraints, dims)
            )
        elif req.constraints is not None:
            req = replace(req, constraints=None)
        return req

    def _resolve(
        self, req: AlignmentRequest, scheme: ScoringScheme
    ) -> tuple[str, str, dict | None]:
        """``(resolved engine, cache-key method component, selection)``.

        Mirrors ``align3``'s resolution order: the key must be derived
        from the method that will actually run, not the request string,
        so ``auto`` and its resolved engine share one entry. Non-global
        modes have a single engine each, so their raw ``auto`` keys are
        already canonical. ``selection`` is :func:`select_method`'s
        record when it ran (else None); this is the request's only
        engine selection — the compute stage runs the resolved engine
        and reports the selection as ``meta["auto"]``.

        Chain-mode requests (constraints, or ``method="anchored"``)
        resolve to the sentinel engine ``"chain"``: ``align3`` gets the
        request's own method and owns the per-sub-cube selection.
        Constrained results are engine-independent (every segment
        engine is exact), so they key as ``"exact"`` plus the constraint
        digest; anchored results key as their own class.
        """
        if req.mode != "global":
            return req.method, req.method, None
        if req.constraints:
            return "chain", "exact", None
        if req.method == "anchored":
            return "chain", "anchored", None
        method, selection = req.method, None
        if method == "auto":
            if scheme.is_affine:
                method = "affine"
            else:
                method, selection = select_method(
                    *req.seqs, scheme, cells_per_s=self._hint()
                )
        return method, method_key_class(method), selection

    def _compute(
        self,
        req: AlignmentRequest,
        scheme: ScoringScheme,
        resolved: tuple[str, str, dict | None],
    ) -> Alignment3:
        if req.mode == "local":
            from repro.core.local import align3_local

            aln = align3_local(*req.seqs, scheme)
        elif req.mode == "semiglobal":
            from repro.core.semiglobal import align3_semiglobal

            aln = align3_semiglobal(*req.seqs, scheme)
        else:
            engine, _key, selection = resolved
            aln = align3(
                *req.seqs,
                scheme,
                method=req.method if engine == "chain" else engine,
                workers=self.workers,
                constraints=req.constraints,
                cells_per_s_hint=self._hint(),
            )
            if selection is not None:
                aln.meta["auto"] = selection
        aln.meta.setdefault("mode", req.mode)
        aln.meta.setdefault("scheme", scheme.name)
        return aln

    # ------------------------------------------------------------------
    # The batch pipeline
    # ------------------------------------------------------------------

    def run(
        self,
        requests: Iterable["AlignmentRequest | Sequence[str]"],
        on_result: "Callable[[RequestResult], None] | None" = None,
    ) -> BatchReport:
        """Serve ``requests``; results come back in request order.

        ``on_result`` is invoked with each :class:`RequestResult` the
        moment its group is served (cache hits first, then each compute
        as it finishes) — completion order, not request order;
        ``RequestResult.index`` maps back.
        """
        t_batch = time.perf_counter()
        reqs = [self._normalise(r) for r in requests]
        schemes = [resolve_scheme(r.seqs, r.scheme) for r in reqs]
        resolved = [
            self._resolve(req, scheme)
            for req, scheme in zip(reqs, schemes)
        ]
        stats = BatchStats(requests=len(reqs))
        results: list[RequestResult | None] = [None] * len(reqs)

        with _trace.span("batch", requests=len(reqs)):
            self._run_stages(
                reqs, schemes, resolved, results, stats, emit=on_result
            )

        stats.wall_s = time.perf_counter() - t_batch
        final = [r for r in results if r is not None]
        assert len(final) == len(reqs), "every request must be served"
        for r in final:
            _obs.record_request(
                seconds=r.latency_s,
                cache_hit=r.cache_hit,
                deduped=r.source in ("dedup", "permutation"),
            )
        _obs.record_batch(
            requests=stats.requests,
            cache_hits=stats.cache_hits,
            deduped=stats.dedup_hits + stats.permutation_hits,
            computed=stats.computed,
            seconds=stats.wall_s,
        )
        return BatchReport(results=final, stats=stats)

    def run_stream(
        self,
        requests: Iterable["AlignmentRequest | Sequence[str]"],
        on_result: "Callable[[RequestResult], None]",
    ) -> BatchReport:
        """Like :meth:`run`, but built for arbitrarily long batches: each
        result goes to ``on_result`` as it completes and its alignment is
        then **released** (set to None), so peak memory holds one
        compute's alignments instead of the whole batch's. The returned
        report still carries full stats and per-request accounting
        (index, rid, key, source, latency) — just no alignment rows.
        """

        def emit_and_release(res: RequestResult) -> None:
            on_result(res)
            res.alignment = None  # type: ignore[assignment]

        return self.run(requests, on_result=emit_and_release)

    def _run_stages(
        self,
        reqs: list[AlignmentRequest],
        schemes: list[ScoringScheme],
        resolved: list[tuple[str, str, dict | None]],
        results: list[RequestResult | None],
        stats: BatchStats,
        emit: "Callable[[RequestResult], None] | None" = None,
    ) -> None:
        # Stage 1: group identical requests; probe the cache once each.
        # Keys carry the resolved method's equivalence class, so an
        # ``auto`` request and the ``wavefront`` it resolves to are one
        # group here instead of two computes.
        groups: dict[str, list[int]] = {}
        for i, (req, scheme) in enumerate(zip(reqs, schemes)):
            key = request_key(
                req.seqs, scheme, req.mode, resolved[i][1],
                constraints=req.constraints,
            )
            groups.setdefault(key, []).append(i)

        pending: list[tuple[str, list[int]]] = []
        for key, idxs in groups.items():
            t0 = time.perf_counter()
            hit = None
            source = "memory_hit"
            if self.cache is not None:
                pre_disk = self.cache.stats.disk_hits
                hit = self.cache.get(key)
                if self.cache.stats.disk_hits > pre_disk:
                    source = "disk_hit"
            dt = time.perf_counter() - t0
            if hit is not None:
                self._fill(
                    results, reqs, idxs, key, hit, source, dt, stats,
                    emit=emit,
                )
            else:
                pending.append((key, idxs))

        # Stage 2: permutation reuse — from the cache, then within the
        # batch (one compute per canonical triple).
        perm_groups: dict[str, list[tuple[str, list[int]]]] = {}
        to_compute: list[tuple[str, list[int]]] = []
        for key, idxs in pending:
            req, scheme = reqs[idxs[0]], schemes[idxs[0]]
            if resolved[idxs[0]][0] == "chain":
                # Constrained/anchored requests skip permutation reuse:
                # anchor coordinates are order-sensitive, and discovery's
                # chain tie-breaks under a permuted sort order may pick a
                # different co-optimal chain — score equality would not
                # be guaranteed.
                to_compute.append((key, idxs))
                continue
            pkey = PERM_PREFIX + permutation_key(
                req.seqs, scheme, req.mode, resolved[idxs[0]][1]
            )
            t0 = time.perf_counter()
            canon = (
                self.cache.get(pkey, record=False)
                if self.cache is not None
                else None
            )
            dt = time.perf_counter() - t0
            if canon is not None:
                derived = derive_for_order(canon, req.seqs)
                self._fill(
                    results, reqs, idxs, key, derived, "permutation", dt,
                    stats, emit=emit,
                )
                continue
            bucket = perm_groups.setdefault(pkey, [])
            if bucket:
                bucket.append((key, idxs))  # follower: derived after compute
            else:
                bucket.append((key, idxs))
                to_compute.append((key, idxs))

        # Stage 3: compute the true misses in request order.
        for key, idxs in to_compute:
            req, scheme = reqs[idxs[0]], schemes[idxs[0]]
            t0 = time.perf_counter()
            aln = self._compute(req, scheme, resolved[idxs[0]])
            dt = time.perf_counter() - t0
            if aln.meta.get("engine") == "blocks":
                stats.pool_jobs += 1
            self._finish_compute(
                results, reqs, schemes, resolved, perm_groups, key, idxs,
                aln, dt, stats, emit=emit,
            )

    # ------------------------------------------------------------------
    # Result fan-out
    # ------------------------------------------------------------------

    def _finish_compute(
        self,
        results: list[RequestResult | None],
        reqs: list[AlignmentRequest],
        schemes: list[ScoringScheme],
        resolved: list[tuple[str, str, dict | None]],
        perm_groups: dict[str, list[tuple[str, list[int]]]],
        key: str,
        idxs: list[int],
        aln: Alignment3,
        dt: float,
        stats: BatchStats,
        emit: "Callable[[RequestResult], None] | None" = None,
    ) -> None:
        req, scheme = reqs[idxs[0]], schemes[idxs[0]]
        stats.computed += 1
        if resolved[idxs[0]][0] == "chain":
            # No permutation key for chain-mode results (see stage 2).
            if self.cache is not None:
                self.cache.put(key, aln)
            self._fill(
                results, reqs, idxs, key, aln, "computed", dt, stats,
                emit=emit,
            )
            return
        canonical, perm = canonical_order(req.seqs)
        pkey = PERM_PREFIX + permutation_key(
            req.seqs, scheme, req.mode, resolved[idxs[0]][1]
        )
        if self.cache is not None:
            self.cache.put(key, aln)
            self.cache.put(pkey, permute_rows(aln, perm))
        self._fill(
            results, reqs, idxs, key, aln, "computed", dt, stats, emit=emit
        )
        # Permutation-equivalent followers discovered in stage 2.
        for fkey, fidxs in perm_groups.get(pkey, []):
            if fkey == key:
                continue
            freq = reqs[fidxs[0]]
            derived = derive_for_order(permute_rows(aln, perm), freq.seqs)
            self._fill(
                results, reqs, fidxs, fkey, derived, "permutation", dt,
                stats, emit=emit,
            )

    def _fill(
        self,
        results: list[RequestResult | None],
        reqs: list[AlignmentRequest],
        idxs: list[int],
        key: str,
        aln: Alignment3,
        source: str,
        dt: float,
        stats: BatchStats,
        emit: "Callable[[RequestResult], None] | None" = None,
    ) -> None:
        for rank, i in enumerate(idxs):
            # Each requester gets its own object; a shared one would let
            # one caller's meta edits leak into another's result.
            own = Alignment3(
                rows=aln.rows, score=aln.score, meta=dict(aln.meta)
            )
            src = source if rank == 0 else "dedup"
            own.meta["batch"] = {"source": src, "key": key}
            if rank == 0:
                if source == "memory_hit":
                    stats.memory_hits += 1
                elif source == "disk_hit":
                    stats.disk_hits += 1
                elif source == "permutation":
                    stats.permutation_hits += 1
            else:
                stats.dedup_hits += 1
            res = RequestResult(
                index=i,
                rid=reqs[i].rid,
                alignment=own,
                key=key,
                source=src,
                latency_s=dt,
            )
            results[i] = res
            if emit is not None:
                emit(res)


def run_batch(
    requests: Iterable["AlignmentRequest | Sequence[str]"],
    cache: ResultCache | None = None,
    workers: int = 2,
) -> BatchReport:
    """One-shot convenience: run one batch on a fresh scheduler."""
    return BatchScheduler(cache=cache, workers=workers).run(requests)
