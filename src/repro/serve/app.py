"""The alignment service: asyncio front-end over the batching layer.

``repro serve`` turns the existing stack — :mod:`repro.obs` metrics,
:mod:`repro.resilience` supervision, the :mod:`repro.cache` result store
and the :mod:`repro.batch` scheduler — into a long-running HTTP/1.1 JSON
service. One process, one event loop, one compute thread; only a
``blocks`` request forks workers:

* **POST /v1/align** — a single triple or a list; admitted requests join
  the micro-batch queue and block until served (or add ``"async": true``
  for a 202 + job id). Results are bit-identical to :func:`repro.core.api.align3`.
* **GET /v1/jobs/<id>** — poll an async job.
* **GET /healthz** — liveness + drain state (503 while draining, so load
  balancers stop routing here first).
* **GET /metrics** — JSON snapshot of the :mod:`repro.obs` registry plus
  cache and admission state.

Backpressure is explicit: a full queue or cell budget sheds with **429**
and a ``Retry-After`` derived from the measured compute throughput; a
request whose deadline lapses gets **504**; a ``blocks`` worker failure
that recovery could not absorb degrades to a typed **503** for that
batch only. ``SIGTERM``/``SIGINT`` trigger a graceful drain — stop
accepting, flush the queue, finish in-flight responses — and the
process exits 0. See ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import itertools
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro import __version__
from repro.batch.io import request_from_json
from repro.batch.scheduler import (
    AlignmentRequest,
    BatchScheduler,
    RequestResult,
)
from repro.cache import ResultCache
from repro.obs import hooks as _obs
from repro.obs import metrics as _metrics
from repro.resilience.errors import WorkerFailure
from repro.serve import protocol
from repro.serve.admission import AdmissionController, estimate_cells
from repro.serve.batcher import DeadlineExceeded, MicroBatcher
from repro.serve.config import ServeConfig
from repro.serve.httpd import JsonHttpServer, run_blocking

if TYPE_CHECKING:
    from repro.router.app import RouterConfig


def parse_items(obj: Any) -> list:
    """The raw items of one ``POST /v1/align`` body, in order.

    A body is a single request object (a one-item list) or
    ``{"requests": [...]}``. The one body framer, shared with the
    router, which scatters the items. Framing errors raise
    :class:`protocol.BadRequest`.
    """
    if not isinstance(obj, dict):
        raise protocol.BadRequest(
            f"body must be a JSON object, got {type(obj).__name__}"
        )
    if "requests" in obj:
        items = obj["requests"]
        if not isinstance(items, list) or not items:
            raise protocol.BadRequest("'requests' must be a non-empty list")
        return items
    return [obj]


def parse_align_payload(
    obj: Any, config: "ServeConfig | RouterConfig"
) -> tuple[list[AlignmentRequest], bool, float]:
    """Validate one POST /v1/align body.

    Returns ``(requests, want_async, deadline_s)``; raises
    :class:`protocol.BadRequest` on any schema violation. The body is
    framed by :func:`parse_items` and its items read by
    :func:`parse_align_items`; ``config`` supplies the default
    ``deadline_s`` (the router passes its own config).
    """
    items = parse_items(obj)
    want_async = bool(obj.get("async", False))
    deadline_s = obj.get("deadline_s", config.default_deadline_s)
    if not isinstance(deadline_s, (int, float)) or isinstance(deadline_s, bool):
        raise protocol.BadRequest("'deadline_s' must be a number")
    deadline_s = float(deadline_s)
    if not (0 < deadline_s <= 3600):
        raise protocol.BadRequest(
            f"'deadline_s' must be in (0, 3600], got {deadline_s:g}"
        )

    return parse_align_items(items), want_async, deadline_s


def parse_align_items(items: list) -> list[AlignmentRequest]:
    """Read the items of an align body as normalised requests.

    Each item goes through the one request reader,
    :func:`repro.batch.io.request_from_json`, which ``repro batch`` uses
    too. Shared with the router (:mod:`repro.router`), which must derive
    the *same* normalised request — and therefore the same cache key —
    as the replica that will serve it.
    """
    requests: list[AlignmentRequest] = []
    for i, item in enumerate(items):
        try:
            requests.append(request_from_json(item))
        except ValueError as exc:
            raise protocol.BadRequest(f"request {i}: {exc}") from None
    return requests


def result_payload(res: RequestResult) -> dict:
    """Serialise one served request for the JSON response."""
    aln = res.alignment
    return {
        "id": res.rid,
        "index": res.index,
        "score": aln.score,
        "rows": list(aln.rows),
        "source": res.source,
        "cache_hit": res.cache_hit,
        "engine": aln.meta.get("engine"),
    }


@dataclass
class JobRecord:
    """State of one async job in the bounded table."""

    status: str = "queued"  # queued -> done | failed
    created_at: float = 0.0
    n_requests: int = 0
    results: list[dict] | None = None
    error: dict | None = None

    def payload(self, jid: str) -> dict:
        out: dict[str, Any] = {
            "job": jid,
            "status": self.status,
            "requests": self.n_requests,
        }
        if self.results is not None:
            out["results"] = self.results
        if self.error is not None:
            out["error"] = self.error
        return out


class JobTable:
    """Bounded async-job registry: only *finished* jobs are evicted
    (oldest first). A still-running job's record is never dropped — an
    evicted in-flight id would orphan the job for its poller — so when
    every record is in flight the table grows past ``capacity`` (with a
    one-line warning) until jobs finish and eviction can catch up."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._jobs: "OrderedDict[str, JobRecord]" = OrderedDict()
        self._counter = itertools.count(1)
        self._overflow_warned = False

    def register(self, n_requests: int) -> tuple[str, JobRecord]:
        jid = f"job-{next(self._counter)}"
        rec = JobRecord(
            status="queued", created_at=time.time(), n_requests=n_requests
        )
        self._jobs[jid] = rec
        self._evict()
        return jid, rec

    def get(self, jid: str) -> JobRecord | None:
        return self._jobs.get(jid)

    def _evict(self) -> None:
        while len(self._jobs) > self.capacity:
            victim = None
            for jid, rec in self._jobs.items():
                if rec.status != "queued":
                    victim = jid
                    break
            if victim is None:
                # Every record is in flight: growing past capacity is
                # the lesser evil (admission control bounds how fast
                # this can happen). Warn once per overflow episode.
                if not self._overflow_warned:
                    print(
                        f"# warning: job table over capacity "
                        f"({len(self._jobs)} > {self.capacity}) with all "
                        f"jobs in flight; growing until some finish",
                        file=sys.stderr,
                        flush=True,
                    )
                    self._overflow_warned = True
                return
            del self._jobs[victim]
        self._overflow_warned = False

    def __len__(self) -> int:
        return len(self._jobs)


class AlignServer(JsonHttpServer):
    """One serving instance: socket, admission, batcher, job table."""

    banner = "serving on"

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        cache: ResultCache | None = None,
        scheduler: BatchScheduler | None = None,
    ):
        self.config = (config or ServeConfig()).validate()
        super().__init__(
            host=self.config.host,
            port=self.config.port,
            max_body_bytes=self.config.max_body_bytes,
            keepalive_timeout_s=self.config.keepalive_timeout_s,
            drain_timeout_s=self.config.drain_timeout_s,
            drain_grace_s=self.config.drain_grace_s,
        )
        if cache is not None:
            self.cache = cache
        else:
            remote = None
            if self.config.cache_url:
                from repro.cache.remote import RemoteCacheClient

                remote = RemoteCacheClient.from_url(self.config.cache_url)
            self.cache = ResultCache(
                max_entries=self.config.cache_entries,
                cache_dir=self.config.cache_dir,
                remote=remote,
            )
        self.scheduler = scheduler or BatchScheduler(
            cache=self.cache,
            workers=self.config.workers,
        )
        self.admission = AdmissionController(
            max_queued_requests=self.config.queue_depth,
            max_inflight_cells=self.config.max_inflight_cells,
        )
        self.batcher = MicroBatcher(
            self.scheduler,
            self.admission,
            max_requests=self.config.batch_max_requests,
        )
        self.jobs = JobTable(self.config.job_capacity)
        self._batch_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle hooks (JsonHttpServer owns the socket/drain machinery)
    # ------------------------------------------------------------------

    async def _on_start(self) -> None:
        # /metrics must always have a registry to snapshot; respect a
        # registry the caller (e.g. --metrics) already enabled.
        if not _metrics.enabled:
            _metrics.enable()
        self._batch_task = asyncio.create_task(
            self.batcher.run(), name="repro-serve-batcher"
        )

    async def _on_listener_closed(self) -> None:
        self.batcher.drain()
        if self._batch_task is not None:
            await self._batch_task

    def _map_exception(self, exc: Exception) -> tuple[int, Any] | None:
        if isinstance(exc, DeadlineExceeded):
            return 504, protocol.error_payload(
                "deadline_exceeded", str(exc)
            )
        if isinstance(exc, WorkerFailure):
            return 503, protocol.error_payload(
                "worker_failure", exc.describe()
            )
        return None

    def _record_request(
        self, *, route: str, status: int, seconds: float
    ) -> None:
        _obs.record_serve_request(route=route, status=status, seconds=seconds)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    async def _dispatch(
        self, request: protocol.HttpRequest
    ) -> tuple[int, Any, list[tuple[str, str]]]:
        path = request.path
        if path == "/healthz":
            if request.method != "GET":
                return self._method_not_allowed("GET")
            return self._healthz()
        if path == "/metrics":
            if request.method != "GET":
                return self._method_not_allowed("GET")
            return 200, self._metrics_payload(), []
        if path == "/v1/align":
            if request.method != "POST":
                return self._method_not_allowed("POST")
            return await self._align(request)
        if path.startswith("/v1/jobs/"):
            if request.method != "GET":
                return self._method_not_allowed("GET")
            return self._job_status(path[len("/v1/jobs/"):])
        return 404, protocol.error_payload(
            "not_found", f"no route for {request.method} {path}"
        ), []

    def _healthz(self) -> tuple[int, Any, list[tuple[str, str]]]:
        status = 503 if self.draining else 200
        return status, {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "instance": self.config.instance,
            "uptime_s": self.uptime_s(),
            "queue_depth": self.admission.queued_requests,
            "inflight_cells": self.admission.inflight_cells,
            "workers": self.config.workers,
        }, []

    def _metrics_payload(self) -> dict:
        return {
            "metrics": _metrics.registry().snapshot(),
            "cache": (
                self.cache.stats.snapshot() if self.cache is not None else None
            ),
            "admission": self.admission.snapshot(),
            "serve": {
                "instance": self.config.instance,
                "uptime_s": self.uptime_s(),
                "draining": self.draining,
                "batches_run": self.batcher.batches_run,
                "requests_served": self.batcher.requests_served,
                "jobs_tracked": len(self.jobs),
            },
        }

    def _job_status(
        self, jid: str
    ) -> tuple[int, Any, list[tuple[str, str]]]:
        rec = self.jobs.get(jid)
        if rec is None:
            return 404, protocol.error_payload(
                "not_found", f"unknown job {jid!r} (finished jobs are "
                "evicted once the table fills)"
            ), []
        return 200, rec.payload(jid), []

    async def _align(
        self, request: protocol.HttpRequest
    ) -> tuple[int, Any, list[tuple[str, str]]]:
        if self.draining:
            return 503, protocol.error_payload(
                "draining", "server is draining; retry against another "
                "instance"
            ), [("Retry-After", "1")]
        requests, want_async, deadline_s = parse_align_payload(
            request.json(), self.config
        )
        cost = sum(estimate_cells(r.seqs, r.constraints) for r in requests)
        if cost > self.config.max_request_cells:
            return 413, protocol.error_payload(
                "request_too_large",
                f"estimated {cost} DP cells exceeds the per-request cap "
                f"of {self.config.max_request_cells}",
                estimated_cells=cost,
            ), []
        decision = self.admission.try_admit(len(requests), cost)
        if not decision.admitted:
            return 429, protocol.error_payload(
                "overloaded",
                f"admission shed this request ({decision.reason})",
                reason=decision.reason,
                retry_after_s=decision.retry_after_s,
            ), [("Retry-After", str(decision.retry_after_s))]

        job = self.batcher.submit(requests, cost, deadline_s)
        if want_async:
            jid, rec = self.jobs.register(len(requests))
            job.future.add_done_callback(
                lambda fut: self._finish_job(rec, fut)
            )
            return 202, {
                "job": jid,
                "status": "queued",
                "poll": f"/v1/jobs/{jid}",
                "requests": len(requests),
            }, []

        try:
            results = await asyncio.wait_for(
                asyncio.shield(job.future), timeout=deadline_s
            )
        except asyncio.TimeoutError:
            # The batch may still compute this job; the client stopped
            # waiting, so tell the batcher not to bother if it can skip.
            job.cancelled = True
            raise DeadlineExceeded(
                f"no result within deadline_s={deadline_s:g}"
            ) from None
        return 200, {
            "results": [result_payload(r) for r in results],
            "count": len(results),
        }, []

    @staticmethod
    def _finish_job(rec: JobRecord, fut: "asyncio.Future") -> None:
        if fut.cancelled():
            rec.status = "failed"
            rec.error = {"type": "cancelled", "message": "job cancelled"}
            return
        exc = fut.exception()
        if exc is None:
            rec.status = "done"
            rec.results = [result_payload(r) for r in fut.result()]
        else:
            rec.status = "failed"
            if isinstance(exc, DeadlineExceeded):
                kind = "deadline_exceeded"
            elif isinstance(exc, WorkerFailure):
                kind = "worker_failure"
            else:
                kind = "internal"
            rec.error = {"type": kind, "message": str(exc)}


def run_server(config: ServeConfig | None = None) -> int:
    """Blocking entry point for ``repro serve``; returns the exit code."""
    return run_blocking(lambda: AlignServer(config or ServeConfig()))
