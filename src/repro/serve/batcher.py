"""Micro-batching: many concurrent clients, one scheduler.

The whole point of fronting :class:`~repro.batch.BatchScheduler` with a
service is that its amortisations — the result cache, exact dedup,
permutation reuse — apply *across clients*, not just within one CLI
invocation. The micro-batcher is the funnel that makes that true: every
admitted request joins an asyncio queue, and a collector runs the queue
through one long-lived scheduler on a dedicated single worker thread.

Batching is continuous, with no timer: when the collector takes a job it
also takes every job already queued, up to ``max_requests`` triples, and
flushes at once. A lone job therefore reaches the scheduler without
waiting, and jobs that arrive while a batch computes flush together as
soon as it ends — the compute thread never idles while work is queued.

One thread, deliberately: batches compute in-process, one at a time,
and the event loop stays free to accept, shed and answer health checks
while a batch computes. Results come back through per-job futures; a
batch-level failure (e.g. a
:class:`~repro.resilience.errors.WorkerFailure` from a ``blocks``
request's pool past what recovery can absorb) fails only the jobs in
that batch — the server itself never dies with a worker.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import time
from dataclasses import dataclass, replace
from typing import Any

from repro.batch.scheduler import (
    AlignmentRequest,
    BatchReport,
    BatchScheduler,
    RequestResult,
)
from repro.obs import hooks as _obs
from repro.serve.admission import AdmissionController, estimate_cells


class DeadlineExceeded(Exception):
    """A job's deadline passed before its batch ran (-> 504)."""


@dataclass
class Job:
    """One admitted HTTP request: 1..k triples plus its completion future."""

    requests: list[AlignmentRequest]
    cost_cells: int
    future: "asyncio.Future[list[RequestResult]]"
    #: Absolute ``loop.time()`` deadline; jobs still queued past it fail
    #: with :class:`DeadlineExceeded` instead of wasting a compute.
    deadline_at: float
    #: Set by the handler when the client stopped waiting (sync requests
    #: that already got their 504); the batcher then skips the work.
    cancelled: bool = False


#: Queue sentinel: drain requested, flush what remains and stop.
_SHUTDOWN = object()


def _consume_exception(fut: "asyncio.Future") -> None:
    if not fut.cancelled():
        fut.exception()  # flag it retrieved; awaiters still receive it


class MicroBatcher:
    """Feed admitted jobs to the scheduler in continuous batches.

    Each batch holds what queued while the previous one computed, up to
    ``max_requests`` triples.
    """

    def __init__(
        self,
        scheduler: BatchScheduler,
        admission: AdmissionController,
        *,
        max_requests: int = 32,
    ):
        if max_requests < 1:
            raise ValueError(f"max_requests must be >= 1, got {max_requests}")
        self.scheduler = scheduler
        self.admission = admission
        self.max_requests = int(max_requests)
        self._queue: "asyncio.Queue[Any]" = asyncio.Queue()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-batch"
        )
        self._draining = False
        self.batches_run = 0
        self.requests_served = 0

    # ------------------------------------------------------------------
    # Producer side (called from request handlers, on the event loop)
    # ------------------------------------------------------------------

    def submit(
        self,
        requests: list[AlignmentRequest],
        cost_cells: int,
        deadline_s: float,
    ) -> Job:
        """Enqueue one admitted job (admission already accounted it)."""
        loop = asyncio.get_running_loop()
        job = Job(
            requests=requests,
            cost_cells=cost_cells,
            future=loop.create_future(),
            deadline_at=loop.time() + deadline_s,
        )
        # Mark failures as retrieved even when the waiter gave up (its
        # deadline fired first) so abandoned futures don't log warnings.
        job.future.add_done_callback(_consume_exception)
        self._queue.put_nowait(job)
        return job

    def drain(self) -> None:
        """Stop collecting after the already-queued jobs are served."""
        if not self._draining:
            self._draining = True
            self._queue.put_nowait(_SHUTDOWN)

    # ------------------------------------------------------------------
    # Collector task
    # ------------------------------------------------------------------

    async def run(self) -> None:
        """Collect-and-flush until drained. Runs as one asyncio task."""
        loop = asyncio.get_running_loop()
        try:
            while True:
                first = await self._queue.get()
                if first is _SHUTDOWN:
                    break
                batch, stop = self._take_queued(first)
                await self._flush(loop, batch)
                if stop:
                    break
        finally:
            self._executor.shutdown(wait=True)

    def _take_queued(self, first: Job) -> tuple[list[Job], bool]:
        """``first`` plus every job already queued, without waiting,
        until the batch holds ``max_requests`` triples."""
        batch = [first]
        total = len(first.requests)
        reason = "idle"
        stop = False
        while total < self.max_requests:
            try:
                job = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if job is _SHUTDOWN:
                reason, stop = "drain", True
                break
            batch.append(job)
            total += len(job.requests)
        else:
            reason = "size"
        _obs.record_serve_flush(reason=reason, jobs=len(batch), requests=total)
        return batch, stop

    async def _flush(
        self, loop: asyncio.AbstractEventLoop, batch: list[Job]
    ) -> None:
        """Run one collected batch through the scheduler and fan results
        back out to the job futures."""
        now = loop.time()
        live: list[Job] = []
        for job in batch:
            self.admission.on_flush(len(job.requests))
            if job.cancelled or job.future.done():
                self.admission.on_complete(job.cost_cells)
            elif now > job.deadline_at:
                job.future.set_exception(DeadlineExceeded(
                    f"queued past its deadline ({len(job.requests)} request(s))"
                ))
                self.admission.on_complete(job.cost_cells)
            else:
                live.append(job)
        if not live:
            return

        flat: list[AlignmentRequest] = []
        for job in live:
            flat.extend(job.requests)
        t0 = time.perf_counter()
        try:
            report: BatchReport = await loop.run_in_executor(
                self._executor, self.scheduler.run, flat
            )
        except Exception as exc:
            # Fail this batch's jobs, not the server.
            for job in live:
                if not job.future.done():
                    job.future.set_exception(exc)
                self.admission.on_complete(job.cost_cells)
            _obs.record_serve_batch_failure(type(exc).__name__)
            return

        self.batches_run += 1
        self.requests_served += len(flat)
        # Cost-model feedback: computed jobs consumed roughly their
        # admission estimate; everything else was (nearly) free.
        computed_cells = 0
        offset = 0
        for job in live:
            slice_ = report.results[offset : offset + len(job.requests)]
            # Rebase indices to the job's own request list: the
            # scheduler numbers results across the whole coalesced
            # batch, but each client sees only its own job, and the
            # response contract says "index" matches *their* order.
            slice_ = [
                replace(r, index=r.index - offset) for r in slice_
            ]
            offset += len(job.requests)
            computed_cells += sum(
                estimate_cells(req.seqs, req.constraints)
                if r.source == "computed"
                else 0
                for r, req in zip(slice_, job.requests)
            )
            if not job.future.done():
                job.future.set_result(slice_)
            self.admission.on_complete(job.cost_cells)
        self.admission.observe_throughput(
            computed_cells, time.perf_counter() - t0
        )
