"""Admission control: decide at the door, not at the barrier.

A wedged alignment service helps nobody — an overloaded one must say so
*immediately* and cheaply. Admission is therefore a pair of O(1) checks
against two resources:

* **queue depth** — triples admitted but not yet flushed into a batch.
  Bounds queueing delay directly.
* **estimated cell cost** — every triple costs roughly
  ``(n1+1)(n2+1)(n3+1)`` DP cells to compute cold
  (:func:`estimate_cells`); the controller bounds the cells admitted but
  not yet completed. This is the knob that actually tracks *work*, since
  a single 300-mer triple outweighs a thousand 20-mers.

A shed request gets a ``Retry-After`` estimated from the in-flight cell
backlog over an EWMA of observed compute throughput, so well-behaved
clients back off proportionally to the actual overload instead of
hammering a fixed interval. The estimate is deliberately conservative:
dedup and cache hits only make the backlog drain faster than predicted.
``Retry-After`` is the EWMA's only use: engine selection never reads
it, so a replica picks the engine ``align3`` picks whatever its traffic
history.

All state is mutated from the event loop only — no locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.obs import hooks as _obs

#: Optimistic prior for compute throughput (cells/s) before the first
#: batch completes; the vectorised wavefront sustains well above this.
DEFAULT_CELLS_PER_S = 2_000_000.0

#: EWMA weight of a new throughput observation.
EWMA_ALPHA = 0.3

#: Retry-After clamp (seconds).
MIN_RETRY_AFTER = 1.0
MAX_RETRY_AFTER = 60.0


def estimate_cells(seqs: Sequence[str], constraints=None) -> int:
    """Estimated DP cost of one triple: the full lattice size.

    Deliberately ignores pruning, caching and dedup — admission wants the
    worst-case cost of a *cold* compute. A constrained request (a
    normalised anchor chain, see :mod:`repro.anchor`) never walks the
    full cube, so its cost is the chain's sub-cube sum — this is what
    makes long constrained triples admissible at all under
    ``max_request_cells``.
    """
    n1, n2, n3 = (len(s) for s in seqs)
    if constraints:
        from repro.anchor import as_anchors, chain_cells, validate_chain

        try:
            anchors = validate_chain(as_anchors(constraints), (n1, n2, n3))
            return chain_cells(anchors, (n1, n2, n3))
        except (TypeError, ValueError):
            pass  # malformed chain: fall through to the worst case
    return (n1 + 1) * (n2 + 1) * (n3 + 1)


@dataclass(frozen=True)
class Decision:
    """Outcome of one admission check."""

    admitted: bool
    #: ``"queue_full"`` or ``"cells_full"`` when shed, else "".
    reason: str = ""
    #: Suggested client backoff (whole seconds, >= 1) when shed.
    retry_after_s: int = 0


class AdmissionController:
    """Bounded-queue + cost-model gatekeeper for the serving layer.

    Lifecycle per request: :meth:`try_admit` (counts it as queued and
    in-flight), :meth:`on_flush` when the micro-batcher moves it into a
    compute batch (leaves the queue, still in flight), :meth:`on_complete`
    when its result — or failure — is final (releases its cells).
    """

    def __init__(
        self,
        max_queued_requests: int,
        max_inflight_cells: int,
    ):
        if max_queued_requests < 1:
            raise ValueError(
                f"max_queued_requests must be >= 1, got {max_queued_requests}"
            )
        if max_inflight_cells < 1:
            raise ValueError(
                f"max_inflight_cells must be >= 1, got {max_inflight_cells}"
            )
        self.max_queued_requests = int(max_queued_requests)
        self.max_inflight_cells = int(max_inflight_cells)
        self.queued_requests = 0
        self.inflight_cells = 0
        self.shed_total = 0
        self.admitted_total = 0
        self.cells_per_s = DEFAULT_CELLS_PER_S

    # ------------------------------------------------------------------

    def try_admit(self, n_requests: int, cost_cells: int) -> Decision:
        """Admit ``n_requests`` triples costing ``cost_cells``, or shed."""
        if self.queued_requests + n_requests > self.max_queued_requests:
            return self._shed("queue_full")
        if self.inflight_cells + cost_cells > self.max_inflight_cells:
            return self._shed("cells_full")
        self.queued_requests += n_requests
        self.inflight_cells += cost_cells
        self.admitted_total += n_requests
        self._publish()
        return Decision(admitted=True)

    def _shed(self, reason: str) -> Decision:
        self.shed_total += 1
        _obs.record_serve_shed(reason)
        return Decision(
            admitted=False, reason=reason, retry_after_s=self.retry_after()
        )

    def retry_after(self) -> int:
        """Whole-second backoff hint from the in-flight backlog."""
        est = self.inflight_cells / max(self.cells_per_s, 1.0)
        est = min(max(est, MIN_RETRY_AFTER), MAX_RETRY_AFTER)
        return int(-(-est // 1))  # ceil without math import

    # ------------------------------------------------------------------

    def on_flush(self, n_requests: int) -> None:
        """``n_requests`` triples left the queue for a compute batch."""
        self.queued_requests = max(0, self.queued_requests - n_requests)
        self._publish()

    def on_complete(self, cost_cells: int) -> None:
        """A request's work is finished (served, failed, or skipped)."""
        self.inflight_cells = max(0, self.inflight_cells - cost_cells)
        self._publish()

    def observe_throughput(self, cells: int, seconds: float) -> None:
        """Fold one completed batch into the cells/s EWMA."""
        if cells <= 0 or seconds <= 0:
            return
        rate = cells / seconds
        self.cells_per_s = (
            (1 - EWMA_ALPHA) * self.cells_per_s + EWMA_ALPHA * rate
        )

    def _publish(self) -> None:
        _obs.record_serve_queue(
            depth=self.queued_requests, inflight_cells=self.inflight_cells
        )

    def snapshot(self) -> dict[str, float]:
        return {
            "queued_requests": self.queued_requests,
            "inflight_cells": self.inflight_cells,
            "max_queued_requests": self.max_queued_requests,
            "max_inflight_cells": self.max_inflight_cells,
            "shed_total": self.shed_total,
            "admitted_total": self.admitted_total,
            "cells_per_s_estimate": self.cells_per_s,
        }
