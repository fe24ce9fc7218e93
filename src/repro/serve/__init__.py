"""``repro.serve`` — the alignment service.

A stdlib-only asyncio HTTP/1.1 JSON front-end (``repro serve``) that
funnels concurrent clients through admission control and a micro-batcher
into one long-lived :class:`~repro.batch.BatchScheduler`, so its cache
and dedup amortise across the whole request stream. See
``docs/serving.md`` for the endpoint and backpressure contract.
"""

from repro.serve.admission import AdmissionController, Decision, estimate_cells
from repro.serve.app import AlignServer, run_server
from repro.serve.batcher import DeadlineExceeded, MicroBatcher
from repro.serve.client import ServeClient, ServeResponse, wait_ready
from repro.serve.config import DEFAULT_PORT, ServeConfig

__all__ = [
    "AdmissionController",
    "AlignServer",
    "DEFAULT_PORT",
    "Decision",
    "DeadlineExceeded",
    "MicroBatcher",
    "ServeClient",
    "ServeConfig",
    "ServeResponse",
    "estimate_cells",
    "run_server",
    "wait_ready",
]
