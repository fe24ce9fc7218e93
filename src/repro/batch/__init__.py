"""Request batching through a shared result cache (``repro.batch``).

The throughput layer: :class:`BatchScheduler` serves many alignment
requests at once — deduplicating identical and permutation-equivalent
requests through :mod:`repro.cache` and computing each remaining miss
in-process with :func:`~repro.core.api.align3`. ``repro batch`` is the
CLI front end; see ``docs/batching.md`` and ``tools/check_batch.py``
(the throughput gate).
"""

from repro.batch.scheduler import (
    PERM_PREFIX,
    AlignmentRequest,
    BatchReport,
    BatchScheduler,
    BatchStats,
    RequestResult,
    run_batch,
)
from repro.batch.io import (
    read_requests,
    requests_from_fasta,
    requests_from_jsonl,
)

__all__ = [
    "PERM_PREFIX",
    "AlignmentRequest",
    "BatchReport",
    "BatchScheduler",
    "BatchStats",
    "RequestResult",
    "read_requests",
    "requests_from_fasta",
    "requests_from_jsonl",
    "run_batch",
]
