"""Fault tolerance for the parallel engines.

Three cooperating pieces (see ``docs/robustness.md``):

:mod:`repro.resilience.faults`
    Deterministic, seed-driven fault injection (worker crash, straggler
    delay, corrupted ghost payload, simulated OOM), armed via the
    ``REPRO_FAULTS`` environment variable or the ``--inject-fault`` CLI
    flag so chaos runs are reproducible.
:mod:`repro.resilience.retry`
    Bounded retry-with-backoff queue receives and payload checksums for
    the message-passing runtime (:mod:`repro.cluster.mpirun`).
:mod:`repro.resilience.degrade`
    Up-front memory estimates and the degradation ladder
    (full-traceback -> divide-and-conquer -> banded) that replaces a raw
    ``MemoryError`` with a structured fallback.

The parallel executor's own recovery — the supervision policy, and
respawning a dead worker at its published progress counter, whether it
died mid-sweep or idle between jobs — lives with the counter protocol
in :mod:`repro.parallel.blockwave`. Every recovery path preserves
bit-identical output with the serial engine: the wavefront only needs
planes ``d-1..d-3``, which survive a worker death in the shared
buffers, so replaying plane ``d`` is idempotent.
"""

from __future__ import annotations

from repro.resilience.errors import (
    EXIT_BAD_FAULT_SPEC,
    EXIT_DEGRADED,
    EXIT_WORKER_FAILURE,
    DegradationWarning,
    DegradedRun,
    FailureRecord,
    FaultSpecError,
    ProtocolError,
    WorkerFailure,
)
from repro.resilience.retry import BackoffPolicy, comm_deadline

__all__ = [
    "BackoffPolicy",
    "comm_deadline",
    "DegradationWarning",
    "DegradedRun",
    "FailureRecord",
    "FaultSpecError",
    "ProtocolError",
    "WorkerFailure",
    "EXIT_WORKER_FAILURE",
    "EXIT_DEGRADED",
    "EXIT_BAD_FAULT_SPEC",
]
