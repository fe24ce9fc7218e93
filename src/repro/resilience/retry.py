"""Bounded, observable waits for the message-passing runtime.

:func:`queue_get_with_retry` replaces the bare ``queue.get(timeout=60)``
that used to turn every protocol hiccup into an opaque ``queue.Empty``
after a blind minute: it polls in short, exponentially growing slices,
invokes a liveness probe between slices (so a dead peer raises a typed
:class:`WorkerFailure` immediately instead of after the full deadline),
and converts deadline exhaustion into :class:`WorkerFailure` carrying a
description of what was being waited for.

:func:`payload_checksum` / :func:`verify_payload` give every ghost
message a CRC32 trailer so corruption in transit is detected at the
receiver (and retransmitted by the sender) rather than silently folded
into the DP.
"""

from __future__ import annotations

import queue as _queue
import time
import zlib
from typing import Any, Callable

import numpy as np

from repro.resilience.errors import WorkerFailure
from repro.util.validation import env_seconds

#: Environment knob for the total receive deadline (seconds).
ENV_DEADLINE = "REPRO_COMM_TIMEOUT"

DEFAULT_DEADLINE = 60.0


def comm_deadline(environ=None) -> float:
    """The receive deadline: ``REPRO_COMM_TIMEOUT`` when set to a finite
    number (floored at 0.1s), else :data:`DEFAULT_DEADLINE`.

    A malformed or non-finite value falls back with a warning rather
    than raising or waiting forever — this is read deep inside worker
    receive loops, where a typo'd environment would otherwise surface
    as a crash (or a hang) mid-alignment instead of at startup.
    """
    return env_seconds(ENV_DEADLINE, DEFAULT_DEADLINE, 0.1, environ)


class BackoffPolicy:
    """Deterministic bounded exponential backoff schedule.

    One policy value describes a whole retry budget — ``attempts`` tries
    with delays ``base * factor**k`` capped at ``cap`` between them —
    so callers (the router's failover path, tests, tools) can share and
    inspect the schedule instead of hard-coding sleeps. Deterministic
    (no jitter) because the fleet here is a handful of local replicas,
    and reproducible schedules make the chaos gates assertable.
    """

    def __init__(
        self,
        *,
        attempts: int = 3,
        base_delay_s: float = 0.05,
        factor: float = 2.0,
        cap_s: float = 1.0,
    ):
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        if base_delay_s < 0 or cap_s < 0 or factor < 1.0:
            raise ValueError(
                "base_delay_s/cap_s must be >= 0 and factor >= 1"
            )
        self.attempts = int(attempts)
        self.base_delay_s = float(base_delay_s)
        self.factor = float(factor)
        self.cap_s = float(cap_s)

    def delay_s(self, attempt: int) -> float:
        """Delay *after* 0-indexed ``attempt`` (before the next try)."""
        return min(self.base_delay_s * self.factor**attempt, self.cap_s)

    def delays(self) -> list[float]:
        """The inter-attempt delays for a full budget (length
        ``attempts - 1`` — there is no wait after the final try)."""
        return [self.delay_s(k) for k in range(self.attempts - 1)]

    def total_delay_s(self) -> float:
        return sum(self.delays())


def queue_get_with_retry(
    q,
    *,
    deadline: float,
    liveness: Callable[[], None] | None = None,
    base_timeout: float = 0.05,
    backoff: float = 2.0,
    max_timeout: float = 1.0,
    what: str = "message",
) -> Any:
    """Blocking ``q.get`` with backoff slices, a liveness probe and a
    hard deadline.

    ``liveness`` runs between slices; it should raise
    :class:`WorkerFailure` when the peer is known dead. Raises
    :class:`WorkerFailure` (not ``queue.Empty``) when ``deadline``
    seconds elapse without a message.
    """
    end = time.perf_counter() + deadline
    step = base_timeout
    while True:
        remaining = end - time.perf_counter()
        if remaining <= 0:
            raise WorkerFailure(
                f"timed out after {deadline:.0f}s waiting for {what}"
            )
        try:
            return q.get(timeout=min(step, remaining))
        except _queue.Empty:
            pass
        if liveness is not None:
            liveness()
        step = min(step * backoff, max_timeout)


def payload_checksum(payload: np.ndarray) -> int:
    """CRC32 over the payload bytes (shape/dtype ride in the message key)."""
    return zlib.crc32(np.ascontiguousarray(payload).tobytes())


def verify_payload(payload: np.ndarray, crc: int) -> bool:
    return payload_checksum(payload) == crc


def corrupt_payload(payload: np.ndarray) -> np.ndarray:
    """Bit-flip one element — the wire-corruption model the
    ``corrupt_ghost`` fault injects *after* the checksum is computed."""
    bad = np.array(payload, copy=True)
    flat = bad.reshape(-1)
    if flat.size:
        flat[0] = -flat[0] - 1.0
    return bad
