"""Configuration for the alignment service.

One frozen dataclass so a server's whole posture — socket, worker count,
admission limits, micro-batch shape, deadlines — is a single value that
can be built from CLI flags, passed to tests, and echoed in
``/healthz``. See ``docs/serving.md`` for how the knobs interact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.protocol import DEFAULT_MAX_BODY_BYTES

#: Default service port (unassigned in the IANA registry).
DEFAULT_PORT = 8673


@dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`repro.serve.app.AlignServer` needs to run.

    Admission control
    -----------------
    ``queue_depth`` bounds how many *triples* may sit in the micro-batch
    queue awaiting a flush; ``max_inflight_cells`` bounds the estimated
    DP-cell cost of everything admitted but not yet completed. Either
    limit trips a 429 with ``Retry-After``. ``max_request_cells`` is a
    hard per-POST cap (413) — a request that large should go through the
    CLI, not a latency-bounded service.

    Micro-batching
    --------------
    Batches flush to the long-lived :class:`~repro.batch.BatchScheduler`
    as soon as its compute thread is free, with no timer: each takes
    whatever queued while the previous batch computed, up to
    ``batch_max_requests`` triples.
    """

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (the bound address is
    #: printed to stderr and exposed on the server object).
    port: int = DEFAULT_PORT

    #: Optional replica name, echoed in ``/healthz``/``/metrics`` so a
    #: router (or an operator) can tell instances apart.
    instance: str | None = None

    #: Worker processes for ``blocks`` requests, the one engine that
    #: forks (a one-job pool each); every other request computes in the
    #: replica's compute thread.
    workers: int = 2
    #: Memory-tier capacity of the shared result cache.
    cache_entries: int = 4096
    #: Optional persistent cache directory (survives restarts).
    cache_dir: str | None = None
    #: Optional shared cache service (``host:port``) queried on local
    #: misses and populated on puts — the tier replicas share.
    cache_url: str | None = None
    # Admission control / backpressure.
    queue_depth: int = 256
    max_inflight_cells: int = 64_000_000
    max_request_cells: int = 200_000_000

    # Micro-batching.
    batch_max_requests: int = 32

    # Deadlines and connection hygiene.
    default_deadline_s: float = 30.0
    keepalive_timeout_s: float = 5.0
    drain_timeout_s: float = 30.0
    #: After a drain request, keep the listener open (already answering
    #: ``/healthz`` with 503) this long, so a health-polling router
    #: reroutes before connects start failing (rolling restarts).
    drain_grace_s: float = 0.0
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES

    #: Async-job table capacity (oldest finished jobs are evicted).
    job_capacity: int = 1024

    def validate(self) -> "ServeConfig":
        """Raise ``ValueError`` on out-of-range knobs; return self."""
        if not (0 <= self.port <= 65535):
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        for name in (
            "cache_entries", "queue_depth", "max_inflight_cells",
            "max_request_cells", "batch_max_requests", "job_capacity",
            "max_body_bytes",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in (
            "default_deadline_s", "keepalive_timeout_s", "drain_timeout_s",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.drain_grace_s < 0:
            raise ValueError(
                f"drain_grace_s must be >= 0, got {self.drain_grace_s}"
            )
        return self
