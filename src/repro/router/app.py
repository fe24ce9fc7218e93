"""The router server: scatter, forward, fail over, merge.

One :class:`RouterServer` owns a static replica set (the ring never
changes at runtime — failover walks each key's preference list instead
of mutating membership, so cache affinity survives transient
ejections), a background ``/healthz`` poll task, and the data path:

* ``POST /v1/align`` (sync) — the body is validated with the *same*
  code the replicas use, each request's cache key is derived, and the
  batch is scattered into per-owner groups forwarded concurrently.
  Each group retries along its key's preference list under a bounded
  :class:`~repro.resilience.retry.BackoffPolicy` budget; alignment
  results are content-addressed, so re-sending a slice to another
  replica can only produce the identical payload (the property the
  chaos gate asserts). Merged results come back in request order.
* ``POST /v1/align`` (``"async": true``) — async jobs are not
  scattered: the whole body goes to the first key's owner and the
  returned job id is namespaced ``<replica>.<jid>`` so polls route
  back to the only replica that knows the job.
* ``GET /v1/jobs/<replica>.<jid>`` — forwarded to that replica.
* ``GET /healthz`` / ``GET /metrics`` — fleet state: per-replica
  health snapshots, routable count, forward/retry/failover counters.

Replica responses are interpreted, not just proxied: a 429 marks
backpressure (holdoff, try a sibling, else pass the 429 through), a
draining 503 reroutes without penalty, a worker-failure 503 or other
5xx counts as soft failure evidence, and transport errors carry the
typed kinds :mod:`repro.router.health` expects. When every candidate
is down the client sees 503 ``no_replicas``; when contact was made
but nothing usable came back, the last upstream answer (or a 502) is
passed through.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys
from dataclasses import dataclass
from typing import Any

from repro import __version__
from repro.obs import hooks as _obs
from repro.obs import metrics as _metrics
from repro.resilience.retry import BackoffPolicy
from repro.router import backend
from repro.router.health import ReplicaHealth
from repro.router.ring import HashRing
from repro.router.routing import parse_items, plan_scatter, routing_keys
from repro.serve import protocol
from repro.serve.app import parse_align_items
from repro.serve.httpd import JsonHttpServer, run_blocking

#: Default router port (one above the serve default).
DEFAULT_ROUTER_PORT = 8674


def parse_replica(spec: str) -> tuple[str, int]:
    """``host:port`` (or ``http://host:port``) → ``(host, port)``."""
    raw = spec.strip()
    if raw.startswith("http://"):
        raw = raw[len("http://"):]
    raw = raw.rstrip("/")
    host, sep, port = raw.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"replica must be host:port, got {spec!r}")
    return host or "127.0.0.1", int(port)


@dataclass(frozen=True)
class RouterConfig:
    """Everything a :class:`RouterServer` needs to run."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_ROUTER_PORT
    #: Backend replicas as ``host:port`` strings, in ring-name order
    #: (``r0``, ``r1``, ...).
    replicas: tuple[str, ...] = ()

    # Health polling and the ejection state machine.
    health_interval_s: float = 0.25
    soft_threshold: int = 3
    eject_cooldown_s: float = 1.0
    max_cooldown_s: float = 30.0

    # Per-exchange transport budgets.
    connect_timeout_s: float = 1.0
    response_timeout_s: float = 75.0

    # Failover retry budget (per scattered group).
    retry_attempts: int = 3
    retry_base_delay_s: float = 0.05
    retry_cap_s: float = 0.5

    #: Consistent-hash virtual nodes per replica.
    vnodes: int = 64

    # Mirrors of the serve-side knobs (same meanings).
    default_deadline_s: float = 30.0
    keepalive_timeout_s: float = 5.0
    drain_timeout_s: float = 30.0
    drain_grace_s: float = 0.0
    max_body_bytes: int = protocol.DEFAULT_MAX_BODY_BYTES

    def validate(self) -> "RouterConfig":
        if not (0 <= self.port <= 65535):
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if not self.replicas:
            raise ValueError("router needs at least one replica")
        for spec in self.replicas:
            parse_replica(spec)  # raises ValueError on malformed specs
        if self.soft_threshold < 1:
            raise ValueError(
                f"soft_threshold must be >= 1, got {self.soft_threshold}"
            )
        if self.retry_attempts < 1:
            raise ValueError(
                f"retry_attempts must be >= 1, got {self.retry_attempts}"
            )
        if self.vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {self.vnodes}")
        for name in (
            "health_interval_s", "eject_cooldown_s", "connect_timeout_s",
            "response_timeout_s", "default_deadline_s",
            "keepalive_timeout_s", "drain_timeout_s",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be > 0, got {getattr(self, name)}"
                )
        if self.max_cooldown_s < self.eject_cooldown_s:
            raise ValueError(
                "max_cooldown_s must be >= eject_cooldown_s, got "
                f"{self.max_cooldown_s} < {self.eject_cooldown_s}"
            )
        if self.retry_base_delay_s < 0 or self.retry_cap_s < 0:
            raise ValueError("retry delays must be >= 0")
        if self.drain_grace_s < 0:
            raise ValueError(
                f"drain_grace_s must be >= 0, got {self.drain_grace_s}"
            )
        return self


@dataclass
class _Counters:
    forwards: int = 0
    retries: int = 0
    failovers: int = 0
    scattered_bodies: int = 0
    merged_results: int = 0
    no_replica_errors: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(vars(self))


class RouterServer(JsonHttpServer):
    """Sharding, health-aware front tier over N serve replicas."""

    banner = "routing on"

    def __init__(self, config: RouterConfig):
        self.config = config.validate()
        super().__init__(
            host=self.config.host,
            port=self.config.port,
            max_body_bytes=self.config.max_body_bytes,
            keepalive_timeout_s=self.config.keepalive_timeout_s,
            drain_timeout_s=self.config.drain_timeout_s,
            drain_grace_s=self.config.drain_grace_s,
        )
        self.replicas: dict[str, ReplicaHealth] = {}
        for i, spec in enumerate(self.config.replicas):
            rhost, rport = parse_replica(spec)
            name = f"r{i}"
            self.replicas[name] = ReplicaHealth(
                name, rhost, rport,
                soft_threshold=self.config.soft_threshold,
                eject_cooldown_s=self.config.eject_cooldown_s,
                max_cooldown_s=self.config.max_cooldown_s,
            )
        self.ring = HashRing(self.replicas, vnodes=self.config.vnodes)
        self.backoff = BackoffPolicy(
            attempts=self.config.retry_attempts,
            base_delay_s=self.config.retry_base_delay_s,
            cap_s=self.config.retry_cap_s,
        )
        self.counters = _Counters()
        self._poll_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def _on_start(self) -> None:
        if not _metrics.enabled:
            _metrics.enable()
        self._poll_task = asyncio.create_task(
            self._poll_loop(), name="repro-router-health"
        )

    async def _on_listener_closed(self) -> None:
        if self._poll_task is not None:
            self._poll_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._poll_task

    def _record_request(
        self, *, route: str, status: int, seconds: float
    ) -> None:
        _obs.record_serve_request(route=route, status=status, seconds=seconds)

    # ------------------------------------------------------------------
    # Health polling
    # ------------------------------------------------------------------

    async def _poll_loop(self) -> None:
        while True:
            await asyncio.gather(
                *(self._probe(h) for h in self.replicas.values()
                  if h.probe_due())
            )
            await asyncio.sleep(self.config.health_interval_s)

    async def _probe(self, health: ReplicaHealth) -> None:
        try:
            resp = await backend.exchange(
                health.host, health.port, "GET", "/healthz",
                connect_timeout_s=self.config.connect_timeout_s,
                response_timeout_s=self.config.connect_timeout_s,
            )
        except backend.ReplicaError as exc:
            health.note_failure(exc.kind)
            return
        if resp.status == 200:
            health.note_success()
            return
        payload = self._safe_json(resp)
        if resp.status == 503 and self._is_draining(payload):
            # A draining replica is healthy — it answers /healthz and
            # finishes in-flight work — it just wants no new traffic.
            health.note_success()
            health.note_draining(True)
            return
        health.note_failure("http_5xx" if resp.status >= 500
                            else "bad_response")

    @staticmethod
    def _safe_json(resp: protocol.HttpResponse) -> Any:
        try:
            return resp.json()
        except protocol.BadResponse:
            return None

    @staticmethod
    def _is_draining(payload: Any) -> bool:
        if not isinstance(payload, dict):
            return False
        if payload.get("status") == "draining":
            return True
        err = payload.get("error")
        return isinstance(err, dict) and err.get("type") == "draining"

    def _routable(self) -> set[str]:
        return {n for n, h in self.replicas.items() if h.routable()}

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
            return await self._job_status(path[len("/v1/jobs/"):])
        return 404, protocol.error_payload(
            "not_found", f"no route for {request.method} {path}"
        ), []

    def _healthz(self) -> tuple[int, Any, list[tuple[str, str]]]:
        routable = self._routable()
        if self.draining:
            status, state = 503, "draining"
        elif not routable:
            status, state = 503, "no_replicas"
        elif len(routable) < len(self.replicas):
            status, state = 200, "degraded"
        else:
            status, state = 200, "ok"
        return status, {
            "status": state,
            "role": "router",
            "version": __version__,
            "uptime_s": self.uptime_s(),
            "replicas": [h.snapshot() for h in self.replicas.values()],
            "routable": len(routable),
        }, []

    def _metrics_payload(self) -> dict:
        return {
            "role": "router",
            "uptime_s": self.uptime_s(),
            "draining": self.draining,
            "router": self.counters.snapshot(),
            "replicas": [h.snapshot() for h in self.replicas.values()],
            "metrics": _metrics.registry().snapshot(),
        }

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------

    async def _forward(
        self, key: str, method: str, target: str, payload: Any | None
    ) -> tuple[protocol.HttpResponse, str] | tuple[None, None]:
        """Send one exchange to the best replica for ``key``, failing
        over along the preference list under the backoff budget.

        Returns ``(response, replica_name)`` for any usable response
        (2xx/4xx — the client's business), or the last unusable
        response seen; ``(None, None)`` when no contact succeeded.
        """
        avoid: set[str] = set()
        last: tuple[protocol.HttpResponse, str] | None = None
        budget = max(self.backoff.attempts, len(self.replicas) + 1)
        for attempt in range(budget):
            candidate = None
            for name in self.ring.preference(key):
                if name not in avoid and self.replicas[name].routable():
                    candidate = name
                    break
            if candidate is None:
                break
            health = self.replicas[candidate]
            if attempt > 0:
                self.counters.retries += 1
                await asyncio.sleep(self.backoff.delay_s(attempt - 1))
            self.counters.forwards += 1
            try:
                resp = await backend.exchange(
                    health.host, health.port, method, target, payload,
                    connect_timeout_s=self.config.connect_timeout_s,
                    response_timeout_s=self.config.response_timeout_s,
                )
            except backend.ReplicaError as exc:
                health.note_failure(exc.kind)
                avoid.add(candidate)
                self.counters.failovers += 1
                continue
            if resp.status == 429:
                health.note_backpressure(resp.retry_after_s)
                avoid.add(candidate)
                last = (resp, candidate)
                continue
            if resp.status == 503 and self._is_draining(
                self._safe_json(resp)
            ):
                health.note_draining(True)
                avoid.add(candidate)
                last = (resp, candidate)
                self.counters.failovers += 1
                continue
            if resp.status >= 500 and resp.status != 504:
                # 504 is the *request's* deadline — another replica
                # would blow it just the same, so pass it through.
                health.note_failure("http_5xx")
                avoid.add(candidate)
                last = (resp, candidate)
                self.counters.failovers += 1
                continue
            health.note_success()
            return resp, candidate
        if last is not None:
            return last
        return None, None

    def _upstream_error(
        self, key: str
    ) -> tuple[int, Any, list[tuple[str, str]]]:
        self.counters.no_replica_errors += 1
        if not self._routable():
            return 503, protocol.error_payload(
                "no_replicas", "no healthy replica available",
            ), [("Retry-After", str(self.config.eject_cooldown_s))]
        return 502, protocol.error_payload(
            "bad_gateway",
            f"every candidate replica failed for key {key[:12]}...",
        ), []

    @staticmethod
    def _passthrough(
        resp: protocol.HttpResponse,
    ) -> tuple[int, Any, list[tuple[str, str]]]:
        extra = []
        retry_after = resp.headers.get("retry-after")
        if retry_after is not None:
            extra.append(("Retry-After", retry_after))
        try:
            payload = resp.json()
        except protocol.BadResponse:
            payload = protocol.error_payload(
                "bad_gateway", "replica sent an unparseable body"
            )
        return resp.status, payload, extra

    # ------------------------------------------------------------------
    # POST /v1/align
    # ------------------------------------------------------------------

    async def _align(
        self, request: protocol.HttpRequest
    ) -> tuple[int, Any, list[tuple[str, str]]]:
        if self.draining:
            return 503, protocol.error_payload(
                "draining", "router is draining"
            ), [("Retry-After", "1")]
        obj = request.json()
        items = parse_items(obj)
        requests = parse_align_items(items)  # raises BadRequest → 400
        keys = routing_keys(requests)

        want_async = bool(obj.get("async", False)) if isinstance(obj, dict) \
            else False
        deadline_s = obj.get("deadline_s", self.config.default_deadline_s)
        if not isinstance(deadline_s, (int, float)) \
                or isinstance(deadline_s, bool) or not 0 < deadline_s <= 3600:
            raise protocol.BadRequest(
                "'deadline_s' must be a number in (0, 3600]"
            )
        deadline_s = float(deadline_s)

        if want_async:
            return await self._align_async(obj, keys[0])

        groups = plan_scatter(
            self.ring, items, keys, routable=self._routable()
        )
        if len(groups) > 1:
            self.counters.scattered_bodies += 1
        outcomes = await asyncio.gather(
            *(self._forward(
                g.key, "POST", "/v1/align", g.body(deadline_s=deadline_s)
            ) for g in groups)
        )

        merged: list[dict | None] = [None] * len(items)
        for group, (resp, _name) in zip(groups, outcomes):
            if resp is None:
                return self._upstream_error(group.key)
            if resp.status != 200:
                return self._passthrough(resp)
            payload = self._safe_json(resp)
            results = payload.get("results") if isinstance(payload, dict) \
                else None
            if not isinstance(results, list) \
                    or len(results) != len(group.indices):
                return 502, protocol.error_payload(
                    "bad_gateway",
                    f"replica returned {0 if not isinstance(results, list) else len(results)} "
                    f"results for a {len(group.indices)}-request slice",
                ), []
            for r in results:
                local = r.get("index")
                if not isinstance(local, int) \
                        or not 0 <= local < len(group.indices):
                    return 502, protocol.error_payload(
                        "bad_gateway", "replica returned a bad result index"
                    ), []
                r["index"] = group.indices[local]
                merged[r["index"]] = r
        if any(r is None for r in merged):
            return 502, protocol.error_payload(
                "bad_gateway", "replica slice left gaps in the result set"
            ), []
        self.counters.merged_results += len(merged)
        return 200, {"results": merged, "count": len(merged)}, []

    async def _align_async(
        self, obj: dict, key: str
    ) -> tuple[int, Any, list[tuple[str, str]]]:
        resp, name = await self._forward(key, "POST", "/v1/align", obj)
        if resp is None:
            return self._upstream_error(key)
        if resp.status != 202:
            return self._passthrough(resp)
        payload = self._safe_json(resp)
        if not isinstance(payload, dict) or "job" not in payload:
            return 502, protocol.error_payload(
                "bad_gateway", "replica 202 carried no job id"
            ), []
        jid = f"{name}.{payload['job']}"
        payload["job"] = jid
        payload["poll"] = f"/v1/jobs/{jid}"
        payload["replica"] = name
        return 202, payload, []

    # ------------------------------------------------------------------
    # GET /v1/jobs/<replica>.<jid>
    # ------------------------------------------------------------------

    async def _job_status(
        self, prefixed: str
    ) -> tuple[int, Any, list[tuple[str, str]]]:
        name, sep, jid = prefixed.partition(".")
        if not sep or name not in self.replicas:
            return 404, protocol.error_payload(
                "not_found",
                f"job ids issued by the router look like r0.job-1; "
                f"got {prefixed!r}",
            ), []
        health = self.replicas[name]
        # No failover: the job table lives only on the issuing replica.
        try:
            resp = await backend.exchange(
                health.host, health.port, "GET", f"/v1/jobs/{jid}",
                connect_timeout_s=self.config.connect_timeout_s,
                response_timeout_s=self.config.response_timeout_s,
            )
        except backend.ReplicaError as exc:
            health.note_failure(exc.kind)
            return 502, protocol.error_payload(
                "bad_gateway",
                f"replica {name} unreachable ({exc.kind}); the job is "
                "lost if the replica died — resubmit",
            ), []
        health.note_success()
        payload = self._safe_json(resp)
        if isinstance(payload, dict) and "job" in payload:
            payload["job"] = f"{name}.{payload['job']}"
        return resp.status, payload, []


def run_router(config: RouterConfig) -> int:
    """Blocking entry point for ``repro router``; returns the exit code."""
    try:
        return run_blocking(lambda: RouterServer(config))
    except OSError as exc:
        print(f"# fatal: {exc}", file=sys.stderr, flush=True)
        return 1
