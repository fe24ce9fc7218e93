"""Client for the shared cache service (``repro cache-server``).

One :class:`RemoteCacheClient` is the glue that turns a
:class:`~repro.cache.store.ResultCache` into a three-tier store: after
a local memory/disk miss the cache asks the service
(``GET /v1/cache/<key>``), and every put is mirrored there
(``PUT /v1/cache/<key>``), so N serve replicas share one working set —
a replica restart loses only its LRU, and a key computed on one shard
is a cheap hit everywhere.

Failure posture matters more than speed here: the remote tier sits on
the hot serving path, so the client keeps its timeouts short and trips
a circuit breaker after ``breaker_threshold`` consecutive transport
errors — while the breaker is open every call returns a miss
immediately instead of stalling the compute thread behind a dead
service. The breaker half-opens after ``breaker_cooldown_s`` and one
successful exchange closes it. All methods are best-effort and never
raise; the serving tier degrades to local-only caching.

Thread-safe: one lock guards the single keep-alive
:class:`~repro.serve.client.ServeClient` and the breaker state (the
batch layer calls from one compute thread; tests and tools may share a
client across a few threads).
"""

from __future__ import annotations

import http.client
import threading
import time
from typing import Any

from repro.serve.client import ServeClient, ServeResponse, parse_address


class RemoteCacheClient:
    """Best-effort HTTP client for one cache service."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout_s: float = 1.0,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 5.0,
    ):
        if breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        self.host = host
        self.port = int(port)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self._lock = threading.Lock()
        self._client = ServeClient(host, port, timeout=timeout_s)
        self._consecutive_errors = 0
        self._open_until = 0.0  # monotonic; breaker open while in future
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.breaker_trips = 0

    @classmethod
    def from_url(cls, url: str, **kwargs: Any) -> "RemoteCacheClient":
        """Build from a ``host:port`` (or ``http://host:port``) string."""
        return cls(*parse_address(url), **kwargs)

    # ------------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._client.close()

    def _breaker_open(self) -> bool:
        return time.monotonic() < self._open_until

    def _note_error(self) -> None:
        self.errors += 1
        self._consecutive_errors += 1
        if self._consecutive_errors >= self.breaker_threshold:
            self._open_until = time.monotonic() + self.breaker_cooldown_s
            self._consecutive_errors = 0
            self.breaker_trips += 1

    def _note_success(self) -> None:
        self._consecutive_errors = 0
        self._open_until = 0.0

    def _exchange(
        self, method: str, path: str, payload: Any | None = None
    ) -> ServeResponse | None:
        """One exchange (:meth:`ServeClient._request` reconnects once on
        a stale keep-alive connection). None on transport failure (noted)."""
        try:
            resp = self._client._request(method, path, payload)
        except (http.client.HTTPException, OSError):
            self._client.close()
            self._note_error()
            return None
        self._note_success()
        return resp

    # ------------------------------------------------------------------

    def get_payload(self, key: str) -> dict | None:
        """The encoded alignment payload for ``key``, or None on a miss,
        any error, or an open breaker."""
        with self._lock:
            if self._breaker_open():
                return None
            resp = self._exchange("GET", f"/v1/cache/{key}")
            payload = None
            if resp is not None and resp.status == 200:
                try:
                    payload = resp.body["alignment"]
                except (KeyError, TypeError):
                    pass
            if not isinstance(payload, dict):
                self.misses += 1
                return None
            self.hits += 1
            return payload

    def put_payload(self, key: str, payload: dict) -> bool:
        """Mirror one encoded payload to the service; False on failure."""
        with self._lock:
            if self._breaker_open():
                return False
            resp = self._exchange(
                "PUT", f"/v1/cache/{key}", {"alignment": payload}
            )
            return resp is not None and resp.status in (200, 204)

    def snapshot(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "breaker_trips": self.breaker_trips,
            "breaker_open": float(self._breaker_open()),
        }
