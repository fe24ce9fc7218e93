"""A small synchronous client for the alignment service.

Built on :mod:`http.client` so the load generator, the acceptance gate
and the tests share one request path with zero dependencies. One
:class:`ServeClient` wraps one keep-alive connection and is **not**
thread-safe — concurrent load tests give each thread its own client,
which also mirrors how independent HTTP clients hit a real deployment.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass
from typing import Any, Sequence


@dataclass
class ServeResponse:
    """One HTTP exchange: status, interesting headers, decoded body."""

    status: int
    headers: dict[str, str]
    body: Any

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def retry_after_s(self) -> float | None:
        raw = self.headers.get("retry-after")
        try:
            return float(raw) if raw is not None else None
        except ValueError:
            return None


def parse_address(spec: str) -> tuple[str, int]:
    """``host:port`` (or ``http://host:port``) → ``(host, port)``.

    An empty host is ``127.0.0.1``. The one address parser for the
    services this package runs: replicas and the cache service.
    """
    raw = spec.strip()
    if raw.startswith("http://"):
        raw = raw[len("http://"):]
    raw = raw.rstrip("/")
    host, sep, port = raw.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"address must be host:port, got {spec!r}")
    return host or "127.0.0.1", int(port)


class ServeClient:
    """Thin JSON client for one ``repro serve`` instance.

    The cache service speaks the same JSON over HTTP/1.1, so
    :class:`~repro.cache.remote.RemoteCacheClient` exchanges through one.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _request(
        self, method: str, path: str, payload: Any | None = None
    ) -> ServeResponse:
        """One exchange on the keep-alive connection, reconnecting once
        if it went stale; a second transport error is raised."""
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
        except (http.client.HTTPException, OSError):
            # Stale keep-alive connection (e.g. server drained it): one
            # reconnect, then let the error surface.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
        try:
            decoded = json.loads(raw) if raw else None
        except json.JSONDecodeError:
            decoded = raw.decode("latin-1")
        return ServeResponse(
            status=resp.status,
            headers={k.lower(): v for k, v in resp.getheaders()},
            body=decoded,
        )

    # ------------------------------------------------------------------

    def align(
        self,
        seqs: Sequence[str] | None = None,
        *,
        requests: Sequence[dict] | None = None,
        mode: str = "global",
        method: str = "auto",
        rid: str | None = None,
        deadline_s: float | None = None,
        want_async: bool = False,
    ) -> ServeResponse:
        """POST /v1/align with a single triple or a prepared request list."""
        payload: dict[str, Any]
        if requests is not None:
            payload = {"requests": list(requests)}
        elif seqs is not None:
            payload = {"seqs": list(seqs), "mode": mode, "method": method}
            if rid is not None:
                payload["id"] = rid
        else:
            raise ValueError("give either seqs or requests")
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        if want_async:
            payload["async"] = True
        return self._request("POST", "/v1/align", payload)

    def job(self, jid: str) -> ServeResponse:
        return self._request("GET", f"/v1/jobs/{jid}")

    def healthz(self) -> ServeResponse:
        return self._request("GET", "/healthz")

    def metrics(self) -> ServeResponse:
        return self._request("GET", "/metrics")
