"""The serving layer: HTTP framing, admission control, and the live
service end to end.

The protocol/admission/config tests are plain unit tests. The
``@pytest.mark.serve`` tests run a real :class:`AlignServer` on an
ephemeral port inside a background thread's event loop and talk to it
with the stdlib client — the same path ``tools/check_serve.py``
exercises across processes, kept here in-process so the tier-1 suite
stays fast.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import queue
import threading

import pytest

from repro.core.api import align3
from repro.core.scoring import default_scheme_for
from repro.seqio.alphabet import DNA
from repro.seqio.generate import mutated_family
from repro.serve import (
    AdmissionController,
    AlignServer,
    ServeClient,
    ServeConfig,
    estimate_cells,
)
from repro.serve.protocol import (
    BadRequest,
    PayloadTooLarge,
    error_payload,
    read_request,
    render_response,
)

# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------


def _parse(raw: bytes, **kwargs):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return asyncio.run(go())


class TestProtocol:
    def test_parses_request_line_headers_and_body(self):
        body = b'{"x": 1}'
        raw = (
            b"POST /v1/align?mode=global HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        req = _parse(raw)
        assert req.method == "POST"
        assert req.path == "/v1/align"
        assert req.query == "mode=global"
        assert req.headers["host"] == "localhost"
        assert req.json() == {"x": 1}

    def test_clean_eof_returns_none(self):
        assert _parse(b"") is None

    def test_mid_request_eof_raises(self):
        with pytest.raises(BadRequest):
            _parse(b"GET /healthz HT")

    def test_malformed_request_line(self):
        with pytest.raises(BadRequest):
            _parse(b"NONSENSE\r\n\r\n")

    def test_unknown_method_rejected(self):
        with pytest.raises(BadRequest):
            _parse(b"BREW /coffee HTTP/1.1\r\n\r\n")

    def test_chunked_uploads_rejected(self):
        raw = (
            b"POST /v1/align HTTP/1.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
        with pytest.raises(BadRequest):
            _parse(raw)

    def test_oversized_body_rejected_before_read(self):
        raw = (
            b"POST /v1/align HTTP/1.1\r\n"
            b"Content-Length: 1000\r\n\r\n"
        )
        with pytest.raises(PayloadTooLarge):
            _parse(raw, max_body_bytes=100)

    def test_bad_content_length(self):
        for bad in (b"nope", b"-5"):
            raw = (
                b"POST / HTTP/1.1\r\nContent-Length: " + bad + b"\r\n\r\n"
            )
            with pytest.raises(BadRequest):
                _parse(raw)

    def test_keep_alive_semantics(self):
        req = _parse(b"GET / HTTP/1.1\r\n\r\n")
        assert not req.wants_close
        req = _parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert req.wants_close
        req = _parse(b"GET / HTTP/1.0\r\n\r\n")
        assert req.wants_close
        req = _parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        assert not req.wants_close

    def test_json_of_empty_body_raises(self):
        req = _parse(b"POST / HTTP/1.1\r\n\r\n")
        with pytest.raises(BadRequest):
            req.json()

    def test_render_response_roundtrip(self):
        raw = render_response(
            429,
            error_payload("overloaded", "busy", retry_after_s=3),
            keep_alive=False,
            extra_headers=[("Retry-After", "3")],
        )
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        assert lines[0] == "HTTP/1.1 429 Too Many Requests"
        assert "Retry-After: 3" in lines
        assert "Connection: close" in lines
        payload = json.loads(body)
        assert payload["error"]["type"] == "overloaded"
        assert payload["error"]["retry_after_s"] == 3
        assert int(
            [ln for ln in lines if ln.startswith("Content-Length")][0]
            .split(":")[1]
        ) == len(body)


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------


class TestAdmission:
    def test_estimate_cells_is_full_lattice(self):
        assert estimate_cells(["AA", "AAA", "A"]) == 3 * 4 * 2

    def test_queue_bound_sheds(self):
        adm = AdmissionController(2, 10**9)
        assert adm.try_admit(2, 100).admitted
        d = adm.try_admit(1, 100)
        assert not d.admitted
        assert d.reason == "queue_full"
        assert d.retry_after_s >= 1

    def test_cell_bound_sheds(self):
        adm = AdmissionController(100, 1000)
        assert adm.try_admit(1, 900).admitted
        d = adm.try_admit(1, 200)
        assert not d.admitted
        assert d.reason == "cells_full"

    def test_flush_frees_queue_not_cells(self):
        adm = AdmissionController(1, 10**9)
        assert adm.try_admit(1, 500).admitted
        assert not adm.try_admit(1, 1).admitted
        adm.on_flush(1)
        assert adm.queued_requests == 0
        assert adm.inflight_cells == 500
        assert adm.try_admit(1, 1).admitted

    def test_complete_frees_cells_with_floor(self):
        adm = AdmissionController(10, 1000)
        adm.try_admit(1, 600)
        adm.on_complete(600)
        assert adm.inflight_cells == 0
        adm.on_complete(999)  # double-complete must not go negative
        assert adm.inflight_cells == 0

    def test_retry_after_tracks_backlog_and_clamps(self):
        adm = AdmissionController(10, 10**12)
        assert adm.retry_after() == 1  # empty backlog -> minimum
        adm.try_admit(1, int(adm.cells_per_s * 5))
        assert 5 <= adm.retry_after() <= 6
        adm.try_admit(1, int(adm.cells_per_s * 500))
        assert adm.retry_after() == 60  # clamped

    def test_throughput_ewma_moves_toward_observation(self):
        adm = AdmissionController(10, 10**9)
        before = adm.cells_per_s
        adm.observe_throughput(int(before * 10), 1.0)
        assert before < adm.cells_per_s < before * 10
        adm.observe_throughput(0, 1.0)  # ignored
        adm.observe_throughput(100, 0.0)  # ignored

    def test_snapshot_counts(self):
        adm = AdmissionController(1, 10)
        adm.try_admit(1, 5)
        adm.try_admit(1, 5)
        snap = adm.snapshot()
        assert snap["admitted_total"] == 1
        assert snap["shed_total"] == 1

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(0, 10)
        with pytest.raises(ValueError):
            AdmissionController(10, 0)


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------


class TestConfig:
    def test_defaults_validate(self):
        ServeConfig().validate()
        ServeConfig(port=0).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"port": -1},
            {"port": 70000},
            {"workers": 0},
            {"queue_depth": 0},
            {"max_inflight_cells": 0},
            {"batch_max_requests": 0},
            {"batch_max_age_s": -0.1},
            {"default_deadline_s": 0},
            {"drain_timeout_s": -1},
            {"drain_grace_s": -0.5},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs).validate()

    def test_router_facing_knobs_validate(self):
        ServeConfig(
            instance="r0",
            cache_url="127.0.0.1:9999",
            drain_grace_s=0.5,
        ).validate()


# ----------------------------------------------------------------------
# job table
# ----------------------------------------------------------------------


class TestJobTable:
    def test_only_finished_jobs_are_evicted(self, capsys):
        from repro.serve.app import JobTable

        table = JobTable(capacity=2)
        jid1, rec1 = table.register(1)
        jid2, rec2 = table.register(1)
        jid3, rec3 = table.register(1)
        # All three queued: nothing evictable, table grows past
        # capacity with a warning rather than orphaning a live job.
        assert len(table) == 3
        assert table.get(jid1) is rec1
        assert "over capacity" in capsys.readouterr().err

        rec1.status = "done"
        jid4, _rec4 = table.register(1)
        # The finished job went; every in-flight record survived.
        assert table.get(jid1) is None
        assert table.get(jid2) is rec2
        assert table.get(jid3) is rec3
        assert table.get(jid4) is not None
        assert len(table) == 3

    def test_warning_fires_once_per_overflow_episode(self, capsys):
        from repro.serve.app import JobTable

        table = JobTable(capacity=1)
        _jid1, rec1 = table.register(1)
        table.register(1)
        table.register(1)
        assert capsys.readouterr().err.count("over capacity") == 1
        rec1.status = "failed"
        table.register(1)  # evicts rec1; still the same episode
        table.register(1)
        # readouterr() drained the buffer above: no *new* warnings.
        assert capsys.readouterr().err.count("over capacity") == 0

    def test_bad_capacity_rejected(self):
        from repro.serve.app import JobTable

        with pytest.raises(ValueError):
            JobTable(capacity=0)


# ----------------------------------------------------------------------
# live server (in-process, ephemeral port)
# ----------------------------------------------------------------------


class ServerThread:
    """An AlignServer on its own thread + event loop, drained on exit."""

    def __init__(self, **overrides):
        overrides.setdefault("port", 0)
        overrides.setdefault("workers", 1)
        self.config = ServeConfig(**overrides)
        self.server: AlignServer | None = None
        self._ready: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        item = self._ready.get(timeout=30)
        if isinstance(item, BaseException):
            raise item
        self.port: int = item

    def _run(self) -> None:
        async def amain():
            self.server = AlignServer(self.config)
            try:
                _host, port = await self.server.start()
            except BaseException as exc:  # pragma: no cover - setup only
                self._ready.put(exc)
                return
            self._ready.put(port)
            await self.server.serve_until_drained()

        asyncio.run(amain())

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc) -> None:
        assert self.server is not None
        self.server.request_drain()
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "server failed to drain"


TRIPLE = ("GATTACA", "GATCA", "GTTACA")


@pytest.mark.serve
class TestAlignServer:
    def test_align_matches_direct_align3(self):
        scheme = default_scheme_for(DNA)
        want = align3(*TRIPLE, scheme)
        with ServerThread() as srv, ServeClient(
            "127.0.0.1", srv.port
        ) as client:
            resp = client.align(seqs=list(TRIPLE))
            assert resp.status == 200
            res = resp.body["results"][0]
            assert tuple(res["rows"]) == want.rows
            assert float(res["score"]) == want.score
            assert res["source"] == "computed"

            again = client.align(seqs=list(TRIPLE))
            assert again.body["results"][0]["source"] == "memory_hit"
            assert tuple(again.body["results"][0]["rows"]) == want.rows

    def test_batch_and_concurrent_clients_dedup(self):
        uniq = [tuple(mutated_family(12, seed=40 + i)) for i in range(4)]
        with ServerThread() as srv:
            responses = [None] * 8

            def hit(i: int) -> None:
                with ServeClient("127.0.0.1", srv.port) as c:
                    responses[i] = c.align(seqs=list(uniq[i % 4]))

            threads = [
                threading.Thread(target=hit, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(r.status == 200 for r in responses)
            for i, r in enumerate(responses):
                want = align3(*uniq[i % 4], default_scheme_for(DNA))
                got = r.body["results"][0]
                assert tuple(got["rows"]) == want.rows
                assert float(got["score"]) == want.score

    def test_multi_request_post(self):
        with ServerThread() as srv, ServeClient(
            "127.0.0.1", srv.port
        ) as client:
            resp = client.align(
                requests=[
                    {"id": "a", "seqs": list(TRIPLE)},
                    {"id": "b", "seqs": list(TRIPLE)},
                ]
            )
            assert resp.status == 200
            assert resp.body["count"] == 2
            ids = [r["id"] for r in resp.body["results"]]
            assert ids == ["a", "b"]
            sources = {r["source"] for r in resp.body["results"]}
            assert "dedup" in sources or "memory_hit" in sources

    def test_two_workers_serve_global_triples_in_process(self):
        before = {p.pid for p in multiprocessing.active_children()}
        with ServerThread(workers=2) as srv, ServeClient(
            "127.0.0.1", srv.port
        ) as client:
            resp = client.align(seqs=list(TRIPLE))
            assert resp.status == 200
            assert {p.pid for p in multiprocessing.active_children()} == before
        got = resp.body["results"][0]
        assert got["engine"] == "wavefront"
        want = align3(*TRIPLE, default_scheme_for(DNA))
        assert tuple(got["rows"]) == want.rows

    def test_healthz_and_metrics(self):
        with ServerThread() as srv, ServeClient(
            "127.0.0.1", srv.port
        ) as client:
            assert client.healthz().status == 200
            client.align(seqs=list(TRIPLE))
            m = client.metrics()
            assert m.status == 200
            counters = m.body["metrics"]["counters"]
            assert counters["serve_requests"] >= 1
            assert "admission" in m.body
            assert "cache" in m.body

    def test_bad_requests_get_400_not_a_dropped_connection(self):
        with ServerThread() as srv, ServeClient(
            "127.0.0.1", srv.port
        ) as client:
            resp = client._request(
                "POST", "/v1/align", {"seqs": ["AC", "AC"]}
            )
            assert resp.status == 400
            assert resp.body["error"]["type"] == "bad_request"
            resp = client._request("POST", "/v1/align", {"nope": 1})
            assert resp.status == 400
            # A mixed-alphabet triple fails its whole body at parse time,
            # before it can share a micro-batch with anyone else's.
            mixed = {"seqs": ["ACGTACGT", "ACGTACGA", "MKVLWQ"]}
            resp = client._request(
                "POST", "/v1/align",
                {"requests": [{"seqs": list(TRIPLE)}, mixed]},
            )
            assert resp.status == 400
            assert "mixed alphabets" in resp.body["error"]["message"]
            assert srv.server.batcher.requests_served == 0
            resp = client.align(seqs=list(TRIPLE))
            assert resp.status == 200
            want = align3(*TRIPLE, default_scheme_for(DNA))
            assert tuple(resp.body["results"][0]["rows"]) == want.rows

    def test_removed_parallel_engines_get_400(self):
        with ServerThread() as srv, ServeClient(
            "127.0.0.1", srv.port
        ) as client:
            for method in ("shared", "threads"):
                resp = client._request(
                    "POST", "/v1/align",
                    {"seqs": list(TRIPLE), "method": method},
                )
                assert resp.status == 400
                assert "unknown method" in resp.body["error"]["message"]

    def test_unknown_route_404_and_bad_method_405(self):
        with ServerThread() as srv, ServeClient(
            "127.0.0.1", srv.port
        ) as client:
            assert client._request("GET", "/nope", None).status == 404
            resp = client._request("POST", "/healthz", {"x": 1})
            assert resp.status == 405

    def test_oversized_request_413(self):
        with ServerThread(max_request_cells=1000) as srv, ServeClient(
            "127.0.0.1", srv.port
        ) as client:
            resp = client.align(seqs=["A" * 50, "C" * 50, "G" * 50])
            assert resp.status == 413
            assert resp.body["error"]["type"] == "request_too_large"

    def test_tiny_queue_sheds_with_retry_after(self):
        with ServerThread(
            queue_depth=1, batch_max_requests=1, batch_max_age_s=0.2
        ) as srv:
            seqs = list(mutated_family(30, seed=77))
            statuses, retry_afters = [], []

            def fire() -> None:
                with ServeClient("127.0.0.1", srv.port) as c:
                    r = c.align(seqs=seqs)
                    statuses.append(r.status)
                    if r.status == 429:
                        retry_afters.append(r.retry_after_s)

            threads = [
                threading.Thread(target=fire) for _ in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert 429 in statuses
            assert all(s in (200, 429) for s in statuses)
            assert all(ra is not None and ra >= 1 for ra in retry_afters)

    def test_coalesced_jobs_get_job_relative_indices(self):
        # Two clients landing in one micro-batch: each response must
        # number its results from 0 (the scheduler's batch-global
        # indices are an implementation detail the wire never shows).
        uniq = [tuple(mutated_family(10, seed=150 + i)) for i in range(4)]
        with ServerThread(
            batch_max_requests=16, batch_max_age_s=0.25
        ) as srv:
            responses = [None] * 4

            def hit(i: int) -> None:
                with ServeClient("127.0.0.1", srv.port) as c:
                    responses[i] = c.align(seqs=list(uniq[i]))

            threads = [
                threading.Thread(target=hit, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(r.status == 200 for r in responses)
            for r in responses:
                assert [res["index"] for res in r.body["results"]] == [0]

    def test_async_job_lifecycle(self):
        with ServerThread() as srv, ServeClient(
            "127.0.0.1", srv.port
        ) as client:
            resp = client.align(seqs=list(TRIPLE), want_async=True)
            assert resp.status == 202
            jid = resp.body["job"]
            deadline = 50
            while deadline:
                job = client.job(jid)
                assert job.status == 200
                if job.body["status"] == "done":
                    break
                deadline -= 1
                import time as _time

                _time.sleep(0.05)
            assert job.body["status"] == "done"
            want = align3(*TRIPLE, default_scheme_for(DNA))
            got = job.body["results"][0]
            assert tuple(got["rows"]) == want.rows
            assert client.job("missing").status == 404

    def test_drain_completes_inflight_then_healthz_refuses(self):
        with ServerThread(
            batch_max_requests=4, batch_max_age_s=0.05
        ) as srv:
            seqs = [list(mutated_family(24, seed=60 + i)) for i in range(4)]
            results = [None] * 4

            def one(i: int) -> None:
                with ServeClient("127.0.0.1", srv.port, timeout=60) as c:
                    results[i] = c.align(seqs=seqs[i])

            threads = [
                threading.Thread(target=one, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            import time as _time

            _time.sleep(0.05)
            assert srv.server is not None
            srv.server.request_drain()
            for t in threads:
                t.join(timeout=60)
            scheme = default_scheme_for(DNA)
            for i, r in enumerate(results):
                assert r is not None
                if r.status == 200:
                    want = align3(*seqs[i], scheme)
                    assert tuple(r.body["results"][0]["rows"]) == want.rows
                else:
                    assert r.status == 503  # refused at the door
            assert any(r.status == 200 for r in results)

    def test_serve_cache_hits_persist_across_restart(self, tmp_path):
        seqs = list(mutated_family(16, seed=99))
        with ServerThread(cache_dir=str(tmp_path)) as srv, ServeClient(
            "127.0.0.1", srv.port
        ) as client:
            first = client.align(seqs=seqs)
            assert first.body["results"][0]["source"] == "computed"
        with ServerThread(cache_dir=str(tmp_path)) as srv, ServeClient(
            "127.0.0.1", srv.port
        ) as client:
            second = client.align(seqs=seqs)
            assert second.body["results"][0]["source"] == "disk_hit"
            assert (
                second.body["results"][0]["rows"]
                == first.body["results"][0]["rows"]
            )
