"""Router tier: ring stability, the health state machine, backoff
budgets, key affinity, and live scatter/failover behaviour.

The unit half exercises the pieces in isolation (no sockets); the
``serve``-marked half runs a real RouterServer over real in-process
AlignServer replicas on ephemeral ports. The replica-kill chaos test
(separate processes + SIGKILL) lives in ``test_router_chaos.py``.
"""

from __future__ import annotations

import asyncio
import itertools
import queue
import threading

import pytest

from repro.batch.scheduler import AlignmentRequest
from repro.cache import request_key
from repro.core.api import align3
from repro.core.scoring import default_scheme_for
from repro.resilience.retry import BackoffPolicy
from repro.router import HashRing, ReplicaHealth, RouterConfig, RouterServer
from repro.router.app import parse_replica
from repro.router.health import (
    STATE_EJECTED,
    STATE_HALF_OPEN,
    STATE_HEALTHY,
)
from repro.router.routing import parse_items, plan_scatter, routing_keys
from repro.seqio.alphabet import DNA
from repro.seqio.generate import mutated_family
from repro.serve import ServeClient
from repro.serve.app import parse_align_items
from repro.serve.protocol import BadRequest

from tests.test_serve import ServerThread

TRIPLE = ("GATTACA", "GATCA", "GTTACA")


# ----------------------------------------------------------------------
# Consistent-hash ring
# ----------------------------------------------------------------------


class TestHashRing:
    def _keys(self, n: int) -> list[str]:
        scheme = default_scheme_for(DNA)
        # Real routing keys: sha256 hexdigests of distinct requests.
        return [
            request_key((f"AC{i}GT", "ACG", "AGT"), scheme, "global", "auto")
            for i in range(n)
        ]

    def test_owner_is_deterministic_and_member(self):
        ring = HashRing(["r0", "r1", "r2"])
        for key in self._keys(50):
            owner = ring.owner(key)
            assert owner in ("r0", "r1", "r2")
            assert ring.owner(key) == owner
            assert ring.preference(key)[0] == owner

    def test_preference_is_distinct_and_covers_all(self):
        ring = HashRing(["r0", "r1", "r2", "r3"])
        for key in self._keys(20):
            pref = ring.preference(key)
            assert sorted(pref) == ["r0", "r1", "r2", "r3"]
            assert ring.preference(key, 2) == pref[:2]

    def test_adding_member_remaps_about_one_over_n(self):
        keys = self._keys(2000)
        before = HashRing(["r0", "r1", "r2"])
        owners = {k: before.owner(k) for k in keys}
        before.add("r3")
        moved = sum(1 for k in keys if before.owner(k) != owners[k])
        # Ideal is 1/4 = 0.25; vnode placement wobbles but a naive
        # mod-N rehash would move ~0.75 — assert we are far from that.
        assert 0.10 < moved / len(keys) < 0.45

    def test_removing_member_only_remaps_its_keys(self):
        keys = self._keys(500)
        ring = HashRing(["r0", "r1", "r2"])
        owners = {k: ring.owner(k) for k in keys}
        ring.remove("r1")
        for k in keys:
            if owners[k] == "r1":
                assert ring.owner(k) in ("r0", "r2")
            else:
                assert ring.owner(k) == owners[k]

    def test_empty_ring_raises(self):
        ring = HashRing()
        with pytest.raises(LookupError):
            ring.owner("00" * 32)
        assert ring.preference("00" * 32) == []

    def test_add_remove_idempotent(self):
        ring = HashRing(["a"])
        ring.add("a")
        assert len(ring) == 1
        ring.remove("missing")
        assert ring.members == ["a"]

    def test_bad_vnodes_rejected(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)


# ----------------------------------------------------------------------
# Health state machine
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def _health(**kw) -> tuple[ReplicaHealth, FakeClock]:
    clock = FakeClock()
    kw.setdefault("soft_threshold", 3)
    kw.setdefault("eject_cooldown_s", 1.0)
    kw.setdefault("max_cooldown_s", 8.0)
    return ReplicaHealth("r0", "127.0.0.1", 1, clock=clock, **kw), clock


class TestReplicaHealth:
    def test_soft_failures_accumulate_to_ejection(self):
        h, _ = _health()
        h.note_failure("timeout")
        h.note_failure("http_5xx")
        assert h.state == STATE_HEALTHY and h.routable()
        h.note_failure("timeout")
        assert h.state == STATE_EJECTED and not h.routable()

    def test_success_resets_the_soft_count(self):
        h, _ = _health()
        h.note_failure("timeout")
        h.note_failure("timeout")
        h.note_success()
        h.note_failure("timeout")
        h.note_failure("timeout")
        assert h.state == STATE_HEALTHY

    def test_connect_failure_ejects_immediately(self):
        h, _ = _health()
        h.note_failure("connect")
        assert h.state == STATE_EJECTED
        assert h.last_failure == "connect"

    def test_half_open_after_cooldown_then_readmission(self):
        h, clock = _health()
        h.note_failure("connect")
        assert not h.probe_due()  # still cooling down: no traffic at all
        clock.now += 1.1
        assert h.probe_due()
        assert h.state == STATE_HALF_OPEN
        assert not h.routable()  # probes only, no data traffic yet
        h.note_success()
        assert h.state == STATE_HEALTHY and h.routable()
        assert h.cooldown_s == 1.0  # escalation reset on recovery

    def test_half_open_failure_doubles_cooldown_capped(self):
        h, clock = _health()
        h.note_failure("connect")
        for want in (2.0, 4.0, 8.0, 8.0):
            clock.now += h.cooldown_s + 0.1
            h.tick()
            assert h.state == STATE_HALF_OPEN
            h.note_failure("timeout")
            assert h.state == STATE_EJECTED
            assert h.cooldown_s == want

    def test_backpressure_holds_off_without_ejection(self):
        h, clock = _health()
        h.note_backpressure(2.0)
        assert h.state == STATE_HEALTHY
        assert not h.routable()
        clock.now += 2.1
        assert h.routable()

    def test_draining_routes_away_without_ejection(self):
        h, _ = _health()
        h.note_draining(True)
        assert h.state == STATE_HEALTHY
        assert not h.routable()
        h.note_success()
        assert h.routable()

    def test_unknown_failure_kind_rejected(self):
        h, _ = _health()
        with pytest.raises(ValueError):
            h.note_failure("gremlins")

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            ReplicaHealth("r", "h", 1, soft_threshold=0)
        with pytest.raises(ValueError):
            ReplicaHealth("r", "h", 1, eject_cooldown_s=2.0,
                          max_cooldown_s=1.0)


# ----------------------------------------------------------------------
# Backoff policy
# ----------------------------------------------------------------------


class TestBackoffPolicy:
    def test_schedule_shape(self):
        p = BackoffPolicy(attempts=4, base_delay_s=0.1, factor=2.0,
                          cap_s=0.3)
        assert p.delays() == [0.1, 0.2, 0.3]
        assert p.total_delay_s() == pytest.approx(0.6)

    def test_single_attempt_never_sleeps(self):
        assert BackoffPolicy(attempts=1).delays() == []

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            BackoffPolicy(attempts=0)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)


# ----------------------------------------------------------------------
# Routing: keys, parsing, scatter
# ----------------------------------------------------------------------


class TestRouting:
    def test_every_method_and_row_order_of_a_triple_gets_one_key(self):
        # A replica serves all of these from one computed result (exact-
        # class dedup, permutation reuse), so they must share a replica.
        chain = (2, 1, 0, 2)
        items = [
            {
                "seqs": [TRIPLE[p] for p in order],
                "method": method,
                "constraints": [[chain[p] for p in order] + [chain[3]]],
            }
            for order in itertools.permutations(range(3))
            for method in ("auto", "wavefront", "dp3d", "pruned", "banded")
        ]
        keys = routing_keys(parse_align_items(items))
        assert len(set(keys)) == 1
        plain = [{"seqs": [TRIPLE[p] for p in order], "method": method}
                 for order in itertools.permutations(range(3))
                 for method in ("auto", "hirschberg", "banded")]
        plain_keys = routing_keys(parse_align_items(plain))
        assert len(set(plain_keys)) == 1
        # What changes the answer changes the key.
        others = [
            {"seqs": list(TRIPLE), "mode": "local"},
            {"seqs": [TRIPLE[0], TRIPLE[1], TRIPLE[2][:-1]]},
        ]
        distinct = routing_keys(parse_align_items(others))
        assert len({keys[0], plain_keys[0], *distinct}) == 4
        # The same request twice: the same key.
        assert routing_keys(parse_align_items(items)) == keys

    def test_parse_items_shapes(self):
        assert parse_items({"seqs": ["A", "C", "G"]}) == [
            {"seqs": ["A", "C", "G"]}
        ]
        items = [{"seqs": ["A", "C", "G"]}, {"seqs": ["T", "C", "G"]}]
        assert parse_items({"requests": items}) == items
        for bad in ([], {"requests": []}, {"requests": "x"}, 7):
            with pytest.raises(BadRequest):
                parse_items(bad)

    def test_normalise_rejects_bad_items(self):
        with pytest.raises(BadRequest):
            parse_align_items([{"seqs": ["A", "C"]}])
        with pytest.raises(BadRequest):
            parse_align_items([{"nope": 1}])

    def test_scatter_groups_by_owner_preserving_positions(self):
        ring = HashRing(["r0", "r1", "r2"])
        items = [{"seqs": ["AC" + "G" * (i + 1), "ACG", "AGT"]}
                 for i in range(12)]
        keys = routing_keys(parse_align_items(items))
        groups = plan_scatter(ring, items, keys,
                              routable={"r0", "r1", "r2"})
        covered = sorted(i for g in groups for i in g.indices)
        assert covered == list(range(12))
        for g in groups:
            assert [items[i] for i in g.indices] == g.items
            for i in g.indices:
                assert ring.owner(keys[i]) == g.owner

    def test_scatter_avoids_unroutable_owners(self):
        ring = HashRing(["r0", "r1"])
        items = [{"seqs": ["AC" + "G" * (i + 1), "ACG", "AGT"]}
                 for i in range(8)]
        keys = routing_keys(parse_align_items(items))
        groups = plan_scatter(ring, items, keys, routable={"r1"})
        assert {g.owner for g in groups} == {"r1"}

    def test_scatter_length_mismatch_rejected(self):
        ring = HashRing(["r0"])
        with pytest.raises(ValueError):
            plan_scatter(ring, [{}], [], routable={"r0"})


# ----------------------------------------------------------------------
# RouterConfig validation
# ----------------------------------------------------------------------


class TestRouterConfig:
    def test_parse_replica_forms(self):
        assert parse_replica("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_replica("http://localhost:80/") == ("localhost", 80)
        for bad in ("nope", "host:", ":x", "host:port"):
            with pytest.raises(ValueError):
                parse_replica(bad)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"replicas": ()},
            {"replicas": ("nonsense",)},
            {"port": 70000},
            {"soft_threshold": 0},
            {"retry_attempts": 0},
            {"vnodes": 0},
            {"health_interval_s": 0},
            {"eject_cooldown_s": 2.0, "max_cooldown_s": 1.0},
            {"retry_base_delay_s": -0.1},
            {"drain_grace_s": -1.0},
        ],
    )
    def test_bad_knobs_rejected(self, overrides):
        base = {"replicas": ("127.0.0.1:9000",)}
        base.update(overrides)
        with pytest.raises(ValueError):
            RouterConfig(**base).validate()


# ----------------------------------------------------------------------
# Live router over in-process replicas
# ----------------------------------------------------------------------


class RouterThread:
    """A RouterServer on its own thread + event loop, drained on exit."""

    def __init__(self, replica_ports: list[int], **overrides):
        overrides.setdefault("port", 0)
        overrides.setdefault("health_interval_s", 0.1)
        overrides.setdefault("eject_cooldown_s", 0.3)
        overrides.setdefault("retry_base_delay_s", 0.01)
        overrides.setdefault("retry_cap_s", 0.05)
        self.config = RouterConfig(
            replicas=tuple(f"127.0.0.1:{p}" for p in replica_ports),
            **overrides,
        )
        self.server: RouterServer | None = None
        self._ready: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        item = self._ready.get(timeout=30)
        if isinstance(item, BaseException):
            raise item
        self.port: int = item

    def _run(self) -> None:
        async def amain():
            self.server = RouterServer(self.config)
            try:
                _host, port = await self.server.start()
            except BaseException as exc:  # pragma: no cover - setup only
                self._ready.put(exc)
                return
            self._ready.put(port)
            await self.server.serve_until_drained()

        asyncio.run(amain())

    def __enter__(self) -> "RouterThread":
        return self

    def __exit__(self, *exc) -> None:
        assert self.server is not None
        self.server.request_drain()
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "router failed to drain"


@pytest.mark.serve
class TestRouterServer:
    def test_roundtrip_matches_direct_align3(self):
        want = align3(*TRIPLE, default_scheme_for(DNA))
        with ServerThread() as srv, \
                RouterThread([srv.port]) as rt, \
                ServeClient("127.0.0.1", rt.port) as client:
            resp = client.align(seqs=list(TRIPLE))
            assert resp.status == 200
            res = resp.body["results"][0]
            assert tuple(res["rows"]) == want.rows
            assert float(res["score"]) == want.score

    def test_scatter_merge_preserves_request_order(self):
        families = [tuple(mutated_family(10, seed=90 + i)) for i in range(6)]
        with ServerThread() as s0, ServerThread() as s1, \
                RouterThread([s0.port, s1.port]) as rt, \
                ServeClient("127.0.0.1", rt.port) as client:
            resp = client.align(requests=[
                {"id": f"q{i}", "seqs": list(f)}
                for i, f in enumerate(families)
            ])
            assert resp.status == 200
            assert resp.body["count"] == len(families)
            for i, res in enumerate(resp.body["results"]):
                assert res["index"] == i
                assert res["id"] == f"q{i}"
                want = align3(*families[i], default_scheme_for(DNA))
                assert tuple(res["rows"]) == want.rows
            # Both replicas should have seen traffic for 6 distinct
            # keys (ring spread), visible in the router's counters.
            assert rt.server.counters.merged_results == len(families)

    def test_async_job_is_namespaced_and_pollable(self):
        with ServerThread() as srv, \
                RouterThread([srv.port]) as rt, \
                ServeClient("127.0.0.1", rt.port) as client:
            resp = client.align(seqs=list(TRIPLE), want_async=True)
            assert resp.status == 202
            jid = resp.body["job"]
            assert jid.startswith("r0.")
            assert resp.body["poll"] == f"/v1/jobs/{jid}"
            for _ in range(100):
                poll = client._request("GET", f"/v1/jobs/{jid}")
                if poll.body.get("status") == "done":
                    break
                import time as _time
                _time.sleep(0.05)
            assert poll.status == 200
            assert poll.body["job"] == jid
            assert poll.body["results"][0]["rows"]

    def test_unprefixed_job_id_404(self):
        with ServerThread() as srv, \
                RouterThread([srv.port]) as rt, \
                ServeClient("127.0.0.1", rt.port) as client:
            assert client._request("GET", "/v1/jobs/job-1").status == 404
            assert client._request("GET", "/v1/jobs/r9.job-1").status == 404

    def test_draining_replica_is_routed_around(self):
        with ServerThread() as s0, ServerThread() as s1, \
                RouterThread([s0.port, s1.port]) as rt, \
                ServeClient("127.0.0.1", rt.port) as client:
            # Flip replica 0 into drain state without closing its
            # listener: healthz answers 503 draining, align sheds.
            s0.server.draining = True
            families = [tuple(mutated_family(10, seed=70 + i))
                        for i in range(4)]
            resp = client.align(requests=[
                {"seqs": list(f)} for f in families
            ])
            assert resp.status == 200
            assert resp.body["count"] == 4
            health = client.healthz()
            states = {r["name"]: r for r in health.body["replicas"]}
            assert states["r1"]["routable"]

    def test_bad_request_rejected_at_the_router(self):
        with ServerThread() as srv, \
                RouterThread([srv.port]) as rt, \
                ServeClient("127.0.0.1", rt.port) as client:
            resp = client._request("POST", "/v1/align", {"seqs": ["A", "C"]})
            assert resp.status == 400
            assert resp.body["error"]["type"] == "bad_request"
            mixed = {"seqs": ["ACGTACGT", "ACGTACGA", "MKVLWQ"]}
            resp = client._request("POST", "/v1/align", mixed)
            assert resp.status == 400
            assert "mixed alphabets" in resp.body["error"]["message"]
            assert srv.server.batcher.requests_served == 0

    def test_all_replicas_dead_is_a_typed_503(self):
        # Grab a port nothing listens on.
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        dead_port = sock.getsockname()[1]
        sock.close()
        with RouterThread([dead_port]) as rt, \
                ServeClient("127.0.0.1", rt.port) as client:
            resp = client.align(seqs=list(TRIPLE))
            assert resp.status == 503
            assert resp.body["error"]["type"] == "no_replicas"
            health = client.healthz()
            assert health.status == 503
            assert health.body["status"] == "no_replicas"
