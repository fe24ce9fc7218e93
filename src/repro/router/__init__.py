"""Sharded front tier for the alignment service (``repro router``).

One :class:`~repro.router.app.RouterServer` sits in front of N
``repro serve`` replicas and makes them look like a single instance
with a bigger cache and no single point of compute failure:

:mod:`repro.router.ring`
    Consistent hashing of content-addressed request digests over the
    replica set, so a hot request always lands on the replica whose
    memory LRU already holds it and a membership change remaps only
    ~1/N of the key space.
:mod:`repro.router.health`
    Per-replica health: ``/healthz`` polling plus response outcomes
    drive a HEALTHY → EJECTED → HALF_OPEN state machine with a typed
    failure taxonomy, escalating eject cooldowns, and 429/Retry-After
    backpressure holdoffs.
:mod:`repro.router.backend`
    The async per-exchange replica client with typed transport errors.
:mod:`repro.router.routing`
    Key derivation (one key for every method and row order of a
    triple) and the scatter plan that splits a multi-request body by
    ring owner.
:mod:`repro.router.app`
    The server: scatter/merge forwarding, bounded failover along each
    key's preference list, job-id namespacing for async jobs, and the
    drain choreography for zero-failed-request rolling restarts.

See the topology section of ``docs/serving.md`` and the failover notes
in ``docs/robustness.md``.
"""

from repro.router.app import RouterConfig, RouterServer, run_router
from repro.router.health import ReplicaHealth
from repro.router.ring import HashRing

__all__ = [
    "HashRing",
    "ReplicaHealth",
    "RouterConfig",
    "RouterServer",
    "run_router",
]
