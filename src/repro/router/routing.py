"""Key derivation and scatter planning for the router.

The router spreads requests over replicas by a consistent hash of
:func:`routing_keys`, a digest of what decides a request's answer up to
row order and engine: the sequences in canonical (sorted) order, the
resolved scheme, the mode and the anchor chain, and no method. Every
request a replica could serve from another's result therefore lands on
the same replica: ``auto`` next to the engine it resolves to (the
scheduler's exact-class dedup and cache sharing), and every row order
of one triple (its permutation reuse). The key is only an affinity
hint — results are content-addressed either way — so it needs none of
the scheduler's method resolution.

:func:`plan_scatter` splits a multi-request ``POST /v1/align`` body by
ring owner: each group keeps the original item dicts (so caller ids
and per-item options survive verbatim) plus the positions they came
from, letting the merge step reassemble responses in request order no
matter which replica answered which slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.batch.scheduler import AlignmentRequest
from repro.cache import request_key
from repro.cache.key import canonical_order
from repro.core.api import resolve_scheme
from repro.router.ring import HashRing
from repro.serve import protocol

#: The method component of every routing key: routing ignores methods.
_ANY_METHOD = "*"


def routing_keys(requests: list[AlignmentRequest]) -> list[str]:
    """The ring key of each normalised request: one key for every
    method and every row order of a triple."""
    keys = []
    for req in requests:
        canonical, perm = canonical_order(req.seqs)
        # Anchor coordinates follow their sequences into canonical order.
        chain = sorted(
            (c[perm[0]], c[perm[1]], c[perm[2]], c[3])
            for c in req.constraints or ()
        )
        keys.append(
            request_key(
                canonical,
                resolve_scheme(req.seqs, req.scheme),
                req.mode,
                _ANY_METHOD,
                constraints=chain,
            )
        )
    return keys


def parse_items(obj: Any) -> list[dict]:
    """The raw item dicts of one ``POST /v1/align`` body, in order
    (single-object bodies become a one-item list). Framing errors raise
    :class:`protocol.BadRequest`; per-item validation is left to
    ``parse_align_payload``, which the router runs first."""
    if not isinstance(obj, dict):
        raise protocol.BadRequest(
            f"body must be a JSON object, got {type(obj).__name__}"
        )
    if "requests" in obj:
        items = obj["requests"]
        if not isinstance(items, list) or not items:
            raise protocol.BadRequest("'requests' must be a non-empty list")
        return items
    return [obj]


@dataclass
class ScatterGroup:
    """One replica's slice of a scattered body."""

    owner: str
    key: str  # routing key of the group's first request
    indices: list[int] = field(default_factory=list)
    items: list[dict] = field(default_factory=list)

    def body(self, *, deadline_s: float) -> dict:
        return {"requests": self.items, "deadline_s": deadline_s}


def plan_scatter(
    ring: HashRing,
    items: list[dict],
    keys: list[str],
    *,
    routable: set[str],
) -> list[ScatterGroup]:
    """Group ``items`` by ring owner, in first-touch order.

    Owners are chosen from each key's preference list restricted to
    ``routable`` members; when none of a key's preferences are
    routable the *nominal* owner is used (the forward path will then
    fail fast and report 503). An empty ring raises ``LookupError``.
    """
    if len(items) != len(keys):
        raise ValueError(
            f"{len(items)} items vs {len(keys)} keys"
        )
    groups: dict[str, ScatterGroup] = {}
    order: list[str] = []
    for i, (item, key) in enumerate(zip(items, keys)):
        owner = None
        for member in ring.preference(key):
            if member in routable:
                owner = member
                break
        if owner is None:
            owner = ring.owner(key)
        group = groups.get(owner)
        if group is None:
            group = groups[owner] = ScatterGroup(owner=owner, key=key)
            order.append(owner)
        group.indices.append(i)
        group.items.append(item)
    return [groups[name] for name in order]
