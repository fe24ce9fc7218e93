"""Consistent hashing of request keys over the replica set.

The router's affinity goal: a given request key should hit the same
replica every time (so that replica's memory LRU stays hot for it),
and adding/removing one replica should remap only ~1/N of the key
space (so a rolling restart does not flush every replica's working
set). A classic consistent-hash ring with virtual nodes gives both.

Each member contributes ``vnodes`` points placed by hashing
``"{member}#{k}"``; a key routes to the first point clockwise of its
own hash. The *preference list* for a key is the sequence of distinct
members encountered walking clockwise — the failover order the router
uses when the owner is ejected, which keeps retries deterministic and
spreads each replica's failover load across the others instead of
dogpiling one designated backup.

Keys here are already uniform sha256 hexdigests, but the ring hashes
them again anyway: member names are *not* uniform, and using one hash
for both sides keeps placement independent of key structure.
"""

from __future__ import annotations

import bisect
import hashlib

#: Virtual nodes per member. 64 keeps the max/min load spread under
#: ~1.3x for small fleets while ring rebuilds stay trivially cheap.
DEFAULT_VNODES = 64


def _point(value: str) -> int:
    """Ring coordinate of ``value``: the first 8 bytes of its sha256."""
    digest = hashlib.sha256(value.encode()).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent-hash ring mapping string keys to member names."""

    def __init__(self, members=(), *, vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        self._members: set[str] = set()
        self._points: list[int] = []
        self._owners: list[str] = []
        for member in members:
            self.add(member)

    @property
    def members(self) -> list[str]:
        return sorted(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    def add(self, member: str) -> None:
        if member in self._members:
            return
        self._members.add(member)
        self._rebuild()

    def remove(self, member: str) -> None:
        if member not in self._members:
            return
        self._members.discard(member)
        self._rebuild()

    def _rebuild(self) -> None:
        pairs = sorted(
            (_point(f"{member}#{k}"), member)
            for member in self._members
            for k in range(self.vnodes)
        )
        self._points = [p for p, _ in pairs]
        self._owners = [m for _, m in pairs]

    def owner(self, key: str) -> str:
        """The member owning ``key``. Raises on an empty ring."""
        if not self._members:
            raise LookupError("hash ring has no members")
        i = bisect.bisect_right(self._points, _point(key))
        return self._owners[i % len(self._owners)]

    def preference(self, key: str, n: int | None = None) -> list[str]:
        """The first ``n`` (default: all) distinct members clockwise of
        ``key`` — the owner first, then the failover order."""
        if not self._members:
            return []
        want = len(self._members) if n is None else min(n, len(self._members))
        out: list[str] = []
        start = bisect.bisect_right(self._points, _point(key))
        for step in range(len(self._owners)):
            member = self._owners[(start + step) % len(self._owners)]
            if member not in out:
                out.append(member)
                if len(out) == want:
                    break
        return out
