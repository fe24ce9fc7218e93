"""Content-addressed alignment result store with two tiers.

**Memory tier** — a bounded LRU dict of encoded results. Every ``get``
moves the entry to the young end; inserting past ``max_entries`` evicts
the oldest. Entries are stored *encoded* (plain JSON-able dicts), so a
cached result can never be corrupted by a caller mutating the
:class:`~repro.core.types.Alignment3` it was handed — each hit decodes a
fresh object.

**Disk tier** (optional) — an append-only JSONL file ``results.jsonl``
under ``cache_dir``, one ``{"key": ..., "alignment": ...}`` object per
line. On open the file is scanned once to build a key→offset index
(last write wins, so re-puts supersede); a disk hit seeks to the offset,
decodes, and promotes the entry into the memory tier. Append-only JSONL
makes concurrent writers safe at line granularity (the same property
:mod:`repro.obs.trace` relies on) and survives truncated final lines
from a killed process.

Round-trip fidelity
-------------------
``encode_alignment``/``decode_alignment`` preserve rows and score
bit-identically (JSON serialises floats via ``repr``, which Python
round-trips exactly) and meta up to JSON canonicalisation — tuples
become lists, numpy scalars become Python numbers, and non-finite
floats become the string sentinels ``"NaN"``/``"Infinity"``/
``"-Infinity"`` so the emitted JSON stays *strict* (RFC 8259 has no
NaN/Infinity literals; ``json.dumps`` would otherwise emit extensions
many parsers reject). A non-finite *score* round-trips exactly because
``decode_alignment`` passes the sentinel through ``float()``
(:func:`jsonable`). Comparisons should therefore go through
:func:`repro.cache.key.comparable_meta`, which applies the same
canonicalisation to both sides and strips timing fields.
"""

from __future__ import annotations

import json
import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.types import Alignment3
from repro.obs import hooks as _obs


def jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into plain JSON-able Python objects.

    Tuples become lists, numpy scalars/arrays become numbers/nested
    lists, non-finite floats become the strict-JSON string sentinels
    ``"NaN"``/``"Infinity"``/``"-Infinity"``; anything JSON cannot carry
    falls back to ``repr`` (provenance meta is free-form, and a
    lossy-but-stable rendering beats a failed put).
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return jsonable(value.item())
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def encode_alignment(aln: Alignment3) -> dict:
    """Encode an alignment as a JSON-able dict (inverse of decode)."""
    return {
        "rows": list(aln.rows),
        # jsonable() turns a non-finite score into its string sentinel;
        # decode's float() parses the sentinel back exactly.
        "score": jsonable(float(aln.score)),
        "meta": jsonable(aln.meta),
    }


def decode_alignment(payload: dict, key: str | None = None) -> Alignment3:
    """Rebuild an :class:`Alignment3` from :func:`encode_alignment` output.

    ``key`` (when known) is included in validation errors so a corrupted
    disk entry can be traced back to its cache line.
    """
    rows = tuple(payload["rows"])
    where = "" if key is None else f" (cache key {key!r})"
    if len(rows) != 3:
        raise ValueError(
            f"cache payload has {len(rows)} rows, expected 3{where}"
        )
    for r, row in enumerate(rows):
        if not isinstance(row, str):
            raise ValueError(
                f"cache payload row {r} is {type(row).__name__}, "
                f"expected str{where}"
            )
    return Alignment3(
        rows=rows,  # type: ignore[arg-type]
        score=float(payload["score"]),
        meta=dict(payload.get("meta", {})),
    )


@dataclass
class CacheStats:
    """Counters accumulated over a cache's lifetime."""

    memory_hits: int = 0
    disk_hits: int = 0
    remote_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits + self.remote_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "remote_hits": self.remote_hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """Two-tier content-addressed store of alignment results.

    Parameters
    ----------
    max_entries:
        Memory-tier capacity; the least recently used entry is evicted
        when a put exceeds it. Must be >= 1.
    cache_dir:
        Optional directory for the persistent JSONL tier (created if
        missing). When None the cache is memory-only.
    remote:
        Optional :class:`repro.cache.remote.RemoteCacheClient` (or any
        object with ``get_payload``/``put_payload``): a *shared* third
        tier queried after a local miss and populated on every put, so
        replicas of the serve tier see each other's results. Remote IO
        is best-effort and happens outside the lock — a dead cache
        service degrades to local-only serving, never an error.

    Thread-safe: a single lock guards the local tiers — every operation
    is a dict move plus at most one line of file IO, so contention is
    negligible next to an O(n^3) miss.
    """

    _DISK_FILE = "results.jsonl"

    def __init__(
        self,
        max_entries: int = 1024,
        cache_dir: Any = None,
        *,
        remote: Any = None,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self.cache_dir = None if cache_dir is None else os.fspath(cache_dir)
        self.remote = remote
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, dict] = OrderedDict()
        self._disk_index: dict[str, int] = {}
        self._disk_path: str | None = None
        self._repair_newline = False
        if self.cache_dir is not None:
            os.makedirs(self.cache_dir, exist_ok=True)
            self._disk_path = os.path.join(self.cache_dir, self._DISK_FILE)
            self._load_disk_index()

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------

    def _load_disk_index(self) -> None:
        assert self._disk_path is not None
        if not os.path.exists(self._disk_path):
            return
        offset = 0
        with open(self._disk_path, "rb") as fh:
            for line in fh:
                if line.endswith(b"\n"):
                    try:
                        rec = json.loads(line)
                        self._disk_index[rec["key"]] = offset
                    except (json.JSONDecodeError, KeyError, TypeError):
                        pass  # foreign or truncated line; skip it
                else:
                    # A writer died mid-append. The torn fragment itself
                    # is unrecoverable, but the next append must not glue
                    # onto it — that would corrupt a *good* record too.
                    self._repair_newline = True
                offset += len(line)

    def _disk_get(self, key: str) -> dict | None:
        if self._disk_path is None:
            return None
        offset = self._disk_index.get(key)
        if offset is None:
            return None
        try:
            with open(self._disk_path, "rb") as fh:
                fh.seek(offset)
                rec = json.loads(fh.readline())
            # With concurrent writers the fstat-then-write in _disk_put
            # can record a stale offset (another process appended in
            # between). The line there is still a whole valid record —
            # just someone else's — so verify before trusting it.
            if rec.get("key") != key:
                return None
            return rec["alignment"]
        except (OSError, json.JSONDecodeError, KeyError):
            return None

    def _disk_put(self, key: str, payload: dict) -> None:
        if self._disk_path is None:
            return
        # allow_nan=False guards the strictness contract: jsonable()
        # should have sentinel-ised every non-finite float, and a miss
        # fails loudly here instead of writing non-strict JSON to disk.
        line = json.dumps(
            {"key": key, "alignment": payload},
            separators=(",", ":"),
            allow_nan=False,
        )
        data = (line + "\n").encode()
        # O_APPEND keeps concurrent writers line-atomic; the recorded
        # offset is only valid for this process's view, which is fine —
        # other processes build their own index on open.
        skew = 0
        if self._repair_newline:
            # Terminate the torn final line left by a killed writer so
            # this record starts on a fresh line. Done lazily on first
            # append (not on open) so read-only opens never write.
            data = b"\n" + data
            skew = 1
            self._repair_newline = False
        fd = os.open(
            self._disk_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            offset = os.fstat(fd).st_size + skew
            os.write(fd, data)
        finally:
            os.close(fd)
        self._disk_index[key] = offset

    # ------------------------------------------------------------------
    # Local tiers (memory, then disk), shared by both APIs
    # ------------------------------------------------------------------

    def _local_get(self, key: str, record: bool) -> dict | None:
        """The payload for ``key`` from memory, then disk (promoted to
        memory), or None. Counts a hit when ``record``; a miss is the
        caller's to count, after any tier it probes next."""
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
                if record:
                    self.stats.memory_hits += 1
                    _obs.record_cache("memory_hit")
                return payload
            payload = self._disk_get(key)
            if payload is not None:
                self._insert_memory(key, payload)
                if record:
                    self.stats.disk_hits += 1
                    _obs.record_cache("disk_hit")
            return payload

    def _count_miss(self, record: bool) -> None:
        if record:
            with self._lock:
                self.stats.misses += 1
            _obs.record_cache("miss")

    def _local_put(self, key: str, payload: dict) -> None:
        with self._lock:
            self._insert_memory(key, payload)
            self._disk_put(key, payload)
            self.stats.puts += 1

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        return key in self._memory or key in self._disk_index

    def get(self, key: str, *, record: bool = True) -> Alignment3 | None:
        """The cached alignment for ``key``, or None. Decodes fresh.

        Probes memory, then disk, then (outside the lock) the remote
        tier; a remote hit is promoted into the memory tier so repeats
        stay local. ``record=False`` skips the hit/miss accounting —
        used for secondary-key probes (permutation lookups) that would
        otherwise double-count a single logical request.
        """
        payload = self._local_get(key, record)
        if payload is not None:
            return decode_alignment(payload, key=key)
        if self.remote is not None:
            payload = self._remote_get(key)
            if payload is not None:
                try:
                    aln = decode_alignment(payload, key=key)
                except (ValueError, KeyError, TypeError):
                    pass  # corrupt remote entry: treat as a miss
                else:
                    with self._lock:
                        self._insert_memory(key, payload)
                        if record:
                            self.stats.remote_hits += 1
                    if record:
                        _obs.record_cache("remote_hit")
                    return aln
        self._count_miss(record)
        return None

    def put(self, key: str, aln: Alignment3) -> None:
        """Store ``aln`` under ``key`` in every tier (remote best-effort)."""
        payload = encode_alignment(aln)
        self._local_put(key, payload)
        if self.remote is not None:
            self._remote_put(key, payload)

    def _remote_get(self, key: str) -> dict | None:
        try:
            return self.remote.get_payload(key)
        except Exception:  # noqa: BLE001 — remote tier is best-effort
            return None

    def _remote_put(self, key: str, payload: dict) -> None:
        try:
            self.remote.put_payload(key, payload)
        except Exception:  # noqa: BLE001 — remote tier is best-effort
            pass

    # -- payload-level API (the cache *service* side) -------------------

    def get_payload(self, key: str, *, record: bool = True) -> dict | None:
        """The raw encoded payload for ``key`` from the local tiers only
        (the cache service is itself the remote tier, so it must never
        recurse into one)."""
        payload = self._local_get(key, record)
        if payload is None:
            self._count_miss(record)
        return payload

    def put_payload(self, key: str, payload: dict) -> None:
        """Store an already-encoded payload in the local tiers.

        Validates by decoding first, so a corrupt or foreign payload is
        rejected (``ValueError``) instead of poisoning the store.
        """
        decode_alignment(payload, key=key)
        self._local_put(key, payload)

    def _insert_memory(self, key: str, payload: dict) -> None:
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1
            _obs.record_cache("eviction")

    def clear_memory(self) -> None:
        """Drop the memory tier (the disk tier, if any, is untouched)."""
        with self._lock:
            self._memory.clear()
