"""Per-layer spans for the traced run, recorded from outside the program.

:func:`install` wraps the public functions of each layer (by module
attribute, so callers that imported a function by name are rewired too)
with a recorder that keeps one tuple per call in memory::

    (name, t0, t1, sid, parent_sid, thread_id, info)

``parent_sid`` comes from a context variable, so nesting follows the
caller across ``await`` and asyncio tasks; threads and processes start
without a parent. Times are ``time.perf_counter()`` readings, which on
Linux all processes share, so spans from the router, the replica and the
load generator can be compared. :meth:`SpanLog.dump` writes the spans
out when the process shuts down; :func:`layer_metrics` turns the files
of one run into the per-layer metrics.

Nothing under ``src/`` is modified: the wrappers are installed in the
process that runs the layer, before the layer is constructed.
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class SpanLog:
    """In-memory span store of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        #: Admission timestamps of requests waiting in the micro-batcher,
        #: keyed by ``id(request)``.
        self.admitted: dict[int, float] = {}

    def wrap(self, fn, name, info=None, pre=None):
        """``fn`` wrapped in a span; ``info(args, kwargs, result)`` adds a
        JSON-able detail to the record, ``pre(args, kwargs, t0)`` runs
        first (synchronous functions only)."""
        spans, ids = self.spans, self._ids

        def finish(t0, sid, parent, a, k, out):
            t1 = time.perf_counter()
            detail = None
            if info is not None and out is not None:
                detail = info(a, k, out)
            spans.append(
                (name, t0, t1, sid, parent, threading.get_ident(), detail)
            )

        if inspect.iscoroutinefunction(fn):

            async def awrapper(*a, **k):
                sid, parent = next(ids), _current.get()
                token = _current.set(sid)
                t0 = time.perf_counter()
                out = None
                try:
                    out = await fn(*a, **k)
                    return out
                finally:
                    _current.reset(token)
                    finish(t0, sid, parent, a, k, out)

            return awrapper

        def wrapper(*a, **k):
            sid, parent = next(ids), _current.get()
            token = _current.set(sid)
            t0 = time.perf_counter()
            if pre is not None:
                pre(a, k, t0)
            out = None
            try:
                out = fn(*a, **k)
                return out
            finally:
                _current.reset(token)
                finish(t0, sid, parent, a, k, out)

        return wrapper

    def dump(self, path, role: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "role": role,
                       "spans": self.spans}, fh)


def _patch_function(log, module, attr, name, info=None, pre=None):
    orig = getattr(importlib.import_module(module), attr)
    wrapped = log.wrap(orig, name, info, pre)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "") or "").startswith("repro") and \
                getattr(mod, attr, None) is orig:
            setattr(mod, attr, wrapped)


def _patch_method(log, module, cls, attr, name, info=None, pre=None,
                  owner=None):
    target = getattr(importlib.import_module(module), cls)
    orig = getattr(owner or target, attr)
    setattr(target, attr, log.wrap(orig, name, info, pre))


def _path(a, k, out):
    return a[1].path


def _cells3(a, k, out):
    n1, n2, n3 = (len(s) for s in a[1:4])
    return (n1 + 1) * (n2 + 1) * (n3 + 1)


def _align3_info(a, k, out):
    meta = out.meta
    return {
        "engine": meta.get("engine"),
        "degraded": "degraded_from" in meta,
        "anchor": bool(meta.get("anchor")),
    }


def _batch_info(a, k, out):
    return out.stats.snapshot()


def _worker_sink(path):
    """A replacement for ``repro.obs.hooks.record_worker`` that appends
    each worker's busy/wait summary to ``path`` (pool workers are forked
    and die with the pool, so they cannot keep records in memory)."""
    from repro.obs import hooks

    orig = hooks.record_worker
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def record_worker(engine, worker_id, busy_s, wait_s, cells, planes):
        line = json.dumps({"engine": engine, "pid": os.getpid(),
                           "t": time.perf_counter(), "busy": busy_s,
                           "wait": wait_s, "cells": cells})
        os.write(fd, (line + "\n").encode())
        orig(engine, worker_id, busy_s, wait_s, cells, planes)

    hooks.record_worker = record_worker


def install(role: str, workers_path: str | None = None) -> SpanLog:
    """Wrap every layer this process runs; returns the span store."""
    for module in (
        "repro", "repro.core.api", "repro.core.wavefront",
        "repro.core.traceback", "repro.core.bounds", "repro.core.band",
        "repro.core.hirschberg", "repro.core.rolling", "repro.core.affine",
        "repro.core.local", "repro.core.semiglobal",
        "repro.resilience.degrade", "repro.cache.store",
        "repro.batch.scheduler", "repro.parallel.executor",
        "repro.anchor.discover", "repro.anchor.solve",
    ):
        importlib.import_module(module)
    log = SpanLog()
    admitted = log.admitted
    if role == "router":
        from repro.serve.httpd import JsonHttpServer

        importlib.import_module("repro.router.app")
        _patch_method(log, "repro.router.app", "RouterServer", "_respond",
                      "router.respond", _path, owner=JsonHttpServer)
        _patch_function(
            log, "repro.router.backend", "exchange", "router.upstream",
            lambda a, k, out: a[3],
        )
        _patch_function(log, "repro.serve.protocol", "render_response",
                        "router.encode")
        return log
    if role == "replica":
        from repro.serve.httpd import JsonHttpServer

        importlib.import_module("repro.serve.app")
        _patch_method(log, "repro.serve.app", "AlignServer", "_respond",
                      "serve.respond", _path, owner=JsonHttpServer)
        _patch_method(log, "repro.serve.protocol", "HttpRequest", "json",
                      "serve.parse")
        _patch_function(log, "repro.serve.app", "parse_align_payload",
                        "serve.parse")
        _patch_function(log, "repro.serve.app", "result_payload",
                        "serve.encode")
        _patch_function(log, "repro.serve.protocol", "render_response",
                        "serve.encode")

        def on_submit(a, k, t0):
            for req in a[1]:
                admitted[id(req)] = t0

        _patch_method(log, "repro.serve.batcher", "MicroBatcher", "submit",
                      "serve.submit", pre=on_submit)

    def on_run(a, k, t0):
        waits = [t0 - admitted.pop(id(r)) for r in a[1]
                 if id(r) in admitted]
        if waits:
            log.spans.append(("serve.queue_wait", t0, t0, 0, None, 0, waits))

    _patch_method(log, "repro.batch.scheduler", "BatchScheduler", "run",
                  "batch.run", _batch_info, pre=on_run)
    _patch_method(log, "repro.batch.scheduler", "BatchScheduler",
                  "_resolve", "batch.resolve")
    _patch_function(log, "repro.core.api", "resolve_scheme",
                    "batch.resolve")
    _patch_method(log, "repro.cache.store", "ResultCache", "get",
                  "cache.get", lambda a, k, out: True)
    _patch_method(log, "repro.cache.store", "ResultCache", "put",
                  "cache.put")
    _patch_function(log, "repro.core.api", "select_method", "api.select",
                    lambda a, k, out: out[0])
    _patch_function(log, "repro.core.api", "align3", "api.align3",
                    _align3_info)
    _patch_function(log, "repro.resilience.degrade", "plan_method",
                    "degrade.plan", lambda a, k, out: bool(out.degraded))
    _patch_function(log, "repro.core.wavefront", "wavefront_sweep",
                    "wavefront.sweep", lambda a, k, out: out.cells_computed)
    _patch_function(log, "repro.core.traceback", "traceback_moves",
                    "traceback")
    _patch_function(log, "repro.core.bounds", "carrillo_lipman_tube",
                    "bounds.tube", lambda a, k, out: out[1].kept_fraction)
    _patch_function(log, "repro.core.band", "align3_banded", "band")
    _patch_function(log, "repro.core.hirschberg", "align3_hirschberg",
                    "hirschberg")
    _patch_function(log, "repro.core.affine", "align3_affine", "affine")
    _patch_function(log, "repro.core.local", "align3_local", "local")
    _patch_function(log, "repro.core.semiglobal", "align3_semiglobal",
                    "semiglobal")
    _patch_method(log, "repro.parallel.executor", "WavefrontPool",
                  "__init__", "pool.setup")
    _patch_method(log, "repro.parallel.executor", "WavefrontPool", "align3",
                  "pool.job", _cells3)
    _patch_function(log, "repro.anchor.discover", "discover_anchors",
                    "anchor.discover")
    _patch_function(
        log, "repro.anchor.solve", "align3_chain", "anchor.solve",
        lambda a, k, out: [out.meta["anchor"].get("segments", 0),
                           out.meta["anchor"]["coverage"]],
    )
    if workers_path is not None:
        _worker_sink(workers_path)
    return log


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile (``q`` in (0, 1]): the smallest value with
    at least ``q`` of the samples at or below it; 0.0 for no samples."""
    if not values:
        return 0.0
    vals = sorted(values)
    return vals[max(0, math.ceil(q * len(vals)) - 1)]


def _union(intervals):
    total, end = 0.0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def load(paths):
    """Span files -> list of (role, spans) with the spans as tuples."""
    out = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            data = json.load(fh)
        out.append((data["role"], [tuple(s) for s in data["spans"]]))
    return out


def self_times(spans):
    """{sid: self seconds}: a span's duration minus what its children
    cover."""
    kids: dict[int, list] = {}
    for s in spans:
        if s[4] is not None:
            kids.setdefault(s[4], []).append((s[1], s[2]))
    return {
        s[3]: (s[2] - s[1]) - _union(
            [(max(a, s[1]), min(b, s[2])) for a, b in kids.get(s[3], [])
             if min(b, s[2]) > max(a, s[1])]
        )
        for s in spans
    }


#: Engines ``api.engine_share.*`` reports.
ENGINES = ("wavefront", "pruned", "banded", "hirschberg", "affine",
           "anchored", "local", "semiglobal", "pool")

#: Process roles ``proc.*.cpu_share`` reports.
ROLES = ("client", "router", "replica", "caller", "pool")


def layer_metrics(procs, window, *, e2e_seconds, extra):
    """Per-layer metrics of one traced run.

    ``procs`` is :func:`load` output, ``window`` the measured interval
    (spans starting outside it are set-up work and ignored),
    ``e2e_seconds`` the end-to-end time the spans must account for, and
    ``extra`` holds what was measured outside the span files (counter
    deltas, CPU shares, pool worker busy/wait, disk bytes).
    """
    lo, hi = window
    by: dict[str, list] = {}
    selfs: dict[str, float] = {}
    for _role, spans in procs:
        st = self_times(spans)
        index = {s[3]: s for s in spans}
        for s in spans:
            if not lo <= s[1] <= hi:
                continue
            parent = index.get(s[4], (None,) * 7)
            by.setdefault(s[0], []).append(s + (parent[0], parent[6]))
            selfs[s[0]] = selfs.get(s[0], 0.0) + st[s[3]]

    def durs(name, scale=1.0):
        return [(s[2] - s[1]) * scale for s in by.get(name, [])]

    def busy(name):
        return sum(durs(name))

    def per_post(name):
        """Per-request sums (ms) of the named replica spans that ran
        inside a ``POST /v1/align`` response."""
        acc: dict[int, float] = {}
        for s in by.get(name, []):
            if s[7] == "serve.respond" and s[8] == "/v1/align":
                acc[s[4]] = acc.get(s[4], 0.0) + s[2] - s[1]
        return [v * 1e3 for v in acc.values()]

    m: dict[str, float] = {}
    # router
    respond = [s for s in by.get("router.respond", [])
               if s[6] == "/v1/align"]
    upstream = [s for s in by.get("router.upstream", [])
                if s[6] == "/v1/align"]
    up_by_parent: dict[int, list] = {}
    for s in upstream:
        up_by_parent.setdefault(s[4], []).append((s[1], s[2]))
    m["router.self_ms_p50"] = percentile(
        [((s[2] - s[1]) - _union(up_by_parent.get(s[3], []))) * 1e3
         for s in respond], 0.5)
    m["router.upstream_ms_p50"] = percentile(
        [(s[2] - s[1]) * 1e3 for s in upstream], 0.5)
    m["router.retries"] = extra.get("router_retries", 0)
    # serve
    m["serve.parse_ms_p50"] = percentile(per_post("serve.parse"), 0.5)
    m["serve.encode_ms_p50"] = percentile(per_post("serve.encode"), 0.5)
    waits = [w * 1e3 for s in by.get("serve.queue_wait", []) for w in s[6]]
    m["serve.queue_wait_ms_p50"] = percentile(waits, 0.5)
    m["serve.queue_wait_ms_p99"] = percentile(waits, 0.99)
    m["serve.flush_age_share"] = extra.get("flush_age_share", 0.0)
    runs = by.get("batch.run", [])
    stats = [s[6] for s in runs if s[6]]
    n_req = sum(st["requests"] for st in stats)
    m["serve.batch_triples_mean"] = (
        n_req / len(stats) if stats and "serve.submit" in by else 0.0)
    m["serve.shed_ratio"] = extra.get("shed_ratio", 0.0)
    # batch
    m["batch.self_ms_per_req"] = (
        selfs.get("batch.run", 0.0) * 1e3 / n_req if n_req else 0.0)
    resolve = sum(s[2] - s[1] for s in by.get("batch.resolve", [])
                  if s[7] == "batch.run")
    m["batch.resolve_ms_per_req"] = resolve * 1e3 / n_req if n_req else 0.0
    computed = sum(st["computed"] for st in stats)
    m["batch.dedup_ratio"] = (n_req - computed) / n_req if n_req else 0.0
    m["batch.permutation_hits"] = sum(st["permutation_hits"]
                                      for st in stats)
    m["batch.computed"] = computed
    m["batch.pool_jobs"] = sum(st["pool_jobs"] for st in stats)
    m["batch.direct_jobs"] = computed - m["batch.pool_jobs"]
    # cache
    gets = by.get("cache.get", [])
    m["cache.get_us_p50"] = percentile(durs("cache.get", 1e6), 0.5)
    m["cache.put_us_p50"] = percentile(durs("cache.put", 1e6), 0.5)
    m["cache.hit_ratio"] = (
        sum(1 for s in gets if s[6]) / len(gets) if gets else 0.0)
    m["cache.disk_bytes_written"] = extra.get("disk_bytes", 0)
    # api / degrade: one engine per alignment a caller asked for
    m["api.select_us_p50"] = percentile(durs("api.select", 1e6), 0.5)
    engines = []
    for s in by.get("api.align3", []):
        if s[7] not in ("api.align3", "anchor.solve") and s[6]:
            engines.append("anchored" if s[6]["anchor"] else s[6]["engine"])
    for name in ("pool.job", "local", "semiglobal"):
        engines += [name.split(".")[0]] * len(by.get(name, []))
    for e in ENGINES:
        m[f"api.engine_share.{e}"] = (
            engines.count(e) / len(engines) if engines else 0.0)
    m["api.degraded"] = sum(1 for s in by.get("degrade.plan", []) if s[6])
    # wavefront / traceback
    m["wavefront.busy_s"] = busy("wavefront.sweep")
    cells = sum(s[6] or 0 for s in by.get("wavefront.sweep", []))
    m["wavefront.cells_per_s"] = (
        cells / m["wavefront.busy_s"] if m["wavefront.busy_s"] else 0.0)
    m["traceback.busy_s"] = busy("traceback")
    # bounds / band / hirschberg / modes
    m["bounds.tube_ms_p50"] = percentile(durs("bounds.tube", 1e3), 0.5)
    kept = [s[6] for s in by.get("bounds.tube", []) if s[6] is not None]
    m["bounds.kept_fraction"] = sum(kept) / len(kept) if kept else 0.0
    for name in ("band", "hirschberg", "affine", "local", "semiglobal"):
        m[f"{name}.busy_s"] = busy(name)
    # pool: its start-up is set-up work, before the window
    m["pool.setup_s"] = sum(s[2] - s[1] for _role, spans in procs
                            for s in spans if s[0] == "pool.setup")
    m["pool.job_ms_p50"] = percentile(durs("pool.job", 1e3), 0.5)
    pool_s = busy("pool.job")
    m["pool.cells_per_s"] = (
        sum(s[6] for s in by.get("pool.job", [])) / pool_s if pool_s
        else 0.0)
    m["pool.wait_share"] = extra.get("pool_wait_share", 0.0)
    # anchor
    m["anchor.discover_ms_p50"] = percentile(durs("anchor.discover", 1e3), 0.5)
    m["anchor.solve_ms_p50"] = percentile(durs("anchor.solve", 1e3), 0.5)
    chains = [s[6] for s in by.get("anchor.solve", []) if s[6]]
    m["anchor.segments_mean"] = (
        sum(c[0] for c in chains) / len(chains) if chains else 0.0)
    m["anchor.coverage_mean"] = (
        sum(c[1] for c in chains) / len(chains) if chains else 0.0)
    for role in ROLES:
        m[f"proc.{role}.cpu_share"] = extra.get("cpu", {}).get(role, 0.0)
    # End-to-end time no layer span covers: for serve_small the client
    # side of each POST and the router->replica transport; for the
    # in-process callers the loop between calls.
    if respond:
        served = sum(s[2] - s[1] for s in by.get("serve.respond", [])
                     if s[6] == "/v1/align")
        covered = (sum(s[2] - s[1] for s in respond)
                   - sum(s[2] - s[1] for s in upstream) + served)
    else:
        covered = sum(s[2] - s[1] for name in ("batch.run", "api.align3")
                      for s in by.get(name, []) if s[4] is None)
    m["trace.unattributed_share"] = (
        max(0.0, e2e_seconds - covered) / e2e_seconds if e2e_seconds
        else 0.0)
    return m, by, selfs
