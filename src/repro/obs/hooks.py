"""Engine-facing instrumentation hooks.

The engines call these thin helpers instead of talking to the tracer and
the registry separately, which keeps record/metric names consistent across
``dp3d``, ``wavefront``, the pool executor (and ``blocks``, a one-job
pool) and the cluster simulator (and therefore keeps ``repro report`` engine-
agnostic).

Usage pattern inside an engine::

    observing = hooks.active()          # one flag read per sweep
    if observing:
        plane_cells, plane_durs = [], []
    for d in planes:
        t0 = time.perf_counter() if observing else 0.0
        n = compute_plane_rows(...)
        if observing:
            plane_cells.append(n)
            plane_durs.append(time.perf_counter() - t0)
    if observing:
        hooks.record_planes("wavefront", plane_cells, plane_durs)

When both tracing and metrics are off, :func:`active` is False and the hot
loop pays only the boolean check.
"""

from __future__ import annotations

from repro.obs import metrics, trace


def active() -> bool:
    """True when either tracing or metrics collection is enabled."""
    return trace.enabled or metrics.enabled


def record_planes(
    engine: str, cells: list[int], durs: list[float]
) -> None:
    """Per-plane cell counts and durations for one sweep, batched into a
    single trace record plus plane-width histogram samples. Batching keeps
    the engines' in-loop cost to two list appends per plane."""
    if trace.enabled:
        trace.planes(engine, cells, durs)
    if metrics.enabled:
        hist = metrics.registry().histogram("plane_cells")
        for c in cells:
            hist.observe(c)


def record_sweep(
    engine: str,
    *,
    cells: int,
    seconds: float,
    peak_plane_bytes: int = 0,
    move_cube_bytes: int = 0,
) -> None:
    """One completed sweep: throughput and peak buffer accounting."""
    if trace.enabled:
        trace.sweep(
            engine,
            cells,
            seconds,
            peak_plane_bytes=peak_plane_bytes,
            move_cube_bytes=move_cube_bytes,
        )
    if metrics.enabled:
        reg = metrics.registry()
        reg.counter("cells_computed").inc(cells)
        reg.counter("sweeps").inc()
        if seconds > 0:
            reg.gauge("cells_per_s").set(cells / seconds)
        reg.gauge("peak_plane_bytes").max_update(peak_plane_bytes)
        reg.gauge("move_cube_bytes").max_update(move_cube_bytes)


def record_worker(
    engine: str,
    worker_id: int,
    busy_s: float,
    wait_s: float,
    cells: int,
    planes: int,
) -> None:
    """One worker's busy-vs-barrier-wait summary for a sweep."""
    if trace.enabled:
        trace.worker(engine, worker_id, busy_s, wait_s, cells, planes)
    if metrics.enabled:
        reg = metrics.registry()
        reg.counter("worker_busy_s").inc(busy_s)
        reg.counter("worker_wait_s").inc(wait_s)
        total = busy_s + wait_s
        if total > 0:
            reg.histogram(
                "worker_busy_ratio", metrics.RATIO_BUCKETS
            ).observe(busy_s / total)


def record_failure(
    engine: str, worker: int, plane: int | None, reason: str
) -> None:
    """One detected worker/rank failure (before any recovery attempt)."""
    if trace.enabled:
        trace.event(
            "worker_failure",
            engine=engine,
            worker=worker,
            plane=plane,
            reason=reason,
        )
    if metrics.enabled:
        metrics.registry().counter("worker_failures").inc()


def record_recovery(engine: str, worker: int, plane: int | None) -> None:
    """A worker respawn plus (when mid-sweep) a plane replay."""
    if trace.enabled:
        trace.event(
            "worker_respawn", engine=engine, worker=worker, plane=plane
        )
    if metrics.enabled:
        reg = metrics.registry()
        reg.counter("worker_respawns").inc()
        if plane is not None:
            reg.counter("planes_replayed").inc()


def record_degrade(
    requested: str, method: str, estimate: int, budget: int
) -> None:
    """A run transparently moved to a lower-memory engine."""
    if trace.enabled:
        trace.event(
            "degraded_run",
            requested=requested,
            method=method,
            estimate_bytes=estimate,
            budget_bytes=budget,
        )
    if metrics.enabled:
        metrics.registry().counter("degraded_runs").inc()


def record_pruning(
    engine: str,
    *,
    kept_fraction: float,
    lower_bound: float,
    upper_bound: float,
) -> None:
    """One Carrillo–Lipman-pruned run: how much of the cube survived and
    how tight the heuristic lower bound was (``upper_bound`` is the bound
    at the origin, an upper envelope of the optimum — the gap to
    ``lower_bound`` is what pruning has to work with)."""
    if trace.enabled:
        trace.event(
            "pruned_run",
            engine=engine,
            kept_fraction=kept_fraction,
            lower_bound=lower_bound,
            upper_bound=upper_bound,
        )
    if metrics.enabled:
        reg = metrics.registry()
        reg.counter("pruned_runs").inc()
        reg.histogram(
            "pruning_kept_fraction", metrics.RATIO_BUCKETS
        ).observe(kept_fraction)
        gap = upper_bound - lower_bound
        if gap >= 0:
            reg.gauge("pruning_bound_gap").set(gap)


def record_anchor(
    mode: str,
    *,
    anchors: int,
    coverage: float,
    segments: int,
    engines: dict[str, int],
) -> None:
    """One chain-decomposed run (``constrained`` or ``anchored``): how
    much of the alignment the chain pinned and which engines the
    sub-cubes landed on (``engines`` is the per-run histogram from
    ``meta["anchor"]["engines"]``; an anchored run that fell back counts
    its single full-cube engine here too)."""
    if trace.enabled:
        trace.event(
            "anchored_run",
            mode=mode,
            anchors=anchors,
            coverage=coverage,
            segments=segments,
            engines=engines,
        )
    if metrics.enabled:
        reg = metrics.registry()
        reg.counter("anchored_runs").inc()
        reg.histogram("anchor_count").observe(anchors)
        reg.gauge("anchor_chain_coverage").set(coverage)
        for engine, n in engines.items():
            reg.counter(f"anchor_subcube_{engine}").inc(n)


def record_cache(event: str) -> None:
    """One cache-tier event: ``memory_hit``/``disk_hit``/``miss``/
    ``eviction``. Counter-only — cache lookups are far too frequent for a
    trace record each."""
    if metrics.enabled:
        name = "cache_misses" if event == "miss" else f"cache_{event}s"
        metrics.registry().counter(name).inc()


def record_request(
    *, seconds: float, cache_hit: bool, deduped: bool
) -> None:
    """One batch request served: latency plus how it was satisfied."""
    if metrics.enabled:
        reg = metrics.registry()
        reg.histogram(
            "request_latency_s", metrics.LATENCY_BUCKETS
        ).observe(seconds)
        reg.counter("batch_requests").inc()
        if cache_hit:
            reg.counter("batch_cache_hits").inc()
        if deduped:
            reg.counter("batch_deduped").inc()


def record_batch(
    *,
    requests: int,
    cache_hits: int,
    deduped: int,
    computed: int,
    seconds: float,
) -> None:
    """One completed batch: dedup ratio and compute count."""
    if trace.enabled:
        trace.event(
            "batch",
            requests=requests,
            cache_hits=cache_hits,
            deduped=deduped,
            computed=computed,
            seconds=seconds,
        )
    if metrics.enabled:
        reg = metrics.registry()
        reg.counter("batches").inc()
        reg.counter("batch_computed").inc(computed)
        if requests > 0:
            reg.gauge("batch_dedup_ratio").set(
                (requests - computed) / requests
            )


def record_serve_request(*, route: str, status: int, seconds: float) -> None:
    """One HTTP exchange served: route-agnostic latency plus status
    classes the dashboards care about (shed, deadline-miss, failure)."""
    if metrics.enabled:
        reg = metrics.registry()
        reg.counter("serve_requests").inc()
        reg.counter(f"serve_status_{status}").inc()
        reg.histogram(
            "serve_latency_s", metrics.LATENCY_BUCKETS
        ).observe(seconds)
        if status == 429:
            reg.counter("serve_shed_responses").inc()
        elif status == 504:
            reg.counter("serve_deadline_misses").inc()
        elif status >= 500:
            reg.counter("serve_failures").inc()


def record_serve_queue(*, depth: int, inflight_cells: int) -> None:
    """Admission-controller state after a transition (gauges, plus peak
    high-watermarks so a scrape can't miss a burst)."""
    if metrics.enabled:
        reg = metrics.registry()
        reg.gauge("serve_queue_depth").set(depth)
        reg.gauge("serve_queue_depth_peak").max_update(depth)
        reg.gauge("serve_inflight_cells").set(inflight_cells)
        reg.gauge("serve_inflight_cells_peak").max_update(inflight_cells)


def record_serve_shed(reason: str) -> None:
    """One admission rejection, by resource (``queue_full``/``cells_full``)."""
    if trace.enabled:
        trace.event("serve_shed", reason=reason)
    if metrics.enabled:
        reg = metrics.registry()
        reg.counter("serve_shed").inc()
        reg.counter(f"serve_shed_{reason}").inc()


def record_serve_flush(*, reason: str, jobs: int, requests: int) -> None:
    """One micro-batch window closing (``size``/``age``/``drain``)."""
    if trace.enabled:
        trace.event(
            "serve_flush", reason=reason, jobs=jobs, requests=requests
        )
    if metrics.enabled:
        reg = metrics.registry()
        reg.counter("serve_flushes").inc()
        reg.counter(f"serve_flush_{reason}").inc()
        reg.histogram("serve_batch_requests").observe(requests)


def record_serve_batch_failure(kind: str) -> None:
    """A whole compute batch failed (e.g. WorkerFailure past recovery)."""
    if trace.enabled:
        trace.event("serve_batch_failure", kind=kind)
    if metrics.enabled:
        metrics.registry().counter("serve_batch_failures").inc()


def record_comm(
    rank: int,
    *,
    checksum_bad: int = 0,
    resends: int = 0,
    retries: int = 0,
) -> None:
    """Per-rank message-passing failure accounting (mpirun)."""
    if trace.enabled and (checksum_bad or resends or retries):
        trace.event(
            "comm_faults",
            rank=rank,
            checksum_bad=checksum_bad,
            resends=resends,
            retries=retries,
        )
    if metrics.enabled:
        reg = metrics.registry()
        if checksum_bad:
            reg.counter("comm_checksum_bad").inc(checksum_bad)
            reg.counter(f"comm_checksum_bad_rank{rank}").inc(checksum_bad)
        if resends:
            reg.counter("comm_resends").inc(resends)
        if retries:
            reg.counter("comm_retries").inc(retries)


def record_sim(
    *,
    procs: int,
    blocks: int,
    messages: int,
    comm_bytes: int,
    makespan: float,
    speedup: float,
    busy: list[float],
) -> None:
    """One simulated cluster execution, including per-proc busy/wait
    records so ``repro report`` renders simulated utilisation the same way
    it renders measured workers."""
    if trace.enabled:
        trace.sim(procs, blocks, messages, comm_bytes, makespan, speedup)
        for p, busy_s in enumerate(busy):
            trace.worker("sim", p, busy_s, max(0.0, makespan - busy_s), 0, 0)
    if metrics.enabled:
        reg = metrics.registry()
        reg.counter("sim_runs").inc()
        reg.counter("sim_messages").inc(messages)
        reg.counter("sim_comm_bytes").inc(comm_bytes)
        reg.gauge("sim_makespan_s").set(makespan)
        reg.gauge("sim_speedup").set(speedup)
