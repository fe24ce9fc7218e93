"""Counter-synchronised block streaming for the parallel executor.

A per-plane schedule pays one full barrier (every worker, one IPC
round-trip) per anti-diagonal plane — ``3n`` barriers per sweep, which
dominates once the kernel is fast. The block-tiled sweep replaces the
barrier with **per-worker readiness counters**: ``done[w]`` is the last
plane worker ``w`` has fully published. Workers own fixed row slabs
(:func:`repro.parallel.partition.row_slabs`), advance band-by-band
(:func:`~repro.parallel.partition.plane_bands`), and before computing a
band ``[s, e]`` wait on exactly two counters:

* ``done[w-1] >= e - 1`` — the slab below must have produced the
  boundary row (the kernel reads rows ``i-1`` and ``i`` only, so the
  cross-worker dependency is one-directional: downward);
* ``done[w+1] >= e - W + 3`` — writing plane ``d`` into a ``W``-deep
  rotating plane window destroys plane ``d - W``, which the slab above
  still reads while computing planes ``d-W+1 .. d-W+3`` (anti-clobber).

Counters are *published per plane* (one aligned 8-byte store, which
doubles as a progress heartbeat) but *waited on per band*, so the
planes inside a band stream with zero synchronisation. Publishing per
plane also lets a waiting neighbour release as soon as the producer is
one plane short of the band edge — sub-band pipelining for free.

Every cell is computed exactly once, by the same
:func:`~repro.core.wavefront.compute_plane_rows` call the serial engine
makes (same clipping, same tie-breaks, disjoint row writes), so scores
and rows are bit-identical to the sequential wavefront regardless of
the partition.

Recovery needs no extra protocol: a dead worker's counter freezes,
every neighbour just keeps waiting on it, and the dispatcher
(:class:`CounterSupervisor`) respawns a replacement resuming at
``done[w] + 1``. The window arithmetic guarantees planes
``resume-1 .. resume-3`` are still intact — the neighbours' own
progress was gated on the dead worker's frozen counter — so replay
needs no checkpoint and stays bit-identical. A worker that died while
idle is no special case: the job start resets its counter to ``-1``,
so it is found by the same scan and respawned at plane 0.

Every participant waits with the one loop here, :func:`wait_counter`,
and differs only in what a stall means to it: a worker checks that its
dispatcher is still there (:func:`exit_if_orphaned`), the supervising
dispatcher scans for casualties (:meth:`CounterSupervisor.wait_for`),
an unsupervised one just waits. :class:`SupervisionPolicy` holds the
timeouts and the respawn cap; :func:`reap` is the one way a process
is stopped.

:class:`repro.parallel.executor.WavefrontPool` drives
:func:`sweep_blocks` with shared-memory counters. Cross-process counter
visibility relies on aligned 8-byte stores issued after the plane
writes they cover.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.obs import hooks as _obs
from repro.core.wavefront import compute_plane_rows
from repro.resilience import faults as _faults
from repro.resilience.errors import FailureRecord, WorkerFailure
from repro.util.validation import env_seconds

#: Exit code of a worker whose dispatcher vanished (or that waited past
#: ``policy.worker_timeout``): shared state can no longer be trusted.
EXIT_ORPHANED = 111

#: Environment knob scaling the dispatcher-side timeouts (seconds).
ENV_TIMEOUT = "REPRO_SUPERVISE_TIMEOUT"

#: Seconds of pure re-reads before a waiter starts sleeping. Kept tiny:
#: on an oversubscribed host (CI often pins this repo to one core)
#: spinning steals the cycles the producer needs to make progress.
_SPIN_READS = 32
_SLEEP_MIN = 0.00005
_SLEEP_MAX = 0.002

#: How often a worker stalled on a counter checks for its dispatcher.
_ORPHAN_CHECK_S = 0.05


@dataclass(frozen=True)
class SupervisionPolicy:
    """Timeouts and limits for one supervised pool."""

    #: How long the dispatcher waits on a stalled counter before it
    #: scans its workers; also the failure-detection latency.
    scan_interval: float = 2.0
    #: An *alive* worker silent this long is treated as wedged and killed.
    straggler_grace: float = 6.0
    #: Worker-side counter wait; only fires if the dispatcher is gone.
    worker_timeout: float = 300.0
    #: Respawns allowed per worker per job before the job fails hard.
    max_respawns: int = 3

    @staticmethod
    def from_env(environ=None) -> "SupervisionPolicy":
        """The default policy, or ``scan_interval = t`` and
        ``straggler_grace = 3t`` when ``REPRO_SUPERVISE_TIMEOUT=t``
        (floored at 0.05 s; a value that is not a finite number warns
        and keeps the default)."""
        t = env_seconds(
            ENV_TIMEOUT, SupervisionPolicy.scan_interval, 0.05, environ
        )
        return SupervisionPolicy(scan_interval=t, straggler_grace=3 * t)


def _parent_alive() -> bool:
    parent = mp.parent_process()
    return parent is None or parent.is_alive()


class BlockProgress:
    """View of the per-worker progress counters in a shared array.

    ``done[w]`` is the last plane worker ``w`` has fully published
    (``-1`` = none). The backing array may be float64 (so the counters
    can live inside an engine's existing control block) — values are
    whole numbers either way, and an aligned 8-byte store/load is as
    atomic as this protocol needs.
    """

    def __init__(self, arr: np.ndarray, workers: int, base: int = 0):
        self._arr = arr
        self._base = base
        self.workers = workers

    def done(self, w: int) -> int:
        return int(self._arr[self._base + w])

    def publish(self, w: int, plane: int) -> None:
        self._arr[self._base + w] = plane

    def reset(self) -> None:
        self._arr[self._base : self._base + self.workers] = -1


def wait_counter(
    progress: BlockProgress,
    w: int,
    target: int,
    on_stall: Callable[[float], None] | None = None,
    interval: float = _ORPHAN_CHECK_S,
) -> None:
    """Wait until ``done[w] >= target``.

    Brief spin, then sleep with exponential backoff. While the counter
    stalls, ``on_stall(seconds_waited)`` runs every ``interval``
    seconds: the caller's hook for what a stall means to it. It may
    return (keep waiting), raise, or exit the process.
    """
    if progress.done(w) >= target:
        return
    for _ in range(_SPIN_READS):
        if progress.done(w) >= target:
            return
    delay = _SLEEP_MIN
    start = time.perf_counter()
    next_check = start + interval
    while True:
        time.sleep(delay)
        if progress.done(w) >= target:
            return
        delay = min(delay * 2, _SLEEP_MAX)
        if on_stall is not None:
            now = time.perf_counter()
            if now >= next_check:
                on_stall(now - start)
                next_check = time.perf_counter() + interval


def exit_if_orphaned(
    policy: SupervisionPolicy | None,
) -> Callable[[float], None]:
    """A worker's stall hook for :func:`wait_counter`.

    A dead *neighbour* is not the worker's problem — the dispatcher
    respawns it and the counter resumes moving — but a dead
    *dispatcher* is: the worker exits with :data:`EXIT_ORPHANED` once
    orphaned, or when one wait outlasts ``policy.worker_timeout``
    (shared state can no longer be trusted). ``policy=None`` waits
    patiently forever, checking only for orphanhood — the unsupervised
    pool's counter waits, and every pool worker's idle wait.
    """
    limit = math.inf if policy is None else policy.worker_timeout

    def check(waited: float) -> None:
        if waited > limit or not _parent_alive():
            os._exit(EXIT_ORPHANED)

    return check


def reap(procs: Iterable[mp.Process], grace: float = 0.0) -> None:
    """Stop ``procs``: allow them ``grace`` seconds to exit on their
    own, then terminate, then kill what still runs. Every started
    process is joined, so none is left as a zombie."""
    procs = [proc for proc in procs if proc.pid is not None]
    deadline = time.perf_counter() + grace
    for proc in procs:
        proc.join(timeout=max(0.0, deadline - time.perf_counter()))
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=5)
        if proc.is_alive():  # pragma: no cover
            proc.kill()
            proc.join(timeout=5)


class CounterSupervisor:
    """Dispatcher-side counter waits with detection and block-granular
    recovery.

    The dispatcher (worker 0, the main process) waits on counters like
    any worker, but on a stall it scans its children: dead workers are
    respawned resuming at ``done[w] + 1`` (their counter is exact — a
    worker publishes plane ``d`` only after finishing it, so the
    replacement replays at most one partially-written plane, and the
    deterministic kernel rewrites identical values). A worker that is
    alive but has not advanced its counter past ``straggler_grace`` —
    while being the *pipeline minimum*, i.e. the one actually blocking
    everyone — is terminated and respawned the same way. Respawns per
    worker are capped at ``policy.max_respawns``; beyond that the run
    fails hard with the accumulated :class:`FailureRecord` log.
    """

    def __init__(
        self,
        engine: str,
        progress: BlockProgress,
        procs: dict[int, mp.Process],
        respawn: Callable[[int, int], mp.Process],
        policy: SupervisionPolicy,
        dmax: int,
    ):
        self.engine = engine
        self.progress = progress
        self.procs = procs
        self.respawn = respawn
        self.policy = policy
        self.dmax = dmax
        self.failures: list[FailureRecord] = []
        self._respawns: dict[int, int] = {}
        # Straggler clock: worker -> (last observed counter, observed at).
        self._seen: dict[int, tuple[int, float]] = {}

    def wait_for(self, w: int, target: int) -> None:
        """Wait until ``done[w] >= target``, scanning for casualties
        every ``scan_interval`` while stalled. Never hangs: either the
        counter advances (possibly via a respawned replacement) or the
        respawn cap turns the stall into :class:`WorkerFailure`."""
        wait_counter(
            self.progress,
            w,
            target,
            lambda _waited: self.scan(),
            self.policy.scan_interval,
        )

    def scan(self) -> None:
        """One detection round: respawn every casualty, or raise
        :class:`WorkerFailure` once a worker exceeds the respawn cap
        (the caller then reaps the rest)."""
        casualties: list[tuple[int, mp.Process, str]] = []
        now = time.perf_counter()
        floor = min(
            (self.progress.done(w) for w in self.procs), default=self.dmax
        )
        for w, proc in self.procs.items():
            if not proc.is_alive():
                casualties.append(
                    (w, proc, f"worker process died (exitcode {proc.exitcode})")
                )
                continue
            done = self.progress.done(w)
            if done >= self.dmax:
                self._seen.pop(w, None)
                continue
            last_done, since = self._seen.get(w, (None, now))
            if done != last_done:
                self._seen[w] = (done, now)
            elif (
                now - since >= self.policy.straggler_grace and done == floor
            ):
                # Alive, silent past grace, and the pipeline minimum —
                # everyone above is legitimately waiting on *it*. Kill
                # and replay; a mere waiter never matches ``== floor``.
                reap([proc])
                casualties.append(
                    (w, proc, f"straggler (silent {now - since:.1f}s), killed")
                )
        for w, proc, reason in casualties:
            resume = self.progress.done(w) + 1
            count = self._respawns.get(w, 0) + 1
            self._respawns[w] = count
            record = FailureRecord(
                engine=self.engine,
                worker=w,
                plane=resume,
                reason=reason,
                exitcode=proc.exitcode,
                respawned=count <= self.policy.max_respawns,
            )
            self.failures.append(record)
            _obs.record_failure(self.engine, w, resume, reason)
            if count > self.policy.max_respawns:
                raise WorkerFailure(
                    f"{self.engine} worker {w} failed {count} times "
                    f"(max_respawns={self.policy.max_respawns})",
                    self.failures,
                )
            self.procs[w] = self.respawn(w, resume)
            self._seen.pop(w, None)
            _obs.record_recovery(self.engine, w, resume)


def sweep_blocks(
    engine: str,
    worker_id: int,
    n_slabs: int,
    slab: tuple[int, int],
    bands: Sequence[tuple[int, int]],
    dims: tuple[int, int, int],
    planes: Sequence[np.ndarray],
    sab: np.ndarray,
    sac: np.ndarray,
    sbc: np.ndarray,
    g2: float,
    move_cube: np.ndarray | None,
    ws: Any,
    progress: BlockProgress,
    wait_for: Callable[[int, int], None],
    start_plane: int = 0,
    record: bool = True,
) -> int:
    """One worker's block loop: stream every band of its row slab.

    ``planes`` is the ``W``-deep rotating plane window (``W = len(planes)``,
    sized by :func:`~repro.parallel.partition.plane_window`); ``wait_for``
    is the caller's counter wait (:func:`wait_counter` with its stall
    hook, or :meth:`CounterSupervisor.wait_for`). A respawned
    replacement passes ``start_plane = done[w] + 1``, so a replayed band
    recomputes exactly the planes its predecessor had not published —
    block-granular replay without re-deriving anything.

    Returns the number of valid cells computed.
    """
    n1, n2, n3 = dims
    dmax = n1 + n2 + n3
    lo, hi = slab
    w = worker_id
    window = len(planes)
    observing = _obs.active() and record
    busy = waited = 0.0
    cells = 0
    for s, e in bands:
        if e < start_plane:
            continue
        s = max(s, start_plane)
        t_wait = time.perf_counter() if observing else 0.0
        if w > 0:
            wait_for(w - 1, e - 1)
        if w + 1 < n_slabs and e - window + 3 >= 0:
            wait_for(w + 1, e - window + 3)
        if observing:
            t0 = time.perf_counter()
            waited += t0 - t_wait
        else:
            t0 = 0.0
        for d in range(s, e + 1):
            _faults.maybe_inject(engine, w, d, dmax)
            cells += compute_plane_rows(
                d,
                lo,
                hi,
                planes[(d - 1) % window],
                planes[(d - 2) % window],
                planes[(d - 3) % window],
                planes[d % window],
                sab,
                sac,
                sbc,
                g2,
                dims,
                move_cube=move_cube,
                ws=ws,
            )
            progress.publish(w, d)
        if observing:
            busy += time.perf_counter() - t0
    if observing:
        _obs.record_worker(engine, w, busy, waited, cells, dmax + 1)
    return cells
