"""The block-tiled wavefront executor: a persistent multiprocess pool.

:class:`WavefrontPool` is the one parallel executor. It keeps its
workers and shared buffers alive across calls, the way a long-running
MPI rank set would, so repeated alignments pay only the per-job
dispatch cost. The per-call ``blocks`` engine
(:mod:`repro.parallel.blocks`) is a pool that runs one job and closes.

Protocol
--------
The pool allocates capacity-sized shared buffers once (a ``W``-deep
rotating plane window, three profile-matrix buffers, a move cube and a
small control block). Per job the main process writes the job descriptor
(dims, gap, score-only flag) and the profile matrices, resets the planes
and the progress counters, then moves the control block's *job epoch*
on and rings one doorbell (a semaphore) per worker. An idle worker
blocks on its doorbell; once woken it re-reads the epoch, and a new one
starts the job. The epoch slot is the only truth: the doorbell only
ends the blocking wait, so a stale or spurious ring costs one re-check.
Workers then stream the block-tiled sweep (fixed row slab × plane
bands, counter synchronisation — :mod:`repro.parallel.blockwave`) and
go back to their doorbells. Shutdown is the same epoch move with the
shutdown flag set.

Workers whose id exceeds the job's slab count (more workers than rows)
publish completion immediately and go straight back to their doorbell:
they pay zero per-plane cost for that job.

Supervision (default on) makes the pool survive worker failure: the
control block carries one progress counter per worker, every counter
wait is bounded, and the dispatcher responds to a stall by respawning
dead (or wedged) workers resuming at their published counter — block-
granular replay (:class:`~repro.parallel.blockwave.CounterSupervisor`).
A worker that died while idle keeps the ``-1`` the next job start
writes to its counter, so the same scan respawns it at plane 0. The window arithmetic keeps the
planes a replacement needs intact, so replay needs no checkpoint and
the output stays bit-identical to the serial engine. See
``docs/robustness.md``.

Determinism: every cell is computed once by the serial engine's kernel
call on disjoint row slabs, so output is bit-identical to
:func:`repro.core.wavefront.wavefront_sweep` at any worker count.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.core.dp3d import NEG
from repro.obs import hooks as _obs
from repro.obs import trace as _trace
from repro.core.scoring import ScoringScheme
from repro.core.traceback import traceback_moves
from repro.core.types import Alignment3, moves_to_columns
from repro.core.workspace import PlaneWorkspace
from repro.parallel.blockwave import (
    BlockProgress,
    CounterSupervisor,
    SupervisionPolicy,
    exit_if_orphaned,
    reap,
    sweep_blocks,
    wait_counter,
)
from repro.parallel.partition import (
    band_depth,
    plane_bands,
    plane_window,
    row_slabs,
)
from repro.resilience import faults as _faults
from repro.resilience.errors import FailureRecord
from repro.util.validation import check_positive, check_sequences

#: Upper bound on the plane-band depth (planes streamed between
#: synchronisations). Sizes the shared plane window once:
#: ``2 * BAND_CAP + 3`` capacity-sized buffers.
BAND_CAP = 8


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in mp.get_all_start_methods()


# Control-block slots (float64 each). One progress counter per worker
# (the blockwave ``done[w]`` protocol) sits at _CTRL_COUNTER_BASE.
_CTRL_SHUTDOWN = 0
_CTRL_EPOCH = 1
_CTRL_N1 = 2
_CTRL_N2 = 3
_CTRL_N3 = 4
_CTRL_G2 = 5
_CTRL_SCORE_ONLY = 6
_CTRL_COUNTER_BASE = 7

#: How often a worker blocked on its doorbell checks for its dispatcher.
#: Only an orphan check: job starts and shutdown ring the doorbell.
_IDLE_CHECK_S = 1.0


def _ctrl_slots(workers: int) -> int:
    return _CTRL_COUNTER_BASE + workers


def _job_band(dmax: int, active: int) -> int:
    """The band depth every participant derives for a job — identical
    inputs (staged dims), identical result."""
    return min(BAND_CAP, band_depth(dmax, active, cap=BAND_CAP))


def _await_epoch(ctrl: np.ndarray, doorbell, seen: int, on_idle) -> int:
    """Block until the job epoch moves past ``seen``; return the new one.

    No deadline — an idle pool is legitimately idle — but ``on_idle``
    runs whenever :data:`_IDLE_CHECK_S` passes without a ring, so the
    worker can exit once its dispatcher is gone."""
    while int(ctrl[_CTRL_EPOCH]) == seen:
        if not doorbell.acquire(timeout=_IDLE_CHECK_S):
            on_idle(_IDLE_CHECK_S)
    return int(ctrl[_CTRL_EPOCH])


def _pool_worker(
    worker_id: int,
    workers: int,
    capacity: tuple[int, int, int],
    names: dict[str, str],
    doorbell,
    policy: SupervisionPolicy | None,
    epoch: int,
    resume_plane: int | None,
) -> None:
    """Worker main loop: wait for a new job epoch, stream the job's slab,
    repeat until shutdown.

    ``epoch`` is the last job epoch this process counts as seen: 0 for
    a worker spawned with the pool, the current one for a replacement.
    (Reading it at start-up instead could miss a job released between
    the fork and the read.) A replacement arrives with ``resume_plane``
    set: it re-enters the current sweep at its predecessor's published
    counter, with fault injection disarmed (a replayed block must not
    re-trigger the injected crash that killed its predecessor).
    """
    if resume_plane is not None:
        _faults.disarm_all()
    shms = {key: shared_memory.SharedMemory(name=name) for key, name in names.items()}
    try:
        ctrl = np.ndarray(
            (_ctrl_slots(workers),), dtype=np.float64, buffer=shms["ctrl"].buf
        )
        progress = BlockProgress(ctrl, workers, base=_CTRL_COUNTER_BASE)
        on_stall = exit_if_orphaned(policy)
        on_idle = exit_if_orphaned(None)
        # One capacity-sized workspace per worker process, reused across
        # every job the pool ever runs — the persistent-pool analogue of
        # long-lived MPI rank buffers (zero steady-state allocation).
        ws = PlaneWorkspace(capacity)
        resume = resume_plane
        while True:
            if resume is None:
                epoch = _await_epoch(ctrl, doorbell, epoch, on_idle)
            if ctrl[_CTRL_SHUTDOWN]:
                return
            n1 = int(ctrl[_CTRL_N1])
            n2 = int(ctrl[_CTRL_N2])
            n3 = int(ctrl[_CTRL_N3])
            g2 = float(ctrl[_CTRL_G2])
            score_only = bool(ctrl[_CTRL_SCORE_ONLY])
            dims = (n1, n2, n3)
            dmax = n1 + n2 + n3
            slabs = row_slabs(n1, workers)
            active = len(slabs)
            if worker_id >= active:
                # More workers than row slabs: nothing to compute for
                # this job. Publish completion so nobody ever waits on
                # this counter and go idle — zero per-plane cost.
                progress.publish(worker_id, dmax)
                resume = None
                continue
            depth = _job_band(dmax, active)
            window = min(plane_window(depth), dmax + 4)
            planes = [
                np.ndarray(
                    (n1 + 2, n2 + 2), dtype=np.float64, buffer=shms[f"plane{r}"].buf
                )
                for r in range(window)
            ]
            sab = np.ndarray((n1, n2), dtype=np.float64, buffer=shms["sab"].buf)
            sac = np.ndarray((n1, n3), dtype=np.float64, buffer=shms["sac"].buf)
            sbc = np.ndarray((n2, n3), dtype=np.float64, buffer=shms["sbc"].buf)
            move_cube = (
                None
                if score_only
                else np.ndarray(
                    (n1 + 1, n2 + 1, n3 + 1), dtype=np.int8, buffer=shms["moves"].buf
                )
            )
            # Observability state was inherited at pool construction time
            # (the workers fork once); per-job records still carry the
            # correct pid/worker ids. A mid-sweep replacement skips the
            # per-worker record — its tallies would not cover the job.
            sweep_blocks(
                "pool",
                worker_id,
                active,
                slabs[worker_id],
                plane_bands(dmax, depth),
                dims,
                planes,
                sab,
                sac,
                sbc,
                g2,
                move_cube,
                ws,
                progress,
                lambda w, target: wait_counter(progress, w, target, on_stall),
                start_plane=0 if resume is None else resume,
                record=resume is None,
            )
            if resume is None and _obs.active():
                _trace.flush()
            resume = None
    finally:
        for shm in shms.values():
            shm.close()


class WavefrontPool:
    """A reusable pool of block-tiled wavefront workers.

    Parameters
    ----------
    capacity:
        Maximum sequence lengths ``(n1, n2, n3)`` any job may have; buffers
        are sized once for this.
    workers:
        Total workers including the dispatching process (so ``workers=2``
        spawns one child). Falls back to serial execution when 1, or when
        the platform lacks ``fork``. Jobs with fewer row slabs than
        workers leave the surplus workers idle for that job.
    supervise:
        When True (default) every counter wait has a timeout and dead or
        wedged workers are respawned resuming at their published counter;
        ``policy`` tunes the timeouts. When False every wait is
        infinite — kept for overhead measurement.

    The plane-band depth is capped at :data:`BAND_CAP`.

    Use as a context manager::

        with WavefrontPool((120, 120, 120), workers=2) as pool:
            for job in jobs:
                aln = pool.align3(*job, scheme)
    """

    def __init__(
        self,
        capacity: tuple[int, int, int],
        workers: int = 2,
        supervise: bool = True,
        policy: SupervisionPolicy | None = None,
    ):
        check_positive("workers", workers)
        for c in capacity:
            if c < 0:
                raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = tuple(int(c) for c in capacity)
        self.workers = workers
        self.policy = (
            (policy or SupervisionPolicy.from_env()) if supervise else None
        )
        self._serial = workers == 1 or not fork_available()
        # The dispatcher's own workspace (also the serial fallback's):
        # sized to capacity once, so every job runs allocation-free.
        self._ws = PlaneWorkspace(self.capacity)
        self._closed = False
        self._failed = False
        self._shms: dict[str, shared_memory.SharedMemory] = {}
        self._procs: dict[int, mp.Process] = {}
        self._failures: list[FailureRecord] = []
        if self._serial:
            return

        c1, c2, c3 = self.capacity
        self._ctx = mp.get_context("fork")
        sizes = {
            "ctrl": _ctrl_slots(workers) * 8,
            "sab": max(1, c1 * c2 * 8),
            "sac": max(1, c1 * c3 * 8),
            "sbc": max(1, c2 * c3 * 8),
            "moves": max(1, (c1 + 1) * (c2 + 1) * (c3 + 1)),
        }
        for r in range(plane_window(BAND_CAP)):
            sizes[f"plane{r}"] = (c1 + 2) * (c2 + 2) * 8
        for key, size in sizes.items():
            self._shms[key] = shared_memory.SharedMemory(create=True, size=size)
        self._ctrl = np.ndarray(
            (_ctrl_slots(workers),), dtype=np.float64, buffer=self._shms["ctrl"].buf
        )
        self._ctrl[:] = 0.0
        self._progress = BlockProgress(
            self._ctrl, workers, base=_CTRL_COUNTER_BASE
        )
        # A waiter killed inside acquire() leaves the semaphore's count
        # intact, so a replacement worker reuses its predecessor's bell.
        self._doorbells = {w: self._ctx.Semaphore(0) for w in range(1, workers)}
        self._names = {key: shm.name for key, shm in self._shms.items()}
        for w in range(1, workers):
            self._procs[w] = self._spawn(w)

    # ------------------------------------------------------------------

    def _spawn(
        self, worker_id: int, resume_plane: int | None = None
    ) -> mp.Process:
        # Flush buffered trace lines so the fork doesn't duplicate them.
        _trace.flush()
        proc = self._ctx.Process(
            target=_pool_worker,
            args=(
                worker_id,
                self.workers,
                self.capacity,
                self._names,
                self._doorbells[worker_id],
                self.policy,
                int(self._ctrl[_CTRL_EPOCH]),
                resume_plane,
            ),
            daemon=True,
        )
        proc.start()
        return proc

    def _release(self) -> None:
        """Start the staged job (or, with the shutdown flag set, stop
        the workers): move the epoch on, then ring every doorbell."""
        self._ctrl[_CTRL_EPOCH] += 1
        for bell in self._doorbells.values():
            bell.release()

    def __enter__(self) -> "WavefrontPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut the workers down and release the shared buffers.

        A worker that does not exit in time is terminated, then killed,
        so a wedged one cannot hang shutdown; the shared-memory segments
        are always released — leaked SHM would outlive the process.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if not self._serial:
                self._ctrl[_CTRL_SHUTDOWN] = 1.0
                self._release()
                reap(self._procs.values(), grace=10.0)
        finally:
            for shm in self._shms.values():
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass

    # ------------------------------------------------------------------

    def _check_job(self, sa: str, sb: str, sc: str, scheme: ScoringScheme):
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._failed:
            raise RuntimeError(
                "pool is unusable after an unrecovered worker failure"
            )
        check_sequences((sa, sb, sc), count=3)
        if scheme.is_affine:
            raise ValueError("WavefrontPool implements the linear gap model")
        dims = (len(sa), len(sb), len(sc))
        for n, cap in zip(dims, self.capacity):
            if n > cap:
                raise ValueError(
                    f"job dims {dims} exceed pool capacity {self.capacity}"
                )
        return dims

    def _run(
        self,
        sa: str,
        sb: str,
        sc: str,
        scheme: ScoringScheme,
        score_only: bool,
    ) -> tuple[float, np.ndarray | None]:
        n1, n2, n3 = self._check_job(sa, sb, sc, scheme)
        if self._serial:
            from repro.core.wavefront import wavefront_sweep

            res = wavefront_sweep(
                sa, sb, sc, scheme, score_only=score_only, workspace=self._ws
            )
            return res.score, res.move_cube

        # Encoding rejects a sequence the scheme cannot score; doing it
        # before the failure path keeps that caller error from poisoning
        # the pool.
        mats = scheme.profile_matrices(sa, sb, sc)
        try:
            return self._run_parallel(sa, sb, sc, mats, scheme, score_only)
        except Exception:
            # An unrecovered failure (WorkerFailure, broken protocol)
            # leaves buffers in an unknown state; poison the pool so
            # later jobs fail fast, and kill what is left.
            self._failed = True
            reap(self._procs.values())
            raise

    def _run_parallel(
        self,
        sa: str,
        sb: str,
        sc: str,
        mats: tuple[np.ndarray, np.ndarray, np.ndarray],
        scheme: ScoringScheme,
        score_only: bool,
    ) -> tuple[float, np.ndarray | None]:
        n1, n2, n3 = len(sa), len(sb), len(sc)
        sab, sac, sbc = mats
        dims = (n1, n2, n3)
        dmax = n1 + n2 + n3
        slabs = row_slabs(n1, self.workers)
        active = len(slabs)
        depth = _job_band(dmax, active)
        window = min(plane_window(depth), dmax + 4)
        # Stage the job into the shared buffers.
        if n1 and n2:
            np.ndarray((n1, n2), dtype=np.float64, buffer=self._shms["sab"].buf)[:] = sab
        if n1 and n3:
            np.ndarray((n1, n3), dtype=np.float64, buffer=self._shms["sac"].buf)[:] = sac
        if n2 and n3:
            np.ndarray((n2, n3), dtype=np.float64, buffer=self._shms["sbc"].buf)[:] = sbc
        planes = [
            np.ndarray(
                (n1 + 2, n2 + 2), dtype=np.float64, buffer=self._shms[f"plane{r}"].buf
            )
            for r in range(window)
        ]
        for p in planes:
            p.fill(NEG)
        move_cube = None
        if not score_only:
            move_cube = np.ndarray(
                (n1 + 1, n2 + 1, n3 + 1), dtype=np.int8, buffer=self._shms["moves"].buf
            )
            move_cube.fill(0)
        self._ctrl[_CTRL_N1] = n1
        self._ctrl[_CTRL_N2] = n2
        self._ctrl[_CTRL_N3] = n3
        self._ctrl[_CTRL_G2] = 2.0 * scheme.gap
        self._ctrl[_CTRL_SCORE_ONLY] = 1.0 if score_only else 0.0
        # Counters must read -1 before any worker sees the new epoch
        # (workers only read them once the job has started).
        self._progress.reset()

        observing = _obs.active()
        t_sweep = time.perf_counter() if observing else 0.0
        self._release()
        supervisor: CounterSupervisor | None = None
        if self.policy is not None:
            supervisor = CounterSupervisor(
                "pool",
                self._progress,
                self._procs,
                respawn=self._spawn,
                policy=self.policy,
                dmax=dmax,
            )
            wait = supervisor.wait_for
        else:

            def wait(w: int, target: int) -> None:
                wait_counter(self._progress, w, target)

        # The dispatcher is worker 0, owning the bottom slab.
        g2 = 2.0 * scheme.gap
        sab_v = np.ndarray((n1, n2), dtype=np.float64, buffer=self._shms["sab"].buf)
        sac_v = np.ndarray((n1, n3), dtype=np.float64, buffer=self._shms["sac"].buf)
        sbc_v = np.ndarray((n2, n3), dtype=np.float64, buffer=self._shms["sbc"].buf)
        try:
            sweep_blocks(
                "pool",
                0,
                active,
                slabs[0],
                plane_bands(dmax, depth),
                dims,
                planes,
                sab_v,
                sac_v,
                sbc_v,
                g2,
                move_cube,
                self._ws,
                self._progress,
                wait,
            )
            # Job-completion rendezvous: every worker at the last plane.
            for w in range(1, self.workers):
                wait(w, dmax)
        finally:
            if supervisor is not None:
                self._failures.extend(supervisor.failures)

        score = float(planes[dmax % window][n1 + 1, n2 + 1])
        moves = None if move_cube is None else move_cube.copy()
        if observing:
            _obs.record_sweep(
                "pool",
                cells=(n1 + 1) * (n2 + 1) * (n3 + 1),
                seconds=time.perf_counter() - t_sweep,
                peak_plane_bytes=window * (n1 + 2) * (n2 + 2) * 8,
                move_cube_bytes=0 if move_cube is None else move_cube.nbytes,
            )
        return score, moves

    # ------------------------------------------------------------------

    @property
    def failures(self) -> list:
        """Failure records accumulated by supervision (empty when clean)."""
        return list(self._failures)

    def score3(self, sa: str, sb: str, sc: str, scheme: ScoringScheme) -> float:
        """Optimal SP score (score-only sweep on the pool)."""
        score, _ = self._run(sa, sb, sc, scheme, score_only=True)
        return score

    def align3(
        self, sa: str, sb: str, sc: str, scheme: ScoringScheme
    ) -> Alignment3:
        """Optimal alignment with traceback, computed on the pool."""
        score, move_cube = self._run(sa, sb, sc, scheme, score_only=False)
        assert move_cube is not None
        moves = traceback_moves(move_cube)
        cols = moves_to_columns(moves, sa, sb, sc)
        rows = tuple("".join(col[r] for col in cols) for r in range(3))
        meta = {
            "engine": "pool",
            "workers": self.workers,
            "serial_fallback": self._serial,
            "supervised": self.policy is not None,
            "recoveries": len(self.failures),
        }
        return Alignment3(rows=rows, score=score, meta=meta)  # type: ignore[arg-type]
