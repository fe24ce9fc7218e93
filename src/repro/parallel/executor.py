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
and the progress counters, and everyone meets at the start barrier;
workers then stream the block-tiled sweep (fixed row slab × plane bands,
counter synchronisation — :mod:`repro.parallel.blockwave`) and return to
the start barrier for the next job. Shutdown is a job with the shutdown
flag set.

Workers whose id exceeds the job's slab count (more workers than rows)
publish completion immediately and go straight back to the start
barrier: they pay zero per-plane cost for that job.

Supervision (default on) makes the pool survive worker failure: the
control block carries one progress counter per worker, every counter
wait has a timeout, and the dispatcher responds to a stall by respawning
dead (or wedged) workers resuming at their published counter — block-
granular replay (:class:`~repro.parallel.blockwave.CounterSupervisor`).
The window arithmetic keeps the planes a replacement needs intact, so
replay needs no checkpoint and the output stays bit-identical to the
serial engine. See ``docs/robustness.md``.

Determinism: every cell is computed once by the serial engine's kernel
call on disjoint row slabs, so output is bit-identical to
:func:`repro.core.wavefront.wavefront_sweep` at any worker count.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
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
    sweep_blocks,
    worker_counter_wait,
)
from repro.parallel.partition import (
    band_depth,
    plane_bands,
    plane_window,
    row_slabs,
)
from repro.resilience import faults as _faults
from repro.resilience.errors import FailureRecord
from repro.resilience.supervise import (
    SupervisionPolicy,
    Supervisor,
    worker_idle_wait,
)
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
_CTRL_N1 = 1
_CTRL_N2 = 2
_CTRL_N3 = 3
_CTRL_G2 = 4
_CTRL_SCORE_ONLY = 5
_CTRL_COUNTER_BASE = 6


def _ctrl_slots(workers: int) -> int:
    return _CTRL_COUNTER_BASE + workers


def _job_band(dmax: int, active: int) -> int:
    """The band depth every participant derives for a job — identical
    inputs (staged dims), identical result."""
    return min(BAND_CAP, band_depth(dmax, active, cap=BAND_CAP))


def _pool_worker(
    worker_id: int,
    workers: int,
    capacity: tuple[int, int, int],
    names: dict[str, str],
    start_barrier,
    policy: SupervisionPolicy | None,
    resume_plane: int | None = None,
    faults_armed: bool = True,
) -> None:
    """Worker main loop: wait for a job, stream its slab, repeat until
    shutdown.

    A respawned replacement arrives with ``resume_plane`` set (skip the
    job-start barrier, re-enter the current sweep at its predecessor's
    published counter) and ``faults_armed=False`` (a replayed block must
    not re-trigger the injected crash that killed its predecessor).
    """
    if not faults_armed:
        _faults.disarm_all()
    shms = {key: shared_memory.SharedMemory(name=name) for key, name in names.items()}
    try:
        ctrl = np.ndarray(
            (_ctrl_slots(workers),), dtype=np.float64, buffer=shms["ctrl"].buf
        )
        progress = BlockProgress(ctrl, workers, base=_CTRL_COUNTER_BASE)
        # One capacity-sized workspace per worker process, reused across
        # every job the pool ever runs — the persistent-pool analogue of
        # long-lived MPI rank buffers (zero steady-state allocation).
        ws = PlaneWorkspace(capacity)
        resume = resume_plane
        while True:
            if resume is None:
                if policy is None:
                    start_barrier.wait()
                else:
                    worker_idle_wait(start_barrier, policy)
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
                lambda w, target: worker_counter_wait(
                    progress, w, target, policy
                ),
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
        self._start_supervisor: Supervisor | None = None
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
        self._start_barrier = self._ctx.Barrier(workers)
        self._names = {key: shm.name for key, shm in self._shms.items()}
        for w in range(1, workers):
            self._procs[w] = self._spawn(w, None, faults_armed=True)
        if self.policy is not None:
            # Supervises only the job-start rendezvous (a worker dead
            # while idle); mid-sweep supervision is the per-job
            # CounterSupervisor in _run_parallel.
            self._start_supervisor = Supervisor(
                "pool",
                barrier=self._start_barrier,
                procs=self._procs,
                respawn=lambda w: self._spawn(w, None, faults_armed=False),
                policy=self.policy,
            )

    # ------------------------------------------------------------------

    def _spawn(
        self, worker_id: int, resume_plane: int | None, faults_armed: bool
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
                self._start_barrier,
                self.policy,
                resume_plane,
                faults_armed,
            ),
            daemon=True,
        )
        proc.start()
        return proc

    def _respawn(self, worker_id: int, resume_plane: int) -> mp.Process:
        return self._spawn(worker_id, resume_plane, faults_armed=False)

    def __enter__(self) -> "WavefrontPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut the workers down and release the shared buffers.

        Escalates join -> terminate -> kill so a wedged worker cannot
        hang shutdown, and always releases the shared-memory segments —
        leaked SHM would outlive the process.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if not self._serial:
                all_alive = all(p.is_alive() for p in self._procs.values())
                if not self._failed and all_alive:
                    self._ctrl[_CTRL_SHUTDOWN] = 1.0
                    try:
                        self._start_barrier.wait(timeout=10)
                    except threading.BrokenBarrierError:
                        pass  # dead/wedged worker; escalation handles it
                for proc in self._procs.values():
                    proc.join(timeout=10)
                    if proc.is_alive():
                        proc.terminate()
                        proc.join(timeout=5)
                    if proc.is_alive():  # pragma: no cover
                        proc.kill()
                        proc.join(timeout=5)
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

    def _dispatch_start(self) -> None:
        if self._start_supervisor is not None:
            self._start_supervisor.wait_job_start()
        else:
            self._start_barrier.wait()

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

        try:
            return self._run_parallel(sa, sb, sc, scheme, score_only)
        except Exception:
            # An unrecovered failure (WorkerFailure, broken protocol)
            # leaves buffers in an unknown state; poison the pool so
            # later jobs fail fast, and kill what is left.
            self._failed = True
            for proc in self._procs.values():
                if proc.is_alive():
                    proc.terminate()
            for proc in self._procs.values():
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover
                    proc.kill()
                    proc.join(timeout=5)
            raise

    def _run_parallel(
        self,
        sa: str,
        sb: str,
        sc: str,
        scheme: ScoringScheme,
        score_only: bool,
    ) -> tuple[float, np.ndarray | None]:
        n1, n2, n3 = len(sa), len(sb), len(sc)
        sab, sac, sbc = scheme.profile_matrices(sa, sb, sc)
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
        # Counters must read -1 before any worker sees the released
        # start barrier (workers only read them post-release).
        self._progress.reset()

        observing = _obs.active()
        t_sweep = time.perf_counter() if observing else 0.0
        self._dispatch_start()
        supervisor: CounterSupervisor | None = None
        if self.policy is not None:
            supervisor = CounterSupervisor(
                "pool",
                self._progress,
                self._procs,
                respawn=self._respawn,
                policy=self.policy,
                dmax=dmax,
            )
            wait = supervisor.wait_for
        else:

            def wait(w: int, target: int) -> None:
                delay = 0.00005
                while self._progress.done(w) < target:
                    time.sleep(delay)
                    delay = min(delay * 2, 0.002)

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
            if supervisor is not None:
                supervisor.wait_all()  # job-completion rendezvous
            else:
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
        records = list(self._failures)
        if self._start_supervisor is not None:
            records.extend(self._start_supervisor.failures)
        return records

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
