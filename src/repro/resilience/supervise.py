"""Supervision policy and the pool's job-start rendezvous.

Mid-sweep failures are handled by the counter protocol
(:class:`repro.parallel.blockwave.CounterSupervisor`): a dead or wedged
worker is respawned resuming at its published counter. This module
holds what the rest of the pool lifecycle needs:

* :class:`SupervisionPolicy` — the timeouts and respawn cap every
  supervised wait uses (``REPRO_SUPERVISE_TIMEOUT`` scales them);
* :func:`worker_idle_wait` — an idle pool worker waiting for its next
  job at the start barrier;
* :class:`Supervisor` — the dispatcher's side of that start barrier,
  which respawns workers found dead (or wedged) between jobs.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.obs import hooks as _obs
from repro.resilience.errors import FailureRecord, WorkerFailure

#: Environment knob scaling the dispatcher-side timeouts (seconds).
ENV_TIMEOUT = "REPRO_SUPERVISE_TIMEOUT"


@dataclass(frozen=True)
class SupervisionPolicy:
    """Timeouts and limits for one supervised engine run."""

    #: Dispatcher wait per attempt; also the failure-detection latency.
    barrier_timeout: float = 2.0
    #: An *alive* worker silent this long is treated as wedged and killed.
    straggler_grace: float = 6.0
    #: Worker-side wait; only fires if the dispatcher is gone.
    worker_timeout: float = 300.0
    #: Respawns allowed per worker before the run fails hard.
    max_respawns: int = 3

    @staticmethod
    def from_env(environ=None) -> "SupervisionPolicy":
        env = environ if environ is not None else os.environ
        raw = env.get(ENV_TIMEOUT, "").strip()
        if not raw:
            return SupervisionPolicy()
        t = max(0.05, float(raw))
        return SupervisionPolicy(barrier_timeout=t, straggler_grace=3 * t)


# ---------------------------------------------------------------------------
# Worker-side waits
# ---------------------------------------------------------------------------


def _parent_alive() -> bool:
    parent = mp.parent_process()
    return parent is None or parent.is_alive()


def worker_idle_wait(barrier, policy: SupervisionPolicy) -> None:
    """Pool workers waiting for the next job. Tolerates broken/reset
    cycles (the dispatcher heals the barrier when it next submits) and
    exits if orphaned; this is the one wait allowed to outlast
    ``worker_timeout``, because an idle pool is legitimately idle."""
    while True:
        try:
            barrier.wait(timeout=policy.worker_timeout)
            return
        except threading.BrokenBarrierError:
            time.sleep(0.05)
        if not _parent_alive():
            os._exit(0)


# ---------------------------------------------------------------------------
# Dispatcher side
# ---------------------------------------------------------------------------


class Supervisor:
    """Dispatcher-side waits at the pool's job-start barrier.

    Parameters
    ----------
    engine:
        Name used in failure records and obs metrics.
    barrier:
        The start barrier (all workers including the dispatcher).
    procs:
        Live child processes keyed by worker id; respawns replace
        entries in place.
    respawn:
        ``respawn(worker_id) -> Process`` — must start a replacement
        idle worker with fault injection disarmed.
    """

    def __init__(
        self,
        engine: str,
        *,
        barrier,
        procs: dict[int, mp.Process],
        respawn: Callable[[int], mp.Process],
        policy: SupervisionPolicy | None = None,
    ):
        self.engine = engine
        self.barrier = barrier
        self.procs = procs
        self.respawn = respawn
        self.policy = policy or SupervisionPolicy.from_env()
        self.failures: list[FailureRecord] = []
        self._respawns: dict[int, int] = {}

    def wait_job_start(self) -> None:
        """Dispatch-side wait at the pool's job-start barrier.

        A worker dead while idle is found here, at submit time. Idle
        workers tolerate broken/reset cycles (:func:`worker_idle_wait`),
        so recovery is just: respawn the dead, reset, re-meet. With no
        identified casualty past the grace period every child is
        recycled — idle heartbeats carry no progress information, so
        this is the only sound move, and it is rare (it means a child
        wedged *between* jobs)."""
        t0 = time.perf_counter()
        while True:
            try:
                self.barrier.wait(timeout=self.policy.barrier_timeout)
                return
            except threading.BrokenBarrierError:
                waited = time.perf_counter() - t0
                casualties = [
                    (w, p)
                    for w, p in self.procs.items()
                    if not p.is_alive()
                ]
                if not casualties and waited >= self.policy.straggler_grace:
                    for w, p in self.procs.items():
                        p.terminate()
                        p.join(timeout=5)
                        if p.is_alive():  # pragma: no cover
                            p.kill()
                            p.join(timeout=5)
                    casualties = list(self.procs.items())
                for w, proc in casualties:
                    count = self._respawns.get(w, 0) + 1
                    self._respawns[w] = count
                    record = FailureRecord(
                        engine=self.engine,
                        worker=w,
                        plane=None,
                        reason="worker lost while idle",
                        exitcode=proc.exitcode,
                        respawned=count <= self.policy.max_respawns,
                    )
                    self.failures.append(record)
                    _obs.record_failure(self.engine, w, None, record.reason)
                    if count > self.policy.max_respawns:
                        self.abort()
                        raise WorkerFailure(
                            f"{self.engine} worker {w} failed {count} times "
                            f"(max_respawns={self.policy.max_respawns})",
                            self.failures,
                        )
                    self.procs[w] = self.respawn(w)
                    _obs.record_recovery(self.engine, w, None)
                self.barrier.reset()
                if casualties:
                    t0 = time.perf_counter()

    def abort(self) -> None:
        """Give up: break the barrier so workers stop waiting, then kill
        and reap every child. Used on hard failure and forced shutdown."""
        try:
            self.barrier.abort()
        except Exception:  # pragma: no cover - barrier may be gone
            pass
        for proc in self.procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs.values():
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover
                proc.kill()
                proc.join(timeout=5)
