"""Distributed-memory execution with real inter-process messages.

The closest thing to the paper's MPI program this container can run: each
rank is an OS process owning the blocks its mapping assigns, **storing
only those blocks plus received ghosts** (no shared cube), and
exchanging one-cell ghost layers through per-rank message queues. Rank
communication follows exactly the dependency structure the simulator
times and :mod:`repro.cluster.execute` audits:

* a block's fill may read its own rank's neighbouring blocks directly;
* cross-rank dependencies arrive as tagged messages
  ``("ghost", (src_block, dst_block, direction), payload, crc32)``;
* the rank owning the terminal block reports the final score.

Fault tolerance (see ``docs/robustness.md``): every payload carries a
CRC32 trailer; a receiver that detects corruption NACKs the sender, which
retransmits from its sent-payload store. Every queue wait goes through
:func:`repro.resilience.retry.queue_get_with_retry` — bounded, with a
liveness probe — so a dead rank surfaces as a typed
:class:`~repro.resilience.errors.WorkerFailure` carrying the failure log
instead of a bare ``queue.Empty`` after a blind minute. Per-rank failure
accounting (checksum rejects, resends) flows through ``repro.obs``.

Designed for validation at modest sizes (the per-block fill is scalar):
the test suite pins it against the monolithic engines for a battery of
shapes, mappings and rank counts. For throughput, use
:mod:`repro.parallel`; for scale studies, :mod:`repro.cluster.simulate`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as _queue
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.blockgrid import BlockGrid
from repro.core.dp3d import NEG, fill_box
from repro.core.scoring import ScoringScheme
from repro.obs import hooks as _obs
from repro.parallel.blockwave import reap
from repro.parallel.executor import fork_available
from repro.resilience import faults as _faults
from repro.resilience.errors import FailureRecord, WorkerFailure
from repro.resilience.retry import (
    comm_deadline,
    corrupt_payload,
    payload_checksum,
    queue_get_with_retry,
    verify_payload,
)
from repro.util.validation import check_positive, check_sequences

#: The seven ghost directions (di, dj, dk) a block may receive from.
_DIRECTIONS = [
    (di, dj, dk)
    for di in (0, 1)
    for dj in (0, 1)
    for dk in (0, 1)
    if (di, dj, dk) != (0, 0, 0)
]

_STOP = ("stop",)


@dataclass
class DistributedResult:
    """Outcome of a distributed run."""

    score: float
    messages: int
    comm_bytes: int
    procs: int
    #: Corrupted payloads detected (and retransmitted) across all ranks.
    checksum_bad: int = 0
    #: Retransmissions performed by senders in response to NACKs.
    resends: int = 0
    per_rank_stats: dict[int, dict[str, int]] = field(default_factory=dict)


def _block_ranges(
    grid: BlockGrid, blk: tuple[int, int, int]
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """Half-open global cell ranges of a block, per axis."""
    out = []
    for axis in range(3):
        lo = blk[axis] * grid.block[axis]
        hi = min(lo + grid.block[axis], grid.dims[axis])
        out.append((lo, hi))
    return tuple(out)  # type: ignore[return-value]


def _boundary_slice(
    data: np.ndarray, direction: tuple[int, int, int]
) -> np.ndarray:
    """The trailing boundary of a block's cell array along ``direction``
    (face for one set axis, edge for two, corner for three)."""
    idx = tuple(
        (slice(-1, None) if d else slice(None)) for d in direction
    )
    return np.ascontiguousarray(data[idx])


def _assemble_halo(
    grid: BlockGrid,
    blk: tuple[int, int, int],
    local_blocks: dict[tuple[int, int, int], np.ndarray],
    ghosts: dict[tuple, np.ndarray],
    owner,
    rank: int,
) -> np.ndarray:
    """Build the (+1 leading layer per axis) halo array for ``blk``."""
    (i0, i1), (j0, j1), (k0, k1) = _block_ranges(grid, blk)
    shape = (i1 - i0, j1 - j0, k1 - k0)
    halo = np.full(tuple(s + 1 for s in shape), NEG)
    for direction in _DIRECTIONS:
        src = tuple(b - d for b, d in zip(blk, direction))
        if min(src) < 0:
            continue
        if owner(src) == rank:
            payload = _boundary_slice(local_blocks[src], direction)
        else:
            payload = ghosts.pop((src, blk, direction))
        # Destination: the leading layer(s) of the halo.
        idx = tuple(
            (slice(0, 1) if d else slice(1, None)) for d in direction
        )
        halo[idx] = payload.reshape(halo[idx].shape)
    return halo


def _rank_inject(rank: int, block_index: int) -> None:
    """Enact crash/straggler faults at a block boundary (rank 0 runs in
    the driving process and is never crashed)."""
    if not _faults.enabled:
        return
    if rank != 0:
        spec = _faults.fire(
            "worker_crash", engine="mpirun", rank=rank, block=block_index
        )
        if spec is not None:
            os._exit(13)
    spec = _faults.fire(
        "straggler", engine="mpirun", rank=rank, block=block_index
    )
    if spec is not None:
        time.sleep(spec.delay)


def _rank_main(
    rank: int,
    grid: BlockGrid,
    procs: int,
    mapping: str,
    sab: np.ndarray,
    sac: np.ndarray,
    sbc: np.ndarray,
    g2: float,
    queues: list,
    result_q,
    service_after: bool = True,
    liveness_extra=None,
) -> tuple[dict, dict[str, int]]:
    """One rank: process owned blocks in wavefront order.

    Returns ``(sent_store, stats)`` — the retransmit store and the
    failure-accounting counters — for the rank that runs inline (rank 0);
    child ranks additionally keep servicing NACKs after reporting their
    result, until the parent sends the stop sentinel.
    """

    def owner(b: tuple[int, int, int]) -> int:
        return grid.owner(b, procs, mapping)

    local_blocks: dict[tuple[int, int, int], np.ndarray] = {}
    ghosts: dict[tuple, np.ndarray] = {}
    #: Cross-rank payloads sent, kept for NACK-triggered retransmission.
    sent_store: dict[tuple, np.ndarray] = {}
    stats = {"checksum_bad": 0, "resends": 0}
    sent_messages = 0
    sent_bytes = 0
    terminal = tuple(g - 1 for g in grid.grid_shape)
    deadline = comm_deadline()

    def liveness() -> None:
        parent = mp.parent_process()
        if parent is not None and not parent.is_alive():
            raise WorkerFailure(
                f"rank {rank}: driver process died; aborting",
                [
                    FailureRecord(
                        engine="mpirun", worker=rank, reason="orphaned rank"
                    )
                ],
            )
        if liveness_extra is not None:
            liveness_extra()

    def handle(msg) -> str | None:
        """Process one queue message; returns its tag for stop detection."""
        tag = msg[0]
        if tag == "ghost":
            _tag, key, payload, crc = msg
            if verify_payload(payload, crc):
                ghosts[key] = payload
            else:
                # Corrupted in transit: drop it and ask the sender for a
                # retransmit. The retry loop keeps waiting for the fresh
                # copy.
                stats["checksum_bad"] += 1
                queues[owner(key[0])].put(("nack", key, rank))
        elif tag == "nack":
            _tag, key, req_rank = msg
            payload = sent_store[key]
            queues[req_rank].put(
                ("ghost", key, payload, payload_checksum(payload))
            )
            stats["resends"] += 1
        return tag

    for block_index, blk in enumerate(grid.blocks()):
        if owner(blk) != rank:
            continue
        _rank_inject(rank, block_index)
        # Pull messages until every cross-rank ghost for blk is here.
        needed = [
            (tuple(b - d for b, d in zip(blk, direction)), direction)
            for direction in _DIRECTIONS
            if min(b - d for b, d in zip(blk, direction)) >= 0
        ]
        needed = [
            (src, direction)
            for src, direction in needed
            if owner(src) != rank
        ]
        while any(
            (src, blk, direction) not in ghosts for src, direction in needed
        ):
            msg = queue_get_with_retry(
                queues[rank],
                deadline=deadline,
                liveness=liveness,
                what=f"ghosts for block {blk} on rank {rank}",
            )
            handle(msg)
        halo = _assemble_halo(grid, blk, local_blocks, ghosts, owner, rank)
        (i0, i1), (j0, j1), (k0, k1) = _block_ranges(grid, blk)
        # The halo's [0, 0, 0] is cube cell (i0-1, j0-1, k0-1).
        fill_box(
            halo, (i0, j0, k0), (i1 - 1, j1 - 1, k1 - 1),
            sab, sac, sbc, g2, origin=(i0 - 1, j0 - 1, k0 - 1),
        )
        data = np.ascontiguousarray(halo[1:, 1:, 1:])
        local_blocks[blk] = data
        # Push ghosts to cross-rank successors.
        gi, gj, gk = grid.grid_shape
        for direction in _DIRECTIONS:
            dst = tuple(b + d for b, d in zip(blk, direction))
            if dst[0] >= gi or dst[1] >= gj or dst[2] >= gk:
                continue
            dst_rank = owner(dst)
            if dst_rank == rank:
                continue
            payload = _boundary_slice(data, direction)
            key = (blk, dst, direction)
            crc = payload_checksum(payload)
            sent_store[key] = payload
            wire = payload
            spec = _faults.fire(
                "corrupt_ghost", engine="mpirun", rank=dst_rank
            )
            if spec is not None:
                # Wire corruption happens after the checksum: the
                # receiver must catch it.
                wire = corrupt_payload(payload)
            queues[dst_rank].put(("ghost", key, wire, crc))
            sent_messages += 1
            sent_bytes += payload.size * 8

    final = None
    if owner(terminal) == rank:
        final = float(local_blocks[terminal][-1, -1, -1])
    result_q.put((rank, final, sent_messages, sent_bytes, dict(stats)))

    if service_after:
        # Keep answering NACKs for payloads this rank sent until every
        # rank is done (the driver sends the stop sentinel then). No
        # overall deadline: slow peers are legitimate; an orphaned rank
        # exits via the liveness check.
        while True:
            try:
                msg = queues[rank].get(timeout=0.5)
            except _queue.Empty:
                liveness()
                continue
            if handle(msg) == "stop":
                break
    return sent_store, stats


def run_distributed(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    block: int | tuple[int, int, int] = 8,
    procs: int = 3,
    mapping: str = "pencil",
) -> DistributedResult:
    """Compute the optimal SP score on ``procs`` real processes.

    Each rank stores only its own blocks; ghosts travel through
    ``multiprocessing`` queues with CRC32 verification and NACK-driven
    retransmission. Falls back to a single in-process rank when ``fork``
    is unavailable or ``procs == 1``. A dead rank raises
    :class:`WorkerFailure` carrying the failure log.
    """
    check_sequences((sa, sb, sc), count=3)
    check_positive("procs", procs)
    if scheme.is_affine:
        raise ValueError("run_distributed implements the linear gap model")
    n1, n2, n3 = len(sa), len(sb), len(sc)
    grid = BlockGrid.for_sequences(n1, n2, n3, block)
    sab, sac, sbc = scheme.profile_matrices(sa, sb, sc)
    g2 = 2.0 * scheme.gap

    if procs == 1 or not fork_available():
        from repro.cluster.execute import execute_blocked

        res = execute_blocked(
            sa, sb, sc, scheme, block=block, procs=1, mapping=mapping
        )
        return DistributedResult(
            score=res.score, messages=0, comm_bytes=0, procs=1
        )

    ctx = mp.get_context("fork")
    queues = [ctx.Queue() for _ in range(procs)]
    result_q = ctx.Queue()
    workers: dict[int, mp.Process] = {
        r: ctx.Process(
            target=_rank_main,
            args=(
                r, grid, procs, mapping, sab, sac, sbc, g2, queues, result_q
            ),
            daemon=True,
        )
        for r in range(1, procs)
    }
    try:
        for w in workers.values():
            w.start()

        reported: set[int] = set()

        def check_ranks() -> None:
            for r, w in workers.items():
                if r not in reported and not w.is_alive() and w.exitcode != 0:
                    record = FailureRecord(
                        engine="mpirun",
                        worker=r,
                        reason=f"rank {r} died before reporting",
                        exitcode=w.exitcode,
                    )
                    _obs.record_failure("mpirun", r, None, record.reason)
                    raise WorkerFailure(
                        f"rank {r} died before reporting its result "
                        f"(exitcode {w.exitcode})",
                        [record],
                    )

        sent_store0, stats0 = _rank_main(
            0, grid, procs, mapping, sab, sac, sbc, g2, queues, result_q,
            service_after=False,
            liveness_extra=check_ranks,
        )

        def service_rank0() -> None:
            """Answer NACKs addressed to rank 0 while collecting results."""
            while True:
                try:
                    msg = queues[0].get_nowait()
                except _queue.Empty:
                    return
                tag = msg[0]
                if tag == "nack":
                    _tag, key, req_rank = msg
                    payload = sent_store0[key]
                    queues[req_rank].put(
                        ("ghost", key, payload, payload_checksum(payload))
                    )
                    stats0["resends"] += 1

        score = None
        messages = 0
        comm_bytes = 0
        per_rank_stats: dict[int, dict[str, int]] = {}
        deadline = max(120.0, 2 * comm_deadline())
        end = time.perf_counter() + deadline
        while len(reported) < procs:
            service_rank0()
            check_ranks()
            if time.perf_counter() > end:
                missing = sorted(set(range(procs)) - reported)
                raise WorkerFailure(
                    f"ranks {missing} never reported within {deadline:.0f}s",
                    [
                        FailureRecord(
                            engine="mpirun", worker=r, reason="no result"
                        )
                        for r in missing
                    ],
                )
            try:
                rank, final, sent, sent_b, stats = result_q.get(timeout=0.1)
            except _queue.Empty:
                continue
            reported.add(rank)
            messages += sent
            comm_bytes += sent_b
            per_rank_stats[rank] = stats
            if final is not None:
                score = final
        # All ranks have computed; release the NACK service loops.
        for r in range(1, procs):
            queues[r].put(_STOP)
        for w in workers.values():
            w.join(timeout=30)
        # Rank 0's resend counter may have grown while servicing above.
        per_rank_stats[0] = stats0
        checksum_bad = sum(s["checksum_bad"] for s in per_rank_stats.values())
        resends = sum(s["resends"] for s in per_rank_stats.values())
        for r, s in sorted(per_rank_stats.items()):
            if s["checksum_bad"] or s["resends"]:
                _obs.record_comm(
                    r,
                    checksum_bad=s["checksum_bad"],
                    resends=s["resends"],
                )
        if score is None:  # pragma: no cover - would be a mapping bug
            raise RuntimeError("no rank reported the terminal block")
        return DistributedResult(
            score=score,
            messages=messages,
            comm_bytes=comm_bytes,
            procs=procs,
            checksum_bad=checksum_bad,
            resends=resends,
            per_rank_stats=per_rank_stats,
        )
    finally:
        reap(workers.values())
