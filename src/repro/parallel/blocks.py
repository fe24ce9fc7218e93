"""Per-call block-tiled wavefront: a one-job :class:`WavefrontPool`.

``method="blocks"`` runs one alignment on the parallel executor without
keeping workers around: it opens a :class:`WavefrontPool` sized to the
cube, with its worker count clamped to the job's row-slab count, runs
the single job and closes the pool. Workers own fixed row slabs and
stream plane bands synchronised by per-worker readiness counters
(:mod:`repro.parallel.blockwave`) — the CPU analogue of the coarse 3-D
blocks TrioSeq uses to keep GPU SMs saturated.

Callers with many jobs can hold a :class:`WavefrontPool` instead and
pay the worker spawn once (``python -m repro.bench --exp f3pool`` times
that against the serial sweep).

Determinism: scores and rows are bit-identical to
:func:`repro.core.wavefront.wavefront_sweep`, with or without mid-sweep
recovery (see ``docs/robustness.md``).
"""

from __future__ import annotations

from repro.core.scoring import ScoringScheme
from repro.core.types import Alignment3
from repro.parallel.executor import WavefrontPool
from repro.parallel.partition import row_slabs
from repro.util.validation import check_positive, check_sequences


def _one_job_pool(
    sa: str, sb: str, sc: str, scheme: ScoringScheme, workers: int
) -> WavefrontPool:
    """Validate the job, then open a pool sized to exactly this cube."""
    check_sequences((sa, sb, sc), count=3)
    check_positive("workers", workers)
    if scheme.is_affine:
        raise ValueError("the blocks engine implements the linear gap model")
    active = len(row_slabs(len(sa), workers))
    return WavefrontPool((len(sa), len(sb), len(sc)), workers=active)


def score3_blocks(
    sa: str, sb: str, sc: str, scheme: ScoringScheme, workers: int = 2
) -> float:
    """Optimal SP score via the block-tiled wavefront (O(n^2) memory)."""
    with _one_job_pool(sa, sb, sc, scheme, workers) as pool:
        return pool.score3(sa, sb, sc, scheme)


def align3_blocks(
    sa: str, sb: str, sc: str, scheme: ScoringScheme, workers: int = 2
) -> Alignment3:
    """Optimal three-way alignment via the block-tiled wavefront."""
    with _one_job_pool(sa, sb, sc, scheme, workers) as pool:
        aln = pool.align3(sa, sb, sc, scheme)
    aln.meta.update(
        engine="blocks", workers=workers, active_workers=pool.workers
    )
    return aln
