"""Work-partitioning utilities for the parallel executor and the cluster
simulator."""

from __future__ import annotations

from repro.util.validation import check_positive


def split_range(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """Split the inclusive range ``[lo, hi]`` into ``parts`` contiguous
    inclusive chunks whose sizes differ by at most one.

    Empty chunks (``(x, x-1)``) are emitted when the range is shorter than
    ``parts`` so that every worker index always receives a (possibly empty)
    assignment.

    >>> split_range(0, 9, 3)
    [(0, 3), (4, 6), (7, 9)]
    """
    check_positive("parts", parts)
    n = hi - lo + 1
    if n <= 0:
        return [(lo, lo - 1)] * parts
    base, extra = divmod(n, parts)
    out = []
    start = lo
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append((start, start + size - 1))
        start += size
    return out


def balanced_blocks(total: int, block: int) -> list[tuple[int, int]]:
    """Chop ``0..total-1`` into inclusive blocks of at most ``block``.

    >>> balanced_blocks(10, 4)
    [(0, 3), (4, 7), (8, 9)]
    """
    check_positive("block", block)
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    return [
        (start, min(start + block - 1, total - 1))
        for start in range(0, total, block)
    ]


# ---------------------------------------------------------------------------
# Block-grid geometry for the block-tiled wavefront
# ---------------------------------------------------------------------------
#
# The parallel executor (:class:`repro.parallel.executor.WavefrontPool`)
# tiles the DP cube into genuine 3-D blocks:
# a fixed contiguous *row slab* per worker crossed with *plane bands*
# (runs of consecutive anti-diagonal planes). Each block is the cube
# region ``{(i, j, k) : i in slab, i + j + k in band}`` — bounded by two
# planes and two i-levels — and depends only on the block below it
# (rows ``slab.lo - 1``) and its own slab's previous band, the
# (slab x band) projection of the <= 7 predecessor blocks
# :class:`repro.cluster.blockgrid.BlockGrid` models (the plane kernel
# reads rows ``i-1`` and ``i`` only, so the cross-worker dependency is
# one-directional: downward).


def row_slabs(n1: int, workers: int) -> list[tuple[int, int]]:
    """Fixed contiguous row slabs for the block-tiled sweep.

    One inclusive ``(lo, hi)`` slab per *active* worker over rows
    ``0..n1`` — never empty: the result has ``min(workers, n1 + 1)``
    entries, so callers spawn exactly as many workers as have work.
    Every row carries the same total cell count across the whole sweep
    (``(n2+1) * (n3+1)`` cells), so equal slabs are load-balanced even
    though individual planes are not.
    """
    check_positive("workers", workers)
    if n1 < 0:
        raise ValueError(f"n1 must be >= 0, got {n1}")
    return split_range(0, n1, min(workers, n1 + 1))


def plane_bands(dmax: int, depth: int) -> list[tuple[int, int]]:
    """Split planes ``0..dmax`` into inclusive bands of at most ``depth``.

    A (slab x band) block streams ``depth`` planes between
    synchronisations instead of syncing every plane.
    """
    if dmax < 0:
        raise ValueError(f"dmax must be >= 0, got {dmax}")
    return balanced_blocks(dmax + 1, depth)


def plane_window(depth: int) -> int:
    """Plane buffers required to stream bands of ``depth`` planes.

    The kernel reads three planes back, so writing plane ``d`` destroys
    plane ``d - W`` of a ``W``-deep rotating window, which the worker
    above may still read while computing planes ``d - W + 1 .. d - W + 3``.
    A worker may therefore only start a band ending at plane ``e`` once
    its upper neighbour has finished plane ``e - W + 3``. With
    ``W = 2 * depth + 3`` adjacent workers run a full band apart without
    blocking — the minimum window that pipelines instead of alternating
    (``W = depth + 3`` already deadlock-free, but lock-step).
    """
    check_positive("depth", depth)
    return 2 * depth + 3


def band_depth(dmax: int, workers: int, cap: int = 16) -> int:
    """Default band depth: ~2 bands in flight per worker, capped.

    Deep bands amortise synchronisation; shallow bands fill and drain
    the worker pipeline faster. ``(dmax + 1) // (2 * workers)`` keeps at
    least two bands per worker so the pipeline stays full, the cap
    bounds the plane-window memory (``(2 * cap + 3)`` plane buffers).
    """
    check_positive("workers", workers)
    if dmax < 0:
        raise ValueError(f"dmax must be >= 0, got {dmax}")
    return max(4, min(cap, (dmax + 1) // (2 * workers) or 1))


def block_predecessors(
    w: int, b: int, n_slabs: int, n_bands: int
) -> list[tuple[int, int]]:
    """Flow predecessors of block ``(w, b)`` in the (slab x band) grid.

    The kernel's reads are downward-only in rows (rows ``i-1`` and ``i``),
    so a block waits on at most two earlier blocks: the same slab's
    previous band (its own plane history) and the band of the slab
    below it (the boundary row). This is the (slab x band) projection of
    the <= 7-predecessor dependency structure
    :meth:`repro.cluster.blockgrid.BlockGrid.dependencies` models for
    general 3-D tiles.
    """
    for name, val, hi in (("w", w, n_slabs), ("b", b, n_bands)):
        if not 0 <= val < hi:
            raise ValueError(f"{name}={val} outside grid ({n_slabs}x{n_bands})")
    deps = []
    if b > 0:
        deps.append((w, b - 1))
    if w > 0:
        deps.append((w - 1, b))
    return deps
