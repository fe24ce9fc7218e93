"""Per-row k-interval ("tube") pruning regions in O(n^2) memory.

The one keep-region representation of the 3-D DP: one interval
``[klo, khi]`` of ``k`` per ``(i, j)`` cell, two ``(n1+1, n2+1)``
integer planes, O(n^2) total. A dense boolean cube would cost
``(n1+1)(n2+1)(n3+1)`` bytes, more than every buffer a pruned sweep
needs; with intervals, the validity test on each wavefront plane is two
elementwise compares against sliced views, with no cube gather.

An interval per row is the *hull* of an arbitrary kept set along ``k``,
so it can only add cells back, never drop one; pruning stays safe (the
optimum's cells all survive). The Carrillo–Lipman builder
(:func:`repro.core.bounds.carrillo_lipman_tube`) constructs the hull
directly from the bound slabs, and the banded engine's scaled-diagonal
region (:func:`repro.core.band.band_tube`) is exactly interval-shaped.

Empty rows are encoded as ``khi < klo`` (canonically ``(0, -1)``); the
kernel's ``klo <= k <= khi`` test then rejects every ``k`` without a
special case.

A traceback sweep over a tube keeps its moves in a :class:`TubeMoves`
store: one byte per kept cell, not one per cube cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PruningTube:
    """Keep-region of a 3-D DP cube as per-``(i, j)`` ``k`` intervals.

    Attributes
    ----------
    klo, khi:
        Integer arrays of shape ``(n1+1, n2+1)``; cell ``(i, j, k)`` is
        kept iff ``klo[i, j] <= k <= khi[i, j]``. Rows with
        ``khi < klo`` are fully pruned.
    n3:
        Third cube dimension; intervals are clamped to ``[0, n3]`` at
        construction so the kernel's test subsumes cube validity.
    """

    klo: np.ndarray
    khi: np.ndarray
    n3: int

    def __post_init__(self) -> None:
        if self.klo.shape != self.khi.shape or self.klo.ndim != 2:
            raise ValueError(
                f"klo/khi must be matching 2-D arrays, got "
                f"{self.klo.shape} and {self.khi.shape}"
            )
        if self.n3 < 0:
            raise ValueError(f"n3 must be >= 0, got {self.n3}")
        # Canonicalise: inside [0, n3], empty rows as (0, -1). The kernel
        # relies on klo >= 0 and khi <= n3 to skip the cube-bounds check.
        self.klo = np.clip(self.klo, 0, self.n3).astype(np.intp, copy=False)
        self.khi = np.clip(self.khi, -1, self.n3).astype(np.intp, copy=False)
        empty = self.khi < self.klo
        if empty.any():
            self.klo[empty] = 0
            self.khi[empty] = -1

    @property
    def shape(self) -> tuple[int, int, int]:
        """The ``(n1+1, n2+1, n3+1)`` cube shape this tube prunes."""
        return (self.klo.shape[0], self.klo.shape[1], self.n3 + 1)

    @property
    def total_cells(self) -> int:
        n1p, n2p, n3p = self.shape
        return n1p * n2p * n3p

    @property
    def kept_cells(self) -> int:
        """Cells the pruned sweep will actually evaluate."""
        return int(np.maximum(self.khi - self.klo + 1, 0).sum())

    @property
    def kept_fraction(self) -> float:
        total = self.total_cells
        return self.kept_cells / total if total else 0.0

    @property
    def nbytes(self) -> int:
        """Auxiliary memory of the representation itself (O(n^2))."""
        return self.klo.nbytes + self.khi.nbytes

    def keep_cell(self, i: int, j: int, k: int) -> None:
        """Force one cell into the tube (grows its row's interval)."""
        if self.khi[i, j] < self.klo[i, j]:  # row was empty
            self.klo[i, j] = self.khi[i, j] = k
        else:
            self.klo[i, j] = min(self.klo[i, j], k)
            self.khi[i, j] = max(self.khi[i, j], k)

    def contains(self, i: int, j: int, k: int) -> bool:
        return bool(self.klo[i, j] <= k <= self.khi[i, j])

    @property
    def covers_cube(self) -> bool:
        """True when nothing is pruned (every interval is ``[0, n3]``)."""
        return bool((self.klo == 0).all() and (self.khi == self.n3).all())

    def plane_row_windows(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-plane live-row hulls for a wavefront sweep.

        Returns ``(rlo, rhi)`` of length ``n1 + n2 + n3 + 1``: on plane
        ``d`` every kept cell has ``rlo[d] <= i <= rhi[d]`` (planes with
        no kept cells get ``rlo > rhi``). The sweep driver uses these to
        hand the kernel a row range proportional to the tube's thickness
        instead of the full plane, which removes the per-plane fixed
        cost that otherwise floors thin-tube sweeps. Each hull is a
        superset of the truly live rows (a row's plane interval
        ``[i + j + klo, i + j + khi]`` is itself hulled over ``j``), so
        extra rows only cost work — never correctness.
        """
        n1p, n2p = self.klo.shape
        dmax = (n1p - 1) + (n2p - 1) + self.n3
        nonempty = self.khi >= self.klo
        i = np.arange(n1p)[:, None]
        j = np.arange(n2p)[None, :]
        # Per row i: the hull of planes touched by any kept cell.
        dlo = np.where(nonempty, i + j + self.klo, dmax + 1).min(axis=1)
        dhi = np.where(nonempty, i + j + self.khi, -1).max(axis=1)
        ds = np.arange(dmax + 1)
        live = (dlo[:, None] <= ds) & (ds <= dhi[:, None])  # (n1p, planes)
        any_rows = live.any(axis=0)
        rlo = np.where(any_rows, live.argmax(axis=0), 1)
        rhi = np.where(any_rows, n1p - 1 - live[::-1].argmax(axis=0), 0)
        return rlo.astype(np.intp), rhi.astype(np.intp)


class TubeMoves:
    """Int8 move store over the cells a :class:`PruningTube` keeps.

    The kept intervals are laid end to end in C order of ``(i, j)``:
    with ``off`` the exclusive prefix sum of the interval lengths, cell
    ``(i, j, k)`` lives at ``arena[off[i, j] + k - klo[i, j]]``. On the
    plane ``d = i + j + k`` that is ``arena[base(i, j) + d]`` with
    ``base = off - i - j - klo``, so :meth:`put_block` writes a plane
    block of :func:`repro.core.wavefront.compute_plane_rows` with one
    add, one gather and one ``put``. The last arena byte,
    ``arena[dump]``, takes the writes of the block's pruned cells.

    ``base`` is kept only over each row's hull of non-empty ``(i, j)``:
    ``base(i, j) = bases[row_at[i] + j]``. A thin tube's hulls are a few
    cells wide, so the store is ``kept_cells + 1`` bytes plus O(n1 + hull
    cells) offsets, not an ``(n1+1, n2+1)`` table; the full tube's hulls
    are whole rows, and its arena is the dense C-order cube.

    Reads go through ``M[i, j, k]`` and ``M.shape``, as on a dense move
    cube, so :func:`repro.core.traceback.traceback_moves` walks either.
    A cell outside the tube reads 0, which the walk reports as a broken
    chain.
    """

    def __init__(self, tube: PruningTube):
        n1p, n2p, _ = tube.shape
        lengths = np.maximum(tube.khi - tube.klo + 1, 0)
        off = np.cumsum(lengths.ravel()).reshape(n1p, n2p) - lengths
        i, j = np.arange(n1p), np.arange(n2p)
        base = off - tube.klo - np.add.outer(i, j)
        # Row hulls of the non-empty (i, j): [first, last] per row i.
        kept = lengths > 0
        row_any = kept.any(axis=1)
        first = np.where(row_any, kept.argmax(axis=1), 0)
        last = np.where(row_any, n2p - 1 - kept[:, ::-1].argmax(axis=1), -1)
        width = last - first + 1
        in_hull = (first[:, None] <= j) & (j <= last[:, None])
        self.bases = base[in_hull]
        self.row_at = (np.cumsum(width) - width - first)[:, None]
        self.cols = j
        self.shape = tube.shape
        self.klo, self.khi = tube.klo, tube.khi
        self.dump = int(lengths.sum())
        self.arena = np.zeros(self.dump + 1, dtype=np.int8)

    @property
    def nbytes(self) -> int:
        """Bytes the store owns: the arena and the offset tables."""
        return (
            self.arena.nbytes
            + self.bases.nbytes
            + self.row_at.nbytes
            + self.cols.nbytes
        )

    def put_block(
        self,
        d: int,
        row_lo: int,
        jlo: int,
        mv: np.ndarray,
        pruned: np.ndarray,
        scratch: np.ndarray,
    ) -> None:
        """Store the moves ``mv`` of the plane-``d`` block whose corner
        cell is ``(row_lo, jlo, d - row_lo - jlo)``.

        Cells marked in ``pruned`` lie outside the tube and write the
        dump byte. ``scratch`` is a C-contiguous ``(2, h, w)`` intp
        buffer the call overwrites for the block's addresses.
        """
        h, w = mv.shape
        at, addr = scratch
        rows = self.row_at[row_lo : row_lo + h]
        np.add(rows, self.cols[jlo : jlo + w], out=at)
        # Outside a row's hull the gather index is clipped; those cells
        # are pruned and get the dump address below.
        self.bases.take(at, out=addr, mode="clip")
        addr += d
        np.copyto(addr, self.dump, where=pruned)
        self.arena.put(addr, mv)

    def __getitem__(self, cell: tuple[int, int, int]) -> int:
        i, j, k = cell
        if self.klo[i, j] <= k <= self.khi[i, j]:
            b = self.bases[self.row_at[i, 0] + j]
            return int(self.arena[b + i + j + k])
        return 0
