"""Vectorised anti-diagonal (wavefront) 3-D DP engine.

The algorithmic core of the reproduction. All cells on the plane
``i + j + k = d`` are mutually independent given planes ``d-1``, ``d-2`` and
``d-3`` (single-step moves read ``d-1``, double-step moves ``d-2``, the
triple match ``d-3``). The engine therefore sweeps ``d`` from 0 to
``n1+n2+n3``, computing each plane with whole-array NumPy operations — this
is the vectorisation that substitutes for the compiled kernels of the
original system, and the plane is also the unit that the parallel engines
(:mod:`repro.parallel`) slice across workers.

Plane representation
--------------------
Plane ``d`` is stored as a *padded* dense rectangle of shape
``(n1+2, n2+2)``: entry ``[i+1, j+1]`` holds cell ``(i, j, d-i-j)``, and the
leading pad row/column permanently holds the ``NEG`` sentinel so that
shifted reads (``i-1``/``j-1``) never need bounds checks. Cells whose
implied ``k = d-i-j`` falls outside ``[0, n3]`` also hold ``NEG``; this is
what makes the "same (i, j), previous plane" read correctly model the
``k-1`` moves. Only four plane buffers are live at a time.

Within each plane, computation is restricted to the bounding box of valid
cells, so the total vector work is close to the true cell count rather than
``3x`` it.

Steady-state allocation freedom
-------------------------------
The kernel evaluates the 7-candidate maximum as an in-place running
max/argmax over preallocated scratch from a
:class:`~repro.core.workspace.PlaneWorkspace`, and scatters argmax moves
into the move cube through a strided view instead of ``np.nonzero``
fancy indexing. Per-sweep invariants — the ``i + j`` grid, the
clip-padded substitution tables and the flat gather offsets — are built
*once per sweep* by :meth:`~repro.core.workspace.PlaneWorkspace.bind_profiles`
(triggered lazily by an identity check on the profile matrices), so each
plane costs ~25 cheap in-place ufunc calls: the ``k`` lattice is a
single subtract, validity a single compare, the AB substitution term a
plain table view and the AC/BC terms one add + one flat ``take`` each.
The score-only path additionally folds the shared ``2*gap`` term out of
six candidates and accumulates the running max directly into the output
plane (``max`` commutes exactly with adding a constant in float64, so
values are unchanged).

The unpruned hot path performs **zero** array allocations per plane;
results stay bit-identical to the original allocating kernel, which is
kept verbatim in ``tests/reference/kernel.py`` for A/B benchmarking
(``benchmarks/bench_kernel.py``) and the bit-identity tests
(``tests/test_workspace.py``). The tube-pruned path may allocate a few
O(row)/O(col) temporaries while tightening the live box.

Alignment modes
---------------
Global, semi-global and local alignment are one recurrence that differs
only in a restart floor and in where the answer is read (``mode``):

==============  ============================  ===========================
mode            cells that may restart at 0   answer
==============  ============================  ===========================
``global``      none (origin only)            the terminal corner
``semiglobal``  the i=0, j=0 and k=0 faces    best cell on the i=n1, j=n2
                                              and k=n3 faces
``local``       every cell                    best cell anywhere
==============  ============================  ===========================

Ties in the answer go to the first cell in ``(d, i, j)`` order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.core.dp3d import NEG
from repro.obs import hooks as _obs
from repro.core.scoring import ScoringScheme
from repro.core.traceback import traceback_moves
from repro.core.tube import PruningTube, TubeMoves
from repro.core.types import MODES, Alignment3, moves_to_columns
from repro.core.workspace import PlaneWorkspace
from repro.util.validation import check_sequences


def plane_bounds(
    d: int, n1: int, n2: int, n3: int
) -> tuple[int, int, int, int]:
    """Bounding box ``(ilo, ihi, jlo, jhi)`` of valid cells on plane ``d``.

    A cell ``(i, j)`` is on the plane when ``k = d - i - j`` lies in
    ``[0, n3]``; the box bounds are over all such cells. ``ihi < ilo`` means
    the plane is empty (``d`` out of range).
    """
    ilo = max(0, d - n2 - n3)
    ihi = min(n1, d)
    jlo = max(0, d - n1 - n3)
    jhi = min(n2, d)
    return ilo, ihi, jlo, jhi


def _flat(a: np.ndarray) -> np.ndarray:
    """A flat C-order view of ``a`` (copying only if non-contiguous)."""
    if a.flags.c_contiguous:
        return a.reshape(-1)
    return np.ascontiguousarray(a).reshape(-1)


def _take_better(
    best: np.ndarray,
    cand: np.ndarray,
    mv: np.ndarray,
    move: int,
    gt: np.ndarray,
) -> None:
    """Fold candidate ``cand`` into the running max/argmax in place.

    Strictly-greater replacement reproduces ``argmax``'s first-wins tie
    break over the move order 1..7, so the traceback is bit-identical to
    the 7-candidate-stack formulation.
    """
    np.greater(cand, best, out=gt)
    np.copyto(mv, np.int8(move), where=gt)
    np.maximum(best, cand, out=best)


def _band_count(t: int, h: int, w: int) -> int:
    """Pairs ``(a, b)`` with ``0 <= a < h``, ``0 <= b < w``, ``a + b <= t``.

    Inclusion-exclusion over triangular numbers: the unconstrained count
    is ``T2(t) = (t+1)(t+2)/2``; subtract the ``a >= h`` and ``b >= w``
    overshoots, add back their overlap. Lets the kernel count a plane
    block's on-cube cells in closed form instead of materialising and
    reducing a boolean mask.
    """

    def T2(x: int) -> int:
        return (x + 1) * (x + 2) // 2 if x >= 0 else 0

    return T2(t) - T2(t - h) - T2(t - w) + T2(t - h - w)


def _scatter_moves(
    move_cube: np.ndarray,
    mv: np.ndarray,
    valid: np.ndarray,
    K: np.ndarray,
    d: int,
    row_lo: int,
    jlo: int,
    dims: tuple[int, int, int],
) -> None:
    """Write the block's argmax moves into ``move_cube[..., i, j, d-i-j]``.

    The cube addresses of a plane block are affine in ``(i, j)`` —
    ``addr = i*(plane_sz-1) + j*n3 + d`` with ``plane_sz =
    (n2+1)*(n3+1)`` — so a single strided int8 view covers them and a
    masked ``copyto`` replaces the ``np.nonzero`` + triple fancy-index
    scatter without allocating. Every address of the view lies inside
    the cube (the corner ``(n1, n2)`` lands exactly on the last byte),
    and distinct ``(i, j)`` never alias for ``n3 >= 1``; ``n3 == 0``
    would make the ``j`` stride zero, so it falls back to the sparse
    scatter (at most one valid cell per row there).

    A stack of cubes scatters in the same call: ``move_cube`` of shape
    ``(s, n1+1, n2+1, n3+1)`` takes ``mv`` of shape ``(s, h, w)``, and
    the view's leading stride is one cube.
    """
    n1, n2, n3 = dims
    if n3 == 0:
        ii, jj = np.nonzero(valid)
        move_cube[..., row_lo + ii, jlo + jj, K[ii, jj]] = mv[..., ii, jj]
        return
    plane_sz = (n2 + 1) * (n3 + 1)
    start = row_lo * (plane_sz - 1) + jlo * n3 + d
    strides = (plane_sz - 1, n3)  # itemsize 1 (int8): strides in cells
    if mv.ndim == 3:
        strides = ((n1 + 1) * plane_sz,) + strides
    view = np.lib.stride_tricks.as_strided(
        _flat(move_cube)[start:], shape=mv.shape, strides=strides
    )
    np.copyto(view, mv, where=valid)


def compute_plane_rows(
    d: int,
    row_lo: int,
    row_hi: int,
    P1: np.ndarray,
    P2: np.ndarray,
    P3: np.ndarray,
    out: np.ndarray,
    sab: np.ndarray,
    sac: np.ndarray,
    sbc: np.ndarray,
    g2: float,
    dims: tuple[int, int, int],
    ws: PlaneWorkspace,
    move_cube: np.ndarray | TubeMoves | None = None,
    tube: PruningTube | None = None,
    mode: str = "global",
) -> int:
    """Compute rows ``row_lo..row_hi`` (inclusive, cell coordinates) of plane
    ``d`` into the padded buffer ``out``.

    This is the kernel shared by the serial engine and the parallel
    executor: each caller decides how to partition rows across workers
    and simply invokes this function per worker per plane.

    Parameters
    ----------
    d:
        Plane index (``i + j + k``).
    row_lo, row_hi:
        Inclusive ``i`` range this call is responsible for; it is clipped to
        the plane's valid bounding box.
    P1, P2, P3:
        Padded plane buffers for ``d-1``, ``d-2``, ``d-3``.
    out:
        Padded plane buffer to write; rows outside the valid box in
        ``[row_lo, row_hi]`` are reset to ``NEG``.
    sab, sac, sbc:
        Pairwise profile matrices from
        :meth:`~repro.core.scoring.ScoringScheme.profile_matrices`.
    g2:
        ``2 * scheme.gap`` (the residue-versus-two-gaps column score).
    dims:
        ``(n1, n2, n3)``.
    ws:
        Scratch workspace; one per concurrently-running worker.
    move_cube:
        Optional move store for traceback; the argmax moves are scattered
        into it. Without ``tube`` it is the dense int8 cube
        ``(n1+1, n2+1, n3+1)``, written through one strided view per
        block. With ``tube`` it is the tube's
        :class:`~repro.core.tube.TubeMoves`, written through
        :meth:`~repro.core.tube.TubeMoves.put_block`.
    tube:
        Optional :class:`~repro.core.tube.PruningTube`: per-``(i, j)``
        keep-intervals of ``k`` in O(n^2) memory. The validity test is
        two compares against sliced interval views (its intervals are
        clamped to ``[0, n3]``, so it subsumes the cube-bounds check),
        and the computed box is tightened to the tube's live cells.
    mode:
        One of :data:`repro.cache.key.MODES`; it sets only the floor a
        cell may restart from. ``"local"`` cells restart at 0 anywhere,
        ``"semiglobal"`` cells on the ``i=0``, ``j=0`` and ``k=0`` faces
        start free. A restart (move 0) wins ties: a cell restarts when
        the best of moves 1..7 is ``<=`` its floor. Global-only with
        ``tube``.

    Returns
    -------
    int
        Number of valid (computed, unpruned) cells in this row block.
    """
    n1, n2, n3 = dims
    # plane_bounds(), inlined: this is the hottest function in the repo.
    row_lo = max(row_lo, d - n2 - n3, 0)
    row_hi = min(row_hi, n1, d)
    jlo = max(0, d - n1 - n3)
    jhi = min(n2, d)
    if row_lo > row_hi or jlo > jhi:
        return 0

    # Reset target rows: stale values from plane d-4 live in this buffer.
    out[row_lo + 1 : row_hi + 2, :] = NEG

    if d == 0:
        # Only the origin exists; it has no predecessors. (Its box is
        # the single cell (0, 0) whenever this call covers row 0.)
        origin_kept = tube is None or tube.contains(0, 0, 0)
        if row_lo == 0 and jlo == 0 and origin_kept:
            out[1, 1] = 0.0
            return 1
        return 0

    if not ws.bound_to(sab, sac, sbc, dims):
        # First plane of this sweep: build the per-sweep tables once.
        ws.bind_profiles(sab, sac, sbc, dims)

    (
        K,
        kc,
        valid,
        tmp,
        fi2,
        gv2,
        c,
        mv,
        d0v,
        g_ab,
        rtac,
        ctbc,
    ) = ws.box_views(row_lo, row_hi, jlo, jhi)
    np.subtract(d, d0v, out=K)
    # kc = clip(k, 0, n3): the shared gather index, and cheap validity —
    # a cell is on the cube exactly when clamping was a no-op. The box's
    # K range is known in Python ([d-row_hi-jhi, d-row_lo-jlo]), so each
    # one-sided clamp runs only when it can actually bite.
    kmin = d - row_hi - jhi
    kmax = d - row_lo - jlo
    if kmin >= 0:
        if kmax <= n3:
            kc = K  # every cell is on the cube; no clamp, all valid
        else:
            np.minimum(K, n3, out=kc)
    elif kmax <= n3:
        np.maximum(K, 0, out=kc)
    else:
        np.maximum(K, 0, out=kc)
        np.minimum(kc, n3, out=kc)
    all_valid = kc is K
    fast = move_cube is None and tube is None
    if fast:
        # Score-only, unpruned: only the *invalid* cells are ever
        # needed (NEG write-back and the complement count).
        if not all_valid:
            np.not_equal(K, kc, out=tmp)
    elif tube is not None:
        # Interval test: klo <= K <= khi. The tube's intervals are
        # clamped to [0, n3], so this subsumes the cube-bounds check —
        # two compares against plain 2-D views, no cube gather.
        np.greater_equal(
            K, tube.klo[row_lo : row_hi + 1, jlo : jhi + 1], out=valid
        )
        np.less_equal(
            K, tube.khi[row_lo : row_hi + 1, jlo : jhi + 1], out=tmp
        )
        valid &= tmp
    else:
        np.equal(K, kc, out=valid)

    if tube is not None:
        # Tighten the computed box to the tube's live cells: with aggressive
        # Carrillo–Lipman pruning the live region is a thin tube around the
        # main diagonal, so this is where the pruning speedup comes from.
        # (The full row range was already reset to NEG above, so skipped
        # cells correctly read as unreachable from later planes.)
        rows_any = valid.any(axis=1)
        if not rows_any.any():
            return 0
        r_lo = int(rows_any.argmax())
        r_hi = len(rows_any) - 1 - int(rows_any[::-1].argmax())
        cols_any = valid.any(axis=0)
        col_lo = int(cols_any.argmax())
        col_hi = len(cols_any) - 1 - int(cols_any[::-1].argmax())
        row_lo, row_hi = row_lo + r_lo, row_lo + r_hi
        jlo, jhi = jlo + col_lo, jlo + col_hi
        # Keep the *computed* K/kc/valid data in place (offset views);
        # re-derive the still-unwritten scratch at the new box shape.
        K = K[r_lo : r_hi + 1, col_lo : col_hi + 1]
        kc = kc[r_lo : r_hi + 1, col_lo : col_hi + 1]
        valid = valid[r_lo : r_hi + 1, col_lo : col_hi + 1]
        h = row_hi - row_lo + 1
        w = jhi - jlo + 1
        tmp = ws.tmp[:h, :w]
        fi2 = ws._idx2_flat[: 2 * h * w].reshape(2, h, w)
        gv2 = ws._gacbc_flat[: 2 * h * w].reshape(2, h, w)
        c = ws.cand[:h, :w]
        mv = ws.moves[:h, :w]
        g_ab = ws.tab_ab[row_lo : row_hi + 1, jlo : jhi + 1]
        rtac = ws.rows_tac[row_lo : row_hi + 1]
        ctbc = ws.cols_tbc[jlo : jhi + 1]

    # Shifted reads of previous planes. Padded buffers make the i-1 / j-1
    # shifts unconditional: the pad row/col holds NEG.
    r0, r1 = row_lo + 1, row_hi + 2  # padded row slice for (i)
    c0, c1 = jlo + 1, jhi + 2
    p1_00 = P1[r0:r1, c0:c1]  # (i,   j)   -> move C
    p1_10 = P1[r0 - 1 : r1 - 1, c0:c1]  # (i-1, j)   -> move A
    p1_01 = P1[r0:r1, c0 - 1 : c1 - 1]  # (i,   j-1) -> move B
    p2_11 = P2[r0 - 1 : r1 - 1, c0 - 1 : c1 - 1]  # move AB
    p2_10 = P2[r0 - 1 : r1 - 1, c0:c1]  # move AC
    p2_01 = P2[r0:r1, c0 - 1 : c1 - 1]  # move BC
    p3_11 = P3[r0 - 1 : r1 - 1, c0 - 1 : c1 - 1]  # move ABC

    # Substitution terms from the per-sweep clip-padded tables: AB is a
    # plain view (it only depends on i, j), AC and BC come out of one
    # fused flat ``take`` over the concatenated table (cols_tbc carries
    # tab_bc's offset). Where an index was clamped the gathered value is
    # garbage, but the corresponding plane read is NEG (invalid source),
    # so the candidate can never win; the tables reproduce the reference
    # kernel's clamped reads exactly, garbage included.
    np.add(rtac, kc, out=fi2[0])
    np.add(ctbc, kc, out=fi2[1])
    ws._tab_acbc_flat.take(fi2, out=gv2)
    g_ac = gv2[0]
    g_bc = gv2[1]

    # Running max/argmax over the 7 move candidates, accumulated directly
    # into the output plane (distinct buffer from P1/P2/P3: the rotation
    # keeps four live planes). Addition order within each candidate
    # matches the stack formulation exactly, and ``max`` is exact for
    # float64, so the plane is bit-identical to the reference kernel.
    best = out[r0:r1, c0:c1]
    if move_cube is None:
        # Score-only: moves 1-6 all add the same g2 term, and float64
        # ``max`` commutes exactly with adding a constant (monotone
        # rounding), so fold g2 out of the chain and add it once.
        np.maximum(p1_10, p1_01, out=best)  # moves 1, 2: A, B
        np.maximum(best, p1_00, out=best)  # move 4: C
        np.add(p2_11, g_ab, out=c)  # move 3: AB
        np.maximum(best, c, out=best)
        np.add(p2_10, g_ac, out=c)  # move 5: AC
        np.maximum(best, c, out=best)
        np.add(p2_01, g_bc, out=c)  # move 6: BC
        np.maximum(best, c, out=best)
        best += g2
        np.add(p3_11, g_ab, out=c)
        c += g_ac
        c += g_bc  # move 7: ABC
        np.maximum(best, c, out=best)
    else:
        # Move tracking compares g2-inclusive candidates in order 1..7
        # (ties must break exactly like the reference argmax).
        mv.fill(1)
        np.add(p1_10, g2, out=best)  # move 1: A
        np.add(p1_01, g2, out=c)  # move 2: B
        _take_better(best, c, mv, 2, tmp)
        np.add(p2_11, g_ab, out=c)
        c += g2  # move 3: AB
        _take_better(best, c, mv, 3, tmp)
        np.add(p1_00, g2, out=c)  # move 4: C
        _take_better(best, c, mv, 4, tmp)
        np.add(p2_10, g_ac, out=c)
        c += g2  # move 5: AC
        _take_better(best, c, mv, 5, tmp)
        np.add(p2_01, g_bc, out=c)
        c += g2  # move 6: BC
        _take_better(best, c, mv, 6, tmp)
        np.add(p3_11, g_ab, out=c)
        c += g_ac
        c += g_bc  # move 7: ABC
        _take_better(best, c, mv, 7, tmp)

    if mode != "global" and (mode == "local" or min(kmin, row_lo, jlo) <= 0):
        # Restart floor: ``free`` marks the cells that restart at 0 (the
        # score-only path leaves ``valid`` unused).
        free = tmp if move_cube is not None else valid
        np.less_equal(best, 0.0, out=free)
        if mode == "semiglobal":
            # Only cells on the i=0, j=0 and k=0 faces start free.
            face = ws.face[: row_hi - row_lo + 1, : jhi - jlo + 1]
            np.equal(K, 0, out=face)
            if row_lo == 0:
                face[0] = True
            if jlo == 0:
                face[:, 0] = True
            free &= face
        np.copyto(best, 0.0, where=free)
        if move_cube is not None:
            np.copyto(mv, 0, where=free)

    # The origin may sit inside this block on plane 0 only; for d >= 1 every
    # valid cell has at least one legal predecessor, except the origin's
    # plane which was handled above. On the fast path ``tmp`` already
    # holds the invalid cells.
    h = row_hi - row_lo + 1
    w = jhi - jlo + 1
    if fast:
        if all_valid:
            return h * w
        np.copyto(best, NEG, where=tmp)
        # Valid cells are 0 <= K <= n3 with K affine in (i, j): count
        # them in closed form instead of reducing the mask.
        return _band_count(kmax, h, w) - _band_count(kmax - n3 - 1, h, w)

    np.logical_not(valid, out=tmp)
    np.copyto(best, NEG, where=tmp)

    if move_cube is not None:
        if tube is None:
            _scatter_moves(move_cube, mv, valid, K, d, row_lo, jlo, dims)
        else:
            # tmp holds the pruned cells; the AC/BC gather is done, so
            # its index pair fi2 is free scratch.
            move_cube.put_block(d, row_lo, jlo, mv, tmp, fi2)

    if tube is None:
        # Unpruned traceback sweep: validity is still the pure band
        # condition, so the closed-form count applies here too.
        return _band_count(kmax, h, w) - _band_count(kmax - n3 - 1, h, w)
    return int(np.count_nonzero(valid))


def _tube_row_ranges(
    tube: PruningTube, dmax: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-plane kernel row ranges for a tube-pruned sweep.

    Starts from the tube's live-row hulls and widens each plane's range
    to cover the hulls of the next three planes, plus one row of margin:
    the plane buffers rotate with period 4, and the kernel resets only
    the rows it is asked to compute, so plane ``d``'s reset must cover
    every row that the live cells of planes ``d+1 .. d+3`` read (their
    shifted predecessor reads touch rows ``i-1`` and ``i``). Rows left
    outside a range keep stale plane ``d-4`` values, but only cells the
    tube marks invalid ever read them — and those are overwritten with
    ``NEG`` regardless of what they computed.
    """
    rlo, rhi = tube.plane_row_windows()
    n1p = tube.klo.shape[0]
    empty = rhi < rlo
    lo_src = np.where(empty, n1p + dmax, rlo)
    hi_src = np.where(empty, -(n1p + dmax), rhi)
    lo, hi = lo_src.copy(), hi_src.copy()
    for s in (1, 2, 3):
        np.minimum(lo[:-s], lo_src[s:], out=lo[:-s])
        np.maximum(hi[:-s], hi_src[s:], out=hi[:-s])
    return lo - 1, hi + 1


@dataclass
class WavefrontResult:
    """Output of a wavefront sweep.

    ``move_cube`` holds the moves for traceback: ``None`` for a
    score-only sweep, the tube's :class:`~repro.core.tube.TubeMoves`
    for a tube sweep, and the dense int8 cube otherwise. Both stores
    read as ``move_cube[i, j, k]``.
    ``end_cell`` is where ``score`` was read: the terminal corner for a
    global sweep, the best answer-region cell otherwise.
    ``captured_slab`` maps each captured ``i`` level to its slab.
    """

    score: float
    move_cube: np.ndarray | TubeMoves | None
    cells_computed: int
    captured_slab: dict[int, np.ndarray]
    planes_swept: int
    end_cell: tuple[int, int, int]


def wavefront_sweep(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    score_only: bool = False,
    capture_levels: Iterable[int] = (),
    workspace: PlaneWorkspace | None = None,
    tube: PruningTube | None = None,
    mode: str = "global",
) -> WavefrontResult:
    """Run the full wavefront sweep.

    Parameters
    ----------
    score_only:
        Skip move storage; memory drops to O(n^2).
    tube:
        Optional O(n^2) :class:`~repro.core.tube.PruningTube` keep-region,
        such as the Carrillo–Lipman tube (see :mod:`repro.core.bounds`).
        A traceback sweep then stores moves only for the tube's cells
        (:class:`~repro.core.tube.TubeMoves`), so its memory follows the
        kept cells. Without a tube the moves go to a dense int8 cube.
    capture_levels:
        ``i`` levels whose full slab ``F[level, j, k]`` is collected
        during the sweep (Hirschberg needs one level, the co-optimal
        counter all of them).
    workspace:
        Optional :class:`~repro.core.workspace.PlaneWorkspace` to source
        the plane buffers and kernel scratch from. Sequential sweeps
        through one workspace (Hirschberg recursion, the persistent
        pool's job loop) skip all steady-state allocation. Not
        thread-safe: never share one across concurrent sweeps.
    mode:
        ``"global"``, ``"semiglobal"`` or ``"local"`` (see the module
        docstring). The Carrillo–Lipman bounds behind ``tube`` are
        global-only.
    """
    check_sequences((sa, sb, sc), count=3)
    if scheme.is_affine:
        raise ValueError(
            "wavefront_sweep implements the linear gap model; "
            "use repro.core.affine for affine gaps"
        )
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; available: {MODES}")
    n1, n2, n3 = len(sa), len(sb), len(sc)
    if mode != "global" and tube is not None:
        raise ValueError(f"tube pruning is global-only, not {mode!r}")
    if tube is not None and tube.shape != (n1 + 1, n2 + 1, n3 + 1):
        raise ValueError(f"tube shape {tube.shape} does not match cube")
    levels = sorted({int(v) for v in capture_levels})
    if levels and not 0 <= levels[0] <= levels[-1] <= n1:
        raise ValueError(f"capture level outside [0, {n1}]: {levels}")
    sab, sac, sbc = scheme.profile_matrices(sa, sb, sc)
    g2 = 2.0 * scheme.gap
    dims = (n1, n2, n3)

    ws = (
        PlaneWorkspace(dims)
        if workspace is None
        else workspace.reserve(n1, n2, n3)
    )
    planes = ws.planes_for(n1, n2)
    move_cube: np.ndarray | TubeMoves | None
    if score_only:
        move_cube = None
    elif tube is not None:
        move_cube = TubeMoves(tube)
    else:
        move_cube = np.zeros((n1 + 1, n2 + 1, n3 + 1), dtype=np.int8)
    # The move store and captured slabs are part of the *result*
    # (Hirschberg holds the forward slab across the backward sweep), so
    # they must be fresh allocations, never workspace views the next
    # sweep would clobber.
    slabs = {lvl: np.full((n2 + 1, n3 + 1), NEG) for lvl in levels}

    observing = _obs.active()
    t_sweep = time.perf_counter() if observing else 0.0
    if observing:
        plane_cell_log: list[int] = []
        plane_dur_log: list[float] = []
    cells = 0
    dmax = n1 + n2 + n3
    best, end = -np.inf, dims
    row_lo_by_d, row_hi_by_d = (
        _tube_row_ranges(tube, dmax)
        if tube is not None and not levels
        else (None, None)
    )
    for d in range(dmax + 1):
        out = planes[d % 4]
        t0 = time.perf_counter() if observing else 0.0
        plane_cells = compute_plane_rows(
            d,
            0 if row_lo_by_d is None else int(row_lo_by_d[d]),
            n1 if row_hi_by_d is None else int(row_hi_by_d[d]),
            planes[(d - 1) % 4],
            planes[(d - 2) % 4],
            planes[(d - 3) % 4],
            out,
            sab,
            sac,
            sbc,
            g2,
            dims,
            ws,
            move_cube=move_cube,
            tube=tube,
            mode=mode,
        )
        if observing:
            plane_cell_log.append(plane_cells)
            plane_dur_log.append(time.perf_counter() - t0)
        cells += plane_cells
        if mode != "global":
            # Strict improvement keeps the first best cell in (d, i, j)
            # order. With an empty sequence the origin lies on an upper
            # face, so a zero-column semiglobal overlap scores 0.
            val, (i, j) = _plane_answer(out, d, dims, mode)
            if val > best:
                best, end = val, (i, j, d - i - j)
        for lvl in levels:
            t = d - lvl  # row ``lvl`` of plane d holds slab cells j + k == t
            if 0 <= t <= n2 + n3:
                _antidiagonal(slabs[lvl], t)[...] = out[
                    lvl + 1, max(0, t - n3) + 1 : min(n2, t) + 2
                ]

    if observing:
        engine = "wavefront" if mode == "global" else mode
        _obs.record_planes(engine, plane_cell_log, plane_dur_log)
        _obs.record_sweep(
            engine,
            cells=cells,
            seconds=time.perf_counter() - t_sweep,
            peak_plane_bytes=sum(p.nbytes for p in planes),
            move_cube_bytes=0 if move_cube is None else move_cube.nbytes,
        )
    if mode == "global":
        best = planes[dmax % 4][n1 + 1, n2 + 1]
    return WavefrontResult(
        score=float(best),
        move_cube=move_cube,
        cells_computed=cells,
        captured_slab=slabs,
        planes_swept=dmax + 1,
        end_cell=end,
    )


def _antidiagonal(a: np.ndarray, s: int) -> np.ndarray:
    """Writable view of the cells ``a[r, c]`` with ``r + c == s``, by row."""
    view = a[:, ::-1].diagonal(a.shape[1] - 1 - s)
    view.flags.writeable = True
    return view


def _plane_answer(
    plane: np.ndarray,
    d: int,
    dims: tuple[int, int, int],
    mode: str,
) -> tuple[float, tuple[int, int]]:
    """Best answer-region value on plane ``d`` and its first ``(i, j)``.

    Local reads the whole plane box, semiglobal the cells on its
    ``i=n1``, ``j=n2`` and ``k=n3`` faces (``-inf`` when the plane has
    none); invalid box cells hold NEG and never win.
    """
    n1, n2, n3 = dims
    ilo, ihi, jlo, jhi = plane_bounds(d, n1, n2, n3)
    box = plane[ilo + 1 : ihi + 2, jlo + 1 : jhi + 2]
    if mode == "local":
        r, c = divmod(int(box.argmax()), jhi - jlo + 1)
        return float(box[r, c]), (ilo + r, jlo + c)
    # Each face's first best cell as (-value, i, j); min() then picks the
    # best value and, among ties, the first (i, j).
    cands = []
    if ihi == n1:
        t = int(box[-1].argmax())
        cands.append((-box[-1, t], n1, jlo + t))
    if jhi == n2:
        t = int(box[:, -1].argmax())
        cands.append((-box[t, -1], ilo + t, n2))
    # k = n3 cells: r + c == s in box coordinates, starting in row 0
    # (the box's first row always holds one when the plane has any).
    s = d - n3 - ilo - jlo
    if s >= 0:
        diag = _antidiagonal(box, s)
        t = int(diag.argmax())
        cands.append((-diag[t], ilo + t, jlo + s - t))
    if not cands:
        return -np.inf, (0, 0)
    neg, i, j = min(cands)
    return float(-neg), (i, j)


def align3_wavefront(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    workspace: PlaneWorkspace | None = None,
    tube: PruningTube | None = None,
) -> Alignment3:
    """Optimal three-way alignment via the vectorised wavefront engine."""
    from repro.obs import trace as _trace

    with _trace.span("wavefront.sweep"):
        res = wavefront_sweep(
            sa,
            sb,
            sc,
            scheme,
            score_only=False,
            workspace=workspace,
            tube=tube,
        )
    if res.score <= NEG / 2:
        raise RuntimeError(
            "terminal cell unreachable (over-aggressive pruning tube?)"
        )
    assert res.move_cube is not None
    with _trace.span("wavefront.traceback"):
        moves = traceback_moves(res.move_cube)
        cols = moves_to_columns(moves, sa, sb, sc)
    rows = tuple("".join(col[r] for col in cols) for r in range(3))
    meta: dict[str, Any] = {
        "engine": "wavefront",
        "cells": res.cells_computed,
        "planes": res.planes_swept,
        "move_store_bytes": res.move_cube.nbytes,
    }
    return Alignment3(rows=rows, score=res.score, meta=meta)  # type: ignore[arg-type]


def score3_wavefront(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    workspace: PlaneWorkspace | None = None,
    tube: PruningTube | None = None,
) -> float:
    """Optimal SP score via a memory-light (O(n^2)) wavefront sweep."""
    return wavefront_sweep(
        sa,
        sb,
        sc,
        scheme,
        score_only=True,
        workspace=workspace,
        tube=tube,
    ).score
