"""The frozen pre-workspace plane kernel (global mode only).

:func:`compute_plane_rows_ref` is the original allocating form of
:func:`repro.core.wavefront.compute_plane_rows`, kept verbatim as the
bit-identity oracle for the zero-allocation kernel and as the A/B
baseline of ``benchmarks/bench_kernel.py``. It still takes a dense
boolean keep-mask, so :func:`sweep_ref` fed ``dense_mask(tube)``
(``tests/reference/bounds.py``) is the reference for tube sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.core.dp3d import NEG
from repro.core.wavefront import plane_bounds


def compute_plane_rows_ref(
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
    move_cube: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> int:
    """The original allocating plane kernel, kept verbatim.

    Builds the full ``(7,) + shape`` candidate stack and ~10 fresh
    arrays per call. Serves as the A/B baseline for
    ``benchmarks/bench_kernel.py`` and as the oracle the zero-allocation
    :func:`repro.core.wavefront.compute_plane_rows` must match
    bit-for-bit (``tests/test_workspace.py``).
    """
    n1, n2, n3 = dims
    ilo, ihi, jlo, jhi = plane_bounds(d, n1, n2, n3)
    row_lo = max(row_lo, ilo)
    row_hi = min(row_hi, ihi)
    if row_lo > row_hi or jlo > jhi:
        return 0

    # Reset target rows: stale values from plane d-4 live in this buffer.
    out[row_lo + 1 : row_hi + 2, :] = NEG

    I = np.arange(row_lo, row_hi + 1)[:, None]
    J = np.arange(jlo, jhi + 1)[None, :]
    K = d - I - J
    valid = (K >= 0) & (K <= n3)
    if mask is not None:
        Ic = I
        Jc = np.broadcast_to(J, K.shape)
        Kc = np.clip(K, 0, n3)
        valid = valid & mask[Ic, Jc, Kc]
    if d == 0:
        # Only the origin exists; it has no predecessors.
        if row_lo == 0 and jlo == 0 and (valid.size and valid[0, 0]):
            out[1, 1] = 0.0
            return 1
        return 0

    if mask is not None:
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
        I = I[r_lo : r_hi + 1]
        J = J[:, col_lo : col_hi + 1]
        K = d - I - J
        valid = valid[r_lo : r_hi + 1, col_lo : col_hi + 1]

    r0, r1 = row_lo + 1, row_hi + 2
    c0, c1 = jlo + 1, jhi + 2
    p1_00 = P1[r0:r1, c0:c1]
    p1_10 = P1[r0 - 1 : r1 - 1, c0:c1]
    p1_01 = P1[r0:r1, c0 - 1 : c1 - 1]
    p2_11 = P2[r0 - 1 : r1 - 1, c0 - 1 : c1 - 1]
    p2_10 = P2[r0 - 1 : r1 - 1, c0:c1]
    p2_01 = P2[r0:r1, c0 - 1 : c1 - 1]
    p3_11 = P3[r0 - 1 : r1 - 1, c0 - 1 : c1 - 1]

    Ic = np.clip(I - 1, 0, max(n1 - 1, 0))
    Jc = np.clip(J - 1, 0, max(n2 - 1, 0))
    Kc = np.clip(K - 1, 0, max(n3 - 1, 0))
    if n1 and n2:
        g_ab = sab[Ic, Jc]
    else:
        g_ab = np.zeros(K.shape)
    if n1 and n3:
        g_ac = sac[Ic, Kc]
    else:
        g_ac = np.zeros(K.shape)
    if n2 and n3:
        g_bc = sbc[Jc, Kc]
    else:
        g_bc = np.zeros(K.shape)

    cand = np.empty((7,) + K.shape, dtype=np.float64)
    cand[0] = p1_10 + g2  # move 1: A
    cand[1] = p1_01 + g2  # move 2: B
    cand[2] = p2_11 + g_ab + g2  # move 3: AB
    cand[3] = p1_00 + g2  # move 4: C
    cand[4] = p2_10 + g_ac + g2  # move 5: AC
    cand[5] = p2_01 + g_bc + g2  # move 6: BC
    cand[6] = p3_11 + g_ab + g_ac + g_bc  # move 7: ABC

    best = cand.max(axis=0)
    np.copyto(best, NEG, where=~valid)
    out[r0:r1, c0:c1] = best

    if move_cube is not None:
        moves = (cand.argmax(axis=0) + 1).astype(np.int8)
        ii, jj = np.nonzero(valid)
        move_cube[row_lo + ii, jlo + jj, K[ii, jj]] = moves[ii, jj]

    return int(valid.sum())


def drive_planes(kernel, seqs, scheme, move_cube=None, **kwargs):
    """Run every plane of a global sweep through ``kernel``, each over
    its full row range.

    ``kwargs`` go to every call (``mask=`` for the reference kernel,
    ``ws=``/``tube=`` for the production one). Returns ``(planes,
    cells)``: each plane buffer as it stood after its plane, and the
    total cell count the kernel reported.
    """
    n1, n2, n3 = (len(s) for s in seqs)
    sab, sac, sbc = scheme.profile_matrices(*seqs)
    g2 = 2.0 * scheme.gap
    dims = (n1, n2, n3)
    buffers = [np.full((n1 + 2, n2 + 2), NEG) for _ in range(4)]
    planes, cells = [], 0
    for d in range(n1 + n2 + n3 + 1):
        out = buffers[d % 4]
        cells += kernel(
            d,
            0,
            n1,
            buffers[(d - 1) % 4],
            buffers[(d - 2) % 4],
            buffers[(d - 3) % 4],
            out,
            sab,
            sac,
            sbc,
            g2,
            dims,
            move_cube=move_cube,
            **kwargs,
        )
        planes.append(out.copy())
    return planes, cells


def sweep_ref(seqs, scheme, mask=None, score_only=False):
    """The reference masked sweep: :func:`compute_plane_rows_ref` over
    every plane, restricted to ``mask`` when given.

    Returns ``(planes, move_cube, cells)``; ``move_cube`` is the dense
    int8 cube (``None`` score-only), and the score is the terminal cell
    of the last plane, ``planes[-1][n1 + 1, n2 + 1]``.
    """
    n1, n2, n3 = (len(s) for s in seqs)
    move_cube = (
        None
        if score_only
        else np.zeros((n1 + 1, n2 + 1, n3 + 1), dtype=np.int8)
    )
    planes, cells = drive_planes(
        compute_plane_rows_ref, seqs, scheme, move_cube, mask=mask
    )
    return planes, move_cube, cells
