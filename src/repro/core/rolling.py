"""Forward and backward ``i``-level slabs for the linear-space engines.

:func:`forward_slab` runs a score-only wavefront sweep (O(n^2) memory,
four live planes) and copies one ``i`` level out of it as the planes pass;
:func:`backward_slab` does the same over the reversed sequences. These
are the two halves of the Hirschberg divide-and-conquer
(:mod:`repro.core.hirschberg`).
"""

from __future__ import annotations

import numpy as np

from repro.core.scoring import ScoringScheme
from repro.core.wavefront import wavefront_sweep
from repro.core.workspace import PlaneWorkspace


def forward_slab(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    level: int,
    workspace: PlaneWorkspace | None = None,
) -> np.ndarray:
    """Forward scores ``F[level, j, k]`` for all ``(j, k)``.

    The returned slab is always freshly allocated (never a workspace
    view), so callers may hold it across further sweeps.
    """
    res = wavefront_sweep(
        sa,
        sb,
        sc,
        scheme,
        score_only=True,
        capture_levels=(level,),
        workspace=workspace,
    )
    return res.captured_slab[level]


def backward_slab(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    level: int,
    workspace: PlaneWorkspace | None = None,
) -> np.ndarray:
    """Backward scores ``B[level, j, k]``: the optimal score of aligning the
    suffixes ``sa[level:]``, ``sb[j:]``, ``sc[k:]``.

    Computed as a forward sweep over the reversed sequences;
    ``B[level, j, k] == F_rev[n1-level, n2-j, n3-k]``.
    """
    n1 = len(sa)
    rev = forward_slab(
        sa[::-1], sb[::-1], sc[::-1], scheme, n1 - level, workspace=workspace
    )
    return rev[::-1, ::-1].copy()
