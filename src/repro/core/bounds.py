"""Carrillo–Lipman search-space pruning for three-sequence alignment.

Principle
---------
Project any three-way alignment onto a sequence pair: the projection is a
global pairwise alignment (both-gap columns vanish, scoring 0), so its
pairwise score is at most the optimal pairwise score of any path through
the projected cell. Therefore, for a 3-way path through cell ``(i, j, k)``:

    SP(path) <= T_ab[i, j] + T_ac[i, k] + T_bc[j, k]  =:  U(i, j, k)

where ``T_xy`` is the pairwise *through-cell* matrix (forward + backward,
:func:`repro.pairwise.matrices2d.through_matrix`). Any cell with
``U < L``, for a lower bound ``L <= OPT`` (e.g. the score of a heuristic
alignment), cannot lie on an optimal path and may be pruned. Every cell of
an optimal path has ``U >= OPT >= L``, so the optimum always survives.

The closer the three sequences, the tighter the pairwise bounds hug the
3-way optimum and the larger the pruned fraction — the divergence sweep of
experiment F5 measures exactly this.

:func:`carrillo_lipman_tube` stores the kept region as the per-``(i, j)``
interval hull of the kept ``k`` values
(:class:`~repro.core.tube.PruningTube`, O(n^2) memory), the form the
``pruned`` engine feeds straight into the wavefront kernel so pruned
cells are never touched. The hull can only *add* cells to the set
``U >= L``, so every optimal path survives. The dense O(n^3) boolean
form of that set is kept only as a test oracle
(``tests/reference/bounds.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.scoring import ScoringScheme
from repro.core.tube import PruningTube
from repro.core.types import Alignment3
from repro.core.workspace import PlaneWorkspace
from repro.obs import hooks as _obs
from repro.pairwise.matrices2d import through_matrix
from repro.util.validation import check_sequences


@dataclass
class PruningStats:
    """Summary of a Carrillo–Lipman keep-region."""

    total_cells: int
    kept_cells: int
    lower_bound: float
    upper_bound_at_origin: float

    @property
    def kept_fraction(self) -> float:
        """Fraction of lattice cells that survive pruning."""
        return self.kept_cells / self.total_cells if self.total_cells else 0.0

    @property
    def pruned_fraction(self) -> float:
        """Fraction of lattice cells eliminated."""
        return 1.0 - self.kept_fraction


def banded_lower_bound(
    sa: str, sb: str, sc: str, scheme: ScoringScheme, band: int = 4
) -> float:
    """A valid lower bound from one thin-band exact sweep.

    The optimum over alignments confined to the scaled-diagonal band is
    the score of a feasible alignment, so it never exceeds the global
    optimum — and for similar sequences (where pruning matters) it
    usually *equals* it, making the Carrillo–Lipman bound as tight as it
    can get. Costs one O(b^2 n) score-only sweep, an order of magnitude
    less than the heuristic alignments' Python-level column merging,
    which on similar triples used to cost more than the full unpruned
    sweep the bound exists to beat. A band too thin to connect the
    corners (very uneven lengths) is doubled until it does; in the worst
    case the band covers the cube and the "bound" is the exact optimum.
    """
    from repro.core.band import band_tube
    from repro.core.dp3d import NEG
    from repro.core.wavefront import wavefront_sweep

    check_sequences((sa, sb, sc), count=3)
    n1, n2, n3 = len(sa), len(sb), len(sc)
    while True:
        tube = band_tube(n1, n2, n3, band)
        score = wavefront_sweep(
            sa, sb, sc, scheme, tube=tube, score_only=True
        ).score
        if score > NEG / 2:
            return float(score)
        band *= 2  # corners disconnected inside the band; widen


def carrillo_lipman_tube(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    lower_bound: float | None = None,
) -> tuple[PruningTube, PruningStats]:
    """Build the O(n^2) tube (per-``(i, j)`` ``k``-interval hull) of the
    Carrillo–Lipman keep-region ``U(i, j, k) >= lower_bound``.

    Parameters
    ----------
    lower_bound:
        A known lower bound ``L <= OPT``. When omitted it comes from
        :func:`banded_lower_bound`: one thin exact sweep, cheap and (on
        the similar triples that prune well) tight. A lower ``L`` keeps
        more cells.

    The tube keeps a *superset* of the cells with ``U >= L`` (the
    interval hull along ``k``), so every cell of an optimal path
    survives. Peak auxiliary memory is the three O(n^2)
    through-matrices plus two ``(n1+1, n2+1)`` integer planes; the
    dense cube is never built. ``stats.kept_cells`` counts the tube's
    cells, what a pruned sweep will actually evaluate.
    """
    check_sequences((sa, sb, sc), count=3)
    if scheme.is_affine:
        raise ValueError(
            "Carrillo–Lipman bounds are derived for the linear gap model"
        )
    t_ab = through_matrix(sa, sb, scheme)  # (n1+1, n2+1)
    t_ac = through_matrix(sa, sc, scheme)  # (n1+1, n3+1)
    t_bc = through_matrix(sb, sc, scheme)  # (n2+1, n3+1)
    if lower_bound is None:
        lower_bound = banded_lower_bound(sa, sb, sc, scheme)
    threshold = float(lower_bound)
    n1, n2, n3 = len(sa), len(sb), len(sc)

    klo = np.zeros((n1 + 1, n2 + 1), dtype=np.intp)
    khi = np.full((n1 + 1, n2 + 1), -1, dtype=np.intp)
    # 2-D prefilter: U(i, j, k) <= t_ab[i, j] + max_k t_ac[i, .] +
    # max_k t_bc[j, .], so rows failing this bound keep no k at all and
    # never need their O(n3) interval scan. On the similar triples that
    # prune well this kills all but a thin diagonal sheet of (i, j)
    # rows, making the build O(n^2 + rows_kept * n3) instead of O(n^3).
    cand = (
        t_ab + t_ac.max(axis=1)[:, None] + t_bc.max(axis=1)[None, :]
    ) >= threshold
    ii, jj = np.nonzero(cand)
    # Scan surviving rows a bounded batch at a time so the (rows, n3+1)
    # bound evaluation stays O(n^2) memory even when nothing prunes.
    batch = max(1, 16 * (n2 + 1))
    for b0 in range(0, len(ii), batch):
        bi = ii[b0 : b0 + batch]
        bj = jj[b0 : b0 + batch]
        keep = (t_ac[bi] + t_bc[bj]) >= (
            threshold - t_ab[bi, bj]
        )[:, None]  # (batch, n3+1)
        any_k = keep.any(axis=1)
        first = keep.argmax(axis=1)
        last = n3 - keep[:, ::-1].argmax(axis=1)
        klo[bi[any_k], bj[any_k]] = first[any_k]
        khi[bi[any_k], bj[any_k]] = last[any_k]

    tube = PruningTube(klo=klo, khi=khi, n3=n3)
    tube.keep_cell(0, 0, 0)
    tube.keep_cell(n1, n2, n3)

    u_origin = float(t_ab[0, 0] + t_ac[0, 0] + t_bc[0, 0])
    stats = PruningStats(
        total_cells=tube.total_cells,
        kept_cells=tube.kept_cells,
        lower_bound=threshold,
        upper_bound_at_origin=u_origin,
    )
    return tube, stats


def align3_pruned(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    workspace: PlaneWorkspace | None = None,
) -> Alignment3:
    """Optimal alignment by the ``pruned`` engine: the Carrillo–Lipman
    tube (:func:`carrillo_lipman_tube`) swept by the wavefront, which
    keeps only the tube's moves (:class:`~repro.core.tube.TubeMoves`).

    ``workspace`` is shared with the sweep, as the chain solver's
    sub-cubes share one. ``meta["pruning"]`` records the kept fraction,
    both bounds and the bytes of the tube and of its move store.
    """
    from repro.core import wavefront as _wf

    tube, stats = carrillo_lipman_tube(sa, sb, sc, scheme)
    aln = _wf.align3_wavefront(
        sa, sb, sc, scheme, workspace=workspace, tube=tube
    )
    aln.meta["engine"] = "pruned"
    aln.meta["pruning"] = {
        "kept_fraction": stats.kept_fraction,
        "pruned_fraction": stats.pruned_fraction,
        "lower_bound": stats.lower_bound,
        "upper_bound_at_origin": stats.upper_bound_at_origin,
        "tube_bytes": tube.nbytes,
        "move_store_bytes": aln.meta.pop("move_store_bytes"),
    }
    _obs.record_pruning(
        "pruned",
        kept_fraction=stats.kept_fraction,
        lower_bound=stats.lower_bound,
        upper_bound=stats.upper_bound_at_origin,
    )
    return aln


def pairwise_upper_bound(
    sa: str, sb: str, sc: str, scheme: ScoringScheme
) -> float:
    """The Carrillo–Lipman upper bound on the optimal SP score: the sum of
    the three optimal pairwise scores. Useful as a sanity envelope
    (``L <= OPT <= this``)."""
    from repro.pairwise.nw import score2

    return (
        score2(sa, sb, scheme)
        + score2(sa, sc, scheme)
        + score2(sb, sc, scheme)
    )
