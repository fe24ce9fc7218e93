"""Dense O(n^3) keep-masks: the Carrillo–Lipman oracle and tube conversions.

The production pruning path keeps its region as a
:class:`~repro.core.tube.PruningTube` (per-``(i, j)`` ``k`` intervals).
The dense boolean cube is kept here as the oracle it is checked against:

* :func:`carrillo_lipman_mask` is the exact set ``U(i, j, k) >= L``,
  which every tube must contain (its interval hull);
* :func:`heuristic_lower_bound` is an independent valid ``L``, from the
  heuristic alignments instead of the production band sweep;
* :func:`dense_mask`, :func:`tube_from_mask` and :func:`full_tube`
  convert between the two forms, so a tube can be fed to the frozen
  masked kernel (:func:`tests.reference.kernel.sweep_ref`);
  :func:`random_tube` draws arbitrary tubes for those comparisons.
"""

from __future__ import annotations

import numpy as np

from repro.core.bounds import PruningStats
from repro.core.scoring import ScoringScheme
from repro.core.tube import PruningTube
from repro.pairwise.matrices2d import through_matrix
from repro.util.validation import check_sequences


def heuristic_lower_bound(
    sa: str, sb: str, sc: str, scheme: ScoringScheme
) -> float:
    """A valid lower bound on the optimal SP score.

    Takes the better of the center-star and progressive heuristic
    alignments' SP scores — both are feasible alignments, so their scores
    never exceed the optimum.
    """
    from repro.heuristics import align3_centerstar, align3_progressive

    cs = align3_centerstar(sa, sb, sc, scheme)
    pg = align3_progressive(sa, sb, sc, scheme)
    return max(cs.score, pg.score)


def carrillo_lipman_mask(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    lower_bound: float | None = None,
    slack: float = 0.0,
) -> tuple[np.ndarray, PruningStats]:
    """Build the boolean keep-mask over the DP cube.

    Parameters
    ----------
    lower_bound:
        A known lower bound ``L <= OPT``. When omitted it is computed from
        the heuristic baselines (:func:`heuristic_lower_bound`).
    slack:
        Loosens the test to ``U >= L - slack`` (``slack >= 0``), retaining
        extra cells.

    Returns
    -------
    (mask, stats):
        ``mask[i, j, k]`` is True for cells that must be evaluated; origin
        and terminal cells are always kept.
    """
    check_sequences((sa, sb, sc), count=3)
    if scheme.is_affine:
        raise ValueError(
            "Carrillo–Lipman bounds are derived for the linear gap model"
        )
    if slack < 0:
        raise ValueError(f"slack must be >= 0, got {slack}")
    t_ab = through_matrix(sa, sb, scheme)
    t_ac = through_matrix(sa, sc, scheme)
    t_bc = through_matrix(sb, sc, scheme)
    if lower_bound is None:
        lower_bound = heuristic_lower_bound(sa, sb, sc, scheme)
    threshold = float(lower_bound) - slack
    n1, n2, n3 = len(sa), len(sb), len(sc)

    # Evaluate U slab-by-slab along i to avoid materialising the float cube.
    mask = np.empty((n1 + 1, n2 + 1, n3 + 1), dtype=bool)
    for i in range(n1 + 1):
        u_slab = t_ab[i][:, None] + t_ac[i][None, :] + t_bc
        mask[i] = u_slab >= threshold
    mask[0, 0, 0] = True
    mask[n1, n2, n3] = True

    stats = PruningStats(
        total_cells=mask.size,
        kept_cells=int(mask.sum()),
        lower_bound=float(lower_bound),
        upper_bound_at_origin=float(t_ab[0, 0] + t_ac[0, 0] + t_bc[0, 0]),
    )
    return mask, stats


def dense_mask(tube: PruningTube) -> np.ndarray:
    """The boolean cube of the cells ``tube`` keeps."""
    ks = np.arange(tube.n3 + 1)[None, None, :]
    return (ks >= tube.klo[:, :, None]) & (ks <= tube.khi[:, :, None])


def tube_from_mask(mask: np.ndarray) -> PruningTube:
    """Interval hull of a dense keep-mask (a superset of its cells)."""
    if mask.ndim != 3:
        raise ValueError(f"mask must be 3-D, got shape {mask.shape}")
    n3 = mask.shape[2] - 1
    any_k = mask.any(axis=2)
    first = mask.argmax(axis=2)
    last = n3 - mask[:, :, ::-1].argmax(axis=2)
    klo = np.where(any_k, first, 0)
    khi = np.where(any_k, last, -1)
    return PruningTube(klo=klo, khi=khi, n3=n3)


def full_tube(dims: tuple[int, int, int]) -> PruningTube:
    """A tube that keeps the whole ``(n1, n2, n3)`` cube."""
    n1, n2, n3 = dims
    shape = (n1 + 1, n2 + 1)
    return PruningTube(
        klo=np.zeros(shape, dtype=np.intp),
        khi=np.full(shape, n3, dtype=np.intp),
        n3=n3,
    )


def random_tube(
    rng: np.random.Generator,
    dims: tuple[int, int, int],
    empty: float = 0.2,
    corners: bool = True,
) -> PruningTube:
    """A tube of random ``k`` intervals over an ``(n1, n2, n3)`` cube.

    Each ``(i, j)`` row keeps the interval between two uniform draws
    from ``[0, n3]``; a share ``empty`` of the rows keeps nothing. With
    ``corners`` the origin and terminal cells are forced in.
    """
    n1, n2, n3 = dims
    shape = (n1 + 1, n2 + 1)
    a = rng.integers(0, n3 + 1, shape)
    b = rng.integers(0, n3 + 1, shape)
    khi = np.maximum(a, b)
    khi[rng.random(shape) < empty] = -1
    tube = PruningTube(klo=np.minimum(a, b), khi=khi, n3=n3)
    if corners:
        tube.keep_cell(0, 0, 0)
        tube.keep_cell(n1, n2, n3)
    return tube
