"""Core three-sequence alignment algorithms (the paper's contribution).

Layout
------
``types``      result/alignment dataclasses and move encoding
``scoring``    sum-of-pairs scoring schemes (linear and affine gap models)
``matrices``   bundled substitution matrices (BLOSUM62, PAM250, DNA)
``dp3d``       reference scalar full-matrix 3-D DP with traceback
``wavefront``  vectorised anti-diagonal-plane engine (the fast path);
               its ``mode`` covers global, semiglobal and local
``local``      local alignment on the wavefront sweep
``semiglobal`` overlap (free end gap) alignment on the wavefront sweep
``rolling``    forward/backward ``i``-level slabs from score-only sweeps
``hirschberg`` linear-space divide-and-conquer traceback
``affine``     7-state quasi-natural affine-gap 3-D DP
``bounds``     Carrillo–Lipman pruning tubes; the ``pruned`` engine
               (``align3_pruned``)
``tube``       per-``(i, j)`` ``k``-interval keep-regions, the one
               pruning representation, and the tube-sparse move store
               (``TubeMoves``)
``methods``    the method catalogue every method list is a view of
``api``        the ``align3`` front door: request check, resolver, dispatcher
"""

from repro.core.types import (
    Alignment3,
    MOVE_ABC,
    MOVE_NAMES,
    move_delta,
    ALL_MOVES,
)
from repro.core.scoring import ScoringScheme
from repro.core.matrices import (
    blosum62,
    dna_tstv,
    pam250,
    dna_simple,
    unit_matrix,
    edit_distance_scheme,
)
from repro.core.api import align3, align3_score, AVAILABLE_METHODS
from repro.core.local import align3_local, score3_local
from repro.core.countopt import count_optimal, enumerate_optimal
from repro.core.band import align3_banded, score3_banded

__all__ = [
    "align3_local",
    "score3_local",
    "count_optimal",
    "enumerate_optimal",
    "align3_banded",
    "score3_banded",
    "Alignment3",
    "MOVE_ABC",
    "MOVE_NAMES",
    "ALL_MOVES",
    "move_delta",
    "ScoringScheme",
    "blosum62",
    "pam250",
    "dna_simple",
    "dna_tstv",
    "unit_matrix",
    "edit_distance_scheme",
    "align3",
    "align3_score",
    "AVAILABLE_METHODS",
]
