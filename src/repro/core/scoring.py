"""Sum-of-pairs (SP) scoring for three-sequence alignments.

Objective
---------
Given a three-way alignment, project it onto each of the three sequence
pairs. The SP score is the sum of the three projected pairwise scores,
where a pairwise column scores:

* ``matrix[x, y]``       when both residues are present,
* ``gap``                when exactly one is present (a residue/gap pair),
* ``0``                  when both are gaps (the column vanishes under
  projection — the conventional treatment).

With a linear gap model the per-column contribution of a 3-D DP *move*
``m`` therefore depends only on which sequences ``m`` advances, which is
what makes the 7-predecessor recurrence correct.

Affine gaps
-----------
With ``gap_open != 0`` a pairwise gap run additionally pays ``gap_open``
once when it starts. The exact ("natural") SP-affine objective needs gap
run bookkeeping across columns the pair does not appear in; the bundled
3-D DP (:mod:`repro.core.affine`) implements Altschul's *quasi-natural*
gap costs, which charge re-opening after an intervening both-gaps column.
Both conventions are implemented here as alignment scorers so the DP can
be verified against the convention it optimises
(:func:`ScoringScheme.sp_score_affine_quasinatural`), and the difference
can be measured (:func:`ScoringScheme.sp_score_affine_natural`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.seqio.alphabet import GAP_CHAR, Alphabet
from repro.util.validation import check_sequences

#: Pair-state codes for a pair of rows inside one alignment column.
PAIR_NEITHER = 0
PAIR_ONLY_FIRST = 1  # first row has a residue, second is a gap
PAIR_ONLY_SECOND = 2
PAIR_BOTH = 3

#: The three sequence pairs, as index pairs into (A, B, C).
PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (1, 2))


def pair_state(move: int, first: int, second: int) -> int:
    """Pair-state of rows ``first``/``second`` under DP move ``move``."""
    a = (move >> first) & 1
    b = (move >> second) & 1
    if a and b:
        return PAIR_BOTH
    if a:
        return PAIR_ONLY_FIRST
    if b:
        return PAIR_ONLY_SECOND
    return PAIR_NEITHER


@dataclass(frozen=True)
class ScoringScheme:
    """Sum-of-pairs scoring parameters for three-sequence alignment.

    Parameters
    ----------
    alphabet:
        Residue alphabet; sequences are encoded through it.
    matrix:
        ``(alphabet.size, alphabet.size)`` symmetric similarity matrix.
    gap:
        Score of a residue-against-gap pairwise column (normally negative);
        with an affine model this is the *extension* cost per column.
    gap_open:
        Extra score charged when a pairwise gap run opens (0 = linear model).
    name:
        Identifier used in reports.
    """

    alphabet: Alphabet
    matrix: np.ndarray
    gap: float
    gap_open: float = 0.0
    name: str = "custom"
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.float64)
        k = self.alphabet.size
        if mat.shape != (k, k):
            raise ValueError(
                f"matrix shape {mat.shape} does not match alphabet "
                f"{self.alphabet.name!r} size {k}"
            )
        if not np.allclose(mat, mat.T):
            raise ValueError("substitution matrix must be symmetric")
        if self.gap_open > 0:
            raise ValueError(
                f"gap_open is a penalty and must be <= 0, got {self.gap_open}"
            )
        mat = np.ascontiguousarray(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_matrix", mat)

    # ------------------------------------------------------------------
    # Basic lookups
    # ------------------------------------------------------------------

    @property
    def is_affine(self) -> bool:
        """True when a nonzero gap-open penalty is configured."""
        return self.gap_open != 0.0

    def encode(self, seq: str) -> np.ndarray:
        """Encode a sequence through the scheme's alphabet."""
        return self.alphabet.encode(seq)

    def pair_score(self, x: str, y: str) -> float:
        """Pairwise column score of two characters (``-`` allowed)."""
        xg, yg = x == GAP_CHAR, y == GAP_CHAR
        if xg and yg:
            return 0.0
        if xg or yg:
            return self.gap
        cx = int(self.alphabet.encode(x)[0])
        cy = int(self.alphabet.encode(y)[0])
        return float(self._matrix[cx, cy])

    def column_score(self, ca: str, cb: str, cc: str) -> float:
        """Linear-model SP score of one three-way column."""
        return (
            self.pair_score(ca, cb)
            + self.pair_score(ca, cc)
            + self.pair_score(cb, cc)
        )

    # ------------------------------------------------------------------
    # Precomputed profile matrices for the vectorised kernels
    # ------------------------------------------------------------------

    def profile_matrices(
        self, sa: str, sb: str, sc: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pairwise residue-score lookup tables.

        Returns ``(SAB, SAC, SBC)`` where ``SAB[i, j] ==
        matrix[code(sa[i]), code(sb[j])]`` and likewise for the other pairs.
        These are gathered (not recomputed) inside the plane kernels, which
        is the main vectorisation enabler.
        """
        ea, eb, ec = self.encode(sa), self.encode(sb), self.encode(sc)
        sab = self._matrix[ea[:, None], eb[None, :]] if len(ea) and len(eb) else np.zeros((len(ea), len(eb)))
        sac = self._matrix[ea[:, None], ec[None, :]] if len(ea) and len(ec) else np.zeros((len(ea), len(ec)))
        sbc = self._matrix[eb[:, None], ec[None, :]] if len(eb) and len(ec) else np.zeros((len(eb), len(ec)))
        return (
            np.ascontiguousarray(sab),
            np.ascontiguousarray(sac),
            np.ascontiguousarray(sbc),
        )

    def pairwise_profile(self, sx: str, sy: str) -> np.ndarray:
        """Residue-score lookup table for one sequence pair."""
        ex, ey = self.encode(sx), self.encode(sy)
        if len(ex) == 0 or len(ey) == 0:
            return np.zeros((len(ex), len(ey)))
        return np.ascontiguousarray(self._matrix[ex[:, None], ey[None, :]])

    # ------------------------------------------------------------------
    # Move deltas (scalar reference path)
    # ------------------------------------------------------------------

    def move_delta_score(
        self,
        move: int,
        sa: str,
        sb: str,
        sc: str,
        i: int,
        j: int,
        k: int,
    ) -> float:
        """Linear-model score of arriving at cell ``(i, j, k)`` via ``move``.

        Cell indices are 1-based prefix lengths; the residues consumed by the
        move are ``sa[i-1]``, ``sb[j-1]``, ``sc[k-1]`` for the advanced
        sequences.
        """
        di, dj, dk = move & 1, (move >> 1) & 1, (move >> 2) & 1
        ca = sa[i - 1] if di else GAP_CHAR
        cb = sb[j - 1] if dj else GAP_CHAR
        cc = sc[k - 1] if dk else GAP_CHAR
        return self.column_score(ca, cb, cc)

    # ------------------------------------------------------------------
    # Full-alignment scorers (ground truth used by tests and reports)
    # ------------------------------------------------------------------

    def sp_score(self, rows: Sequence[str]) -> float:
        """Linear-model SP score of a complete three-way alignment."""
        check_sequences(rows, count=3)
        self._check_rows(rows)
        total = 0.0
        for ca, cb, cc in zip(*rows):
            total += self.column_score(ca, cb, cc)
        return total

    def sp_score_affine_quasinatural(self, rows: Sequence[str]) -> float:
        """Affine SP score under Altschul's quasi-natural convention.

        Per pair, a gap run is "continued" only when the immediately
        preceding column of the *three-way* alignment had the same pair
        state; an intervening both-gaps column breaks the run (and a fresh
        ``gap_open`` is charged on resumption). This is exactly the
        objective optimised by :mod:`repro.core.affine`.
        """
        return self._sp_affine(rows, skip_neither=False)

    def sp_score_affine_natural(self, rows: Sequence[str]) -> float:
        """Affine SP score under the natural convention (both-gap columns
        are invisible to a pair's gap-run bookkeeping)."""
        return self._sp_affine(rows, skip_neither=True)

    def _sp_affine(self, rows: Sequence[str], skip_neither: bool) -> float:
        check_sequences(rows, count=3)
        self._check_rows(rows)
        total = 0.0
        prev = [PAIR_NEITHER - 1] * 3  # sentinel: nothing matches it
        for col in zip(*rows):
            present = [c != GAP_CHAR for c in col]
            for p, (x, y) in enumerate(PAIRS):
                if present[x] and present[y]:
                    state = PAIR_BOTH
                    total += self.pair_score(col[x], col[y])
                elif present[x]:
                    state = PAIR_ONLY_FIRST
                    total += self.gap
                    if prev[p] != state:
                        total += self.gap_open
                elif present[y]:
                    state = PAIR_ONLY_SECOND
                    total += self.gap
                    if prev[p] != state:
                        total += self.gap_open
                else:
                    state = PAIR_NEITHER
                    if skip_neither:
                        continue  # leave prev[p] unchanged
                prev[p] = state
        return total

    @staticmethod
    def _check_rows(rows: Sequence[str]) -> None:
        lengths = {len(r) for r in rows}
        if len(lengths) != 1:
            raise ValueError(f"alignment rows have unequal lengths: {lengths}")

    # ------------------------------------------------------------------
    # Affine transition table (used by repro.core.affine)
    # ------------------------------------------------------------------

    def affine_transition_table(self) -> np.ndarray:
        """Static gap-cost table ``T[prev_move, move]``.

        ``prev_move`` ranges over 0..7 where 0 is the pre-alignment start
        state; ``move`` over 1..7 (stored at indices 1..7; column 0 is
        ``-inf``-like unused). Entry value: the sum over the three pairs of
        the gap contribution of taking ``move`` after ``prev_move``
        (extension ``gap`` plus ``gap_open`` when the pair state changes into
        a gap). Substitution contributions are position-dependent and added
        separately by the kernel.
        """
        table = np.zeros((8, 8), dtype=np.float64)
        for prev in range(8):
            for move in range(1, 8):
                cost = 0.0
                for x, y in PAIRS:
                    state = pair_state(move, x, y)
                    if state in (PAIR_ONLY_FIRST, PAIR_ONLY_SECOND):
                        cost += self.gap
                        prev_state = (
                            pair_state(prev, x, y) if prev else -1
                        )
                        if prev_state != state:
                            cost += self.gap_open
                table[prev, move] = cost
        return table

    def with_gaps(self, gap: float, gap_open: float = 0.0) -> "ScoringScheme":
        """A copy of this scheme with different gap parameters."""
        return ScoringScheme(
            alphabet=self.alphabet,
            matrix=np.array(self._matrix),
            gap=gap,
            gap_open=gap_open,
            name=self.name,
        )


def default_scheme_for(alphabet: Alphabet) -> ScoringScheme:
    """A sensible default scheme: BLOSUM62/gap -8 for protein, 5/-4/gap -6
    for nucleotides, unit scores otherwise."""
    from repro.core import matrices as m

    if alphabet.name == "protein":
        return ScoringScheme(alphabet, m.blosum62(), gap=-8.0, name="blosum62")
    if alphabet.name == "dna":
        return ScoringScheme(alphabet, m.dna_simple(), gap=-6.0, name="dna5-4")
    if alphabet.name == "rna":
        return ScoringScheme(alphabet, m.rna_simple(), gap=-6.0, name="rna5-4")
    return ScoringScheme(
        alphabet, m.unit_matrix(alphabet), gap=-1.0, name="unit"
    )
