"""Progressive (profile-based) heuristic for three sequences.

Align the closest pair exactly (pairwise NW), freeze that alignment into a
profile, then align the third sequence against it as a one-row profile
(:func:`repro.msa.profilealign.align_profiles`). Mistakes made in the first
pairwise step are never revisited — the canonical failure mode that exact
three-way alignment avoids, and the reason the optimality gap of experiment
T3 grows with divergence.
"""

from __future__ import annotations

from repro.core.scoring import ScoringScheme
from repro.core.types import Alignment3
from repro.msa.profilealign import align_profiles
from repro.pairwise.nw import align2, score2
from repro.util.validation import check_sequences


def align3_progressive(
    sa: str, sb: str, sc: str, scheme: ScoringScheme
) -> Alignment3:
    """Three-way alignment by progressive profile extension."""
    check_sequences((sa, sb, sc), count=3)
    seqs = (sa, sb, sc)
    pairs = ((0, 1), (0, 2), (1, 2))
    best_pair = max(
        pairs, key=lambda p: score2(seqs[p[0]], seqs[p[1]], scheme)
    )
    x, y = best_pair
    (z,) = tuple(set(range(3)) - set(best_pair))

    seed = align2(seqs[x], seqs[y], scheme)
    merged, _ = align_profiles(seed.rows, [seqs[z]], scheme)

    rows: list[str] = [""] * 3
    rows[x], rows[y], rows[z] = merged
    score = scheme.sp_score(rows)
    return Alignment3(
        rows=tuple(rows),  # type: ignore[arg-type]
        score=score,
        meta={
            "engine": "progressive",
            "seed_pair": best_pair,
            "seed_score": seed.score,
        },
    )
