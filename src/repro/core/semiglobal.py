"""Semi-global (overlap) three-sequence alignment.

End gaps are free: the alignment may *start* at any cell on the three
lower faces of the cube (some prefixes unconsumed at zero cost) and *end*
at any cell on the three upper faces (suffixes unconsumed). This is the
three-way generalisation of pairwise overlap alignment — the right mode
when the sequences are fragments that overlap rather than correspond
end-to-end (contig layout, the assembly use case the paper family's
introductions mention).

Semantics: leading/trailing residue-versus-gap pairs are simply not
charged. Interior gaps cost as usual. The DP is the global recurrence
with (a) a free start on the faces ``i=0 | j=0 | k=0`` and (b) the answer
maximised over the faces ``i=n1 | j=n2 | k=n3`` — both entry points run
:func:`~repro.core.wavefront.wavefront_sweep` with ``mode="semiglobal"``.
The traceback is completed into a full-length alignment by padding the
unconsumed prefixes/suffixes with free end gaps.
"""

from __future__ import annotations

from typing import Any

from repro.core.scoring import ScoringScheme
from repro.core.traceback import path_cells, traceback_moves
from repro.core.types import Alignment3, moves_to_columns
from repro.core.wavefront import wavefront_sweep
from repro.seqio.alphabet import GAP_CHAR


def score3_semiglobal(
    sa: str, sb: str, sc: str, scheme: ScoringScheme
) -> float:
    """Best overlap score (free end gaps)."""
    return wavefront_sweep(
        sa, sb, sc, scheme, score_only=True, mode="semiglobal"
    ).score


def align3_semiglobal(
    sa: str, sb: str, sc: str, scheme: ScoringScheme
) -> Alignment3:
    """Best overlap alignment, padded back to full length with end gaps.

    The returned rows cover the *entire* input sequences; ``meta["core"]``
    gives the half-open column range that was actually scored (the overlap
    region), and ``meta["score"]`` excludes the free end gaps.
    """
    res = wavefront_sweep(sa, sb, sc, scheme, mode="semiglobal")
    assert res.move_cube is not None
    end = res.end_cell
    moves = traceback_moves(res.move_cube, end, restart=True)
    start = tuple(e - t for e, t in zip(end, path_cells(moves)[-1]))

    core_cols = moves_to_columns(
        moves,
        sa[start[0] : end[0]],
        sb[start[1] : end[1]],
        sc[start[2] : end[2]],
    )
    head = _pad_columns(sa[: start[0]], sb[: start[1]], sc[: start[2]])
    tail = _pad_columns(sa[end[0] :], sb[end[1] :], sc[end[2] :])
    cols = head + core_cols + tail
    rows = tuple("".join(col[r] for col in cols) for r in range(3))
    meta: dict[str, Any] = {
        "engine": "semiglobal",
        "core": (len(head), len(head) + len(core_cols)),
        "start": start,
        "end": end,
    }
    return Alignment3(rows=rows, score=res.score, meta=meta)  # type: ignore[arg-type]


def _pad_columns(
    pa: str, pb: str, pc: str
) -> list[tuple[str, str, str]]:
    """Stack leftover fragments into end-gap columns (one sequence per
    column, staircase layout — the conventional rendering of free ends)."""
    cols: list[tuple[str, str, str]] = []
    for ch in pa:
        cols.append((ch, GAP_CHAR, GAP_CHAR))
    for ch in pb:
        cols.append((GAP_CHAR, ch, GAP_CHAR))
    for ch in pc:
        cols.append((GAP_CHAR, GAP_CHAR, ch))
    return cols
