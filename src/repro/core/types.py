"""Result types and the 7-move encoding shared by every 3-D DP engine.

Move encoding
-------------
A move is a non-empty subset of {advance A, advance B, advance C}, encoded as
a 3-bit integer: bit 0 advances A (the first index ``i``), bit 1 advances B
(``j``), bit 2 advances C (``k``). The seven legal moves are therefore the
integers 1..7; 0 is reserved for "no predecessor" (the origin cell) in move
cubes. ``MOVE_ABC == 7`` is the all-match move.

Every engine in :mod:`repro.core` and :mod:`repro.parallel` uses this same
encoding, which is what lets them share one traceback implementation
(:mod:`repro.core.traceback`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.seqio.alphabet import GAP_CHAR

#: Alignment modes: the sweep's restart floor and answer region (see
#: :mod:`repro.core.wavefront`); cache keys and the CLI ``--mode`` use them.
MODES = ("global", "local", "semiglobal")

#: All seven legal moves, in ascending encoding order.
ALL_MOVES: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7)

#: The all-advance (three-way match column) move.
MOVE_ABC = 7

#: Human-readable names, indexed by move code (index 0 unused).
MOVE_NAMES: tuple[str, ...] = (
    "origin",
    "A--",
    "-B-",
    "AB-",
    "--C",
    "A-C",
    "-BC",
    "ABC",
)


def move_delta(move: int) -> tuple[int, int, int]:
    """The (di, dj, dk) index advance of ``move``.

    >>> move_delta(7)
    (1, 1, 1)
    >>> move_delta(2)
    (0, 1, 0)
    """
    if not 1 <= move <= 7:
        raise ValueError(f"move must be in 1..7, got {move}")
    return (move & 1, (move >> 1) & 1, (move >> 2) & 1)


def moves_to_columns(
    moves: list[int],
    sa: str,
    sb: str,
    sc: str,
) -> list[tuple[str, str, str]]:
    """Expand a move sequence into alignment columns.

    ``moves`` is ordered from the start of the alignment to the end. Raises
    ``ValueError`` when the moves do not consume the sequences exactly.
    """
    i = j = k = 0
    cols: list[tuple[str, str, str]] = []
    for m in moves:
        di, dj, dk = move_delta(m)
        if i + di > len(sa) or j + dj > len(sb) or k + dk > len(sc):
            raise ValueError("move sequence overruns a sequence")
        ca = sa[i] if di else GAP_CHAR
        cb = sb[j] if dj else GAP_CHAR
        cc = sc[k] if dk else GAP_CHAR
        i, j, k = i + di, j + dj, k + dk
        cols.append((ca, cb, cc))
    if (i, j, k) != (len(sa), len(sb), len(sc)):
        raise ValueError(
            f"move sequence consumed ({i},{j},{k}) of "
            f"({len(sa)},{len(sb)},{len(sc)}) residues"
        )
    return cols


@dataclass
class Alignment3:
    """An alignment of three sequences.

    Attributes
    ----------
    rows:
        The three aligned strings (equal length, gaps as ``-``).
    score:
        The objective value reported by the engine that produced this
        alignment (sum-of-pairs under the scheme it was given).
    meta:
        Free-form provenance: engine name, cell counts, wall time, etc.
    """

    rows: tuple[str, str, str]
    score: float
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.rows) != 3:
            raise ValueError("Alignment3 requires exactly three rows")
        lengths = {len(r) for r in self.rows}
        if len(lengths) != 1:
            raise ValueError(f"rows have unequal lengths: {sorted(lengths)}")
        for row in self.rows:
            for a, b in zip(row, row[1:]):
                del a, b  # cheap iteration keeps validation O(n)
        # An all-gap column is never produced by a legal move sequence.
        for col in zip(*self.rows):
            if all(c == GAP_CHAR for c in col):
                raise ValueError("alignment contains an all-gap column")

    @property
    def length(self) -> int:
        """Number of alignment columns."""
        return len(self.rows[0])

    def columns(self) -> Iterator[tuple[str, str, str]]:
        """Iterate over alignment columns as character triples."""
        return zip(*self.rows)

    def sequences(self) -> tuple[str, str, str]:
        """The three input sequences, reconstructed by stripping gaps."""
        a, b, c = (row.replace(GAP_CHAR, "") for row in self.rows)
        return a, b, c

    def moves(self) -> list[int]:
        """Recover the move sequence of this alignment (see module docs)."""
        out = []
        for ca, cb, cc in self.columns():
            m = (
                (1 if ca != GAP_CHAR else 0)
                | (2 if cb != GAP_CHAR else 0)
                | (4 if cc != GAP_CHAR else 0)
            )
            out.append(m)
        return out

    def identity(self) -> float:
        """Fraction of columns in which all three residues are identical."""
        if self.length == 0:
            return 0.0
        same = sum(
            1
            for ca, cb, cc in self.columns()
            if ca == cb == cc and ca != GAP_CHAR
        )
        return same / self.length

    def pretty(self, width: int = 60) -> str:
        """Block-formatted rendering, ``width`` columns per block."""
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        blocks = []
        labels = ("A", "B", "C")
        for start in range(0, self.length, width):
            blocks.append(
                "\n".join(
                    f"{lbl} {row[start:start + width]}"
                    for lbl, row in zip(labels, self.rows)
                )
            )
        return "\n\n".join(blocks)

    def __str__(self) -> str:
        return (
            f"Alignment3(score={self.score:g}, length={self.length})\n"
            + self.pretty()
        )
