"""Heuristic three-sequence alignment baselines.

Exact three-way alignment exists because heuristics leave score on the
table; these baselines quantify that optimality gap (experiment T3) and
supply the lower bound that drives Carrillo–Lipman pruning
(:mod:`repro.core.bounds`).

* :func:`align3_centerstar` — Gusfield's center-star specialised to three
  sequences: pick the sequence with the highest summed pairwise score, align
  the other two to it, merge with "once a gap, always a gap".
* :func:`align3_progressive` — align the closest pair first, then align the
  third sequence against the resulting two-row *profile*.
"""

from repro.heuristics.centerstar import align3_centerstar
from repro.heuristics.progressive import align3_progressive

__all__ = [
    "align3_centerstar",
    "align3_progressive",
]
