"""Chain solver: constrained / anchored alignment over existing engines.

:func:`align3_chain` is the engine behind ``align3(constraints=...)`` and
``align3(method="anchored")``. It decomposes the cube along a validated
anchor chain (:mod:`repro.anchor.chain`), solves every free sub-cube with
the engine the request names or, for ``auto``, whichever exact engine
:func:`repro.core.api.select_method` picks from *that sub-cube* alone (a
similar 200-residue gap segment gets ``pruned`` while a diverged one
gets ``wavefront``), splices the forced anchor columns between the
sub-alignments, and scores the stitched rows with ``scheme.sp_score`` —
the same closing idiom as the Hirschberg engine. Sub-cubes go through
``align3``'s resolver and dispatcher (:func:`~repro.core.api.resolve_method`,
:func:`~repro.core.api.run_method`).

Correctness: every alignment that respects the anchors factors uniquely
into per-segment alignments plus the fixed anchor columns, and the SP
objective is column-additive under the linear gap model, so summing
per-segment optima is optimal subject to the constraints (Chin et al.).
With an empty chain there is exactly one segment — the full cube — and
the result is bit-identical to the unanchored engines.

Memory: sub-cubes are solved *sequentially* sharing one grow-only
:class:`~repro.core.workspace.PlaneWorkspace`, so the peak footprint
follows the largest sub-cube, not the full cube — this is what opens
the n >> 10^3 regime (see ``degrade.estimate_bytes(..., anchors=...)``).
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.core.api import check_gap_model, resolve_method, run_method
from repro.core.methods import subcube_engine
from repro.core.scoring import ScoringScheme
from repro.core.types import Alignment3
from repro.obs import hooks as _obs
from repro.obs import trace as _trace
from repro.resilience import degrade as _degrade

from .chain import Segment, chain_coverage, decompose, max_subcube_dims
from .discover import discover_anchors
from .model import Anchor, as_anchors, validate_chain

__all__ = ["align3_chain"]


def _solve_segment(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    engine: str,
    *,
    workspace,
    budget: int,
    allow_degrade: bool,
) -> tuple[Alignment3, str]:
    """Solve one free sub-cube; returns ``(alignment, engine_used)``."""
    res = resolve_method(engine, (sa, sb, sc), scheme, budget=budget)
    return run_method(
        res, sa, sb, sc, scheme, allow_degrade=allow_degrade,
        workspace=workspace,
    )


def align3_chain(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    anchors: Sequence[Any] | None = None,
    *,
    method: str = "auto",
    allow_degrade: bool = True,
) -> Alignment3:
    """Optimal three-way alignment through an anchor chain.

    Parameters
    ----------
    anchors:
        The constraint chain (tuples/dicts/:class:`Anchor`). ``None``
        switches on *anchored* mode: the chain is discovered
        automatically (:func:`repro.anchor.discover.discover_anchors`)
        and an empty discovery result falls back to the unanchored
        engine — still exact. Pass an explicit (possibly empty) chain
        for *constrained* mode.
    method:
        Per-sub-cube engine (:data:`~repro.core.methods.CHAIN_ENGINES`);
        ``"auto"`` (default) lets :func:`~repro.core.api.select_method`
        pick one per segment, from that sub-cube alone.

    The result's ``meta["anchor"]`` records the mode, anchor/segment
    counts, chain coverage, the per-segment engine histogram and — in
    anchored mode — the discovery report.
    """
    check_gap_model(scheme, constrained=True)
    method = subcube_engine(method)
    dims = (len(sa), len(sb), len(sc))
    anchor_meta: dict[str, Any] = {}
    if anchors is None:
        anchor_meta["mode"] = "anchored"
        chain, info = discover_anchors(sa, sb, sc)
        anchor_meta["discovery"] = info
    else:
        anchor_meta["mode"] = "constrained"
        chain = validate_chain(as_anchors(anchors), dims)

    t0 = time.perf_counter()
    engines: dict[str, int] = {}
    budget = _degrade.memory_budget()
    sub_dims = max_subcube_dims(chain, dims)
    anchor_meta.update(
        anchors=len(chain),
        anchored_columns=sum(a.length for a in chain),
        coverage=round(chain_coverage(chain, dims), 4),
        max_subcube_cells=(sub_dims[0] + 1)
        * (sub_dims[1] + 1)
        * (sub_dims[2] + 1),
    )

    with _trace.span(
        "align3_chain", mode=anchor_meta["mode"], anchors=len(chain)
    ):
        if not chain and anchors is None:
            # Anchored mode found nothing trustworthy: run the whole
            # problem through one unanchored exact engine (bit-identical
            # to calling align3 without anchoring).
            aln, engine = _solve_segment(
                sa, sb, sc, scheme, method,
                workspace=None, budget=budget,
                allow_degrade=allow_degrade,
            )
            anchor_meta["fallback"] = engine
            engines[engine] = 1
            aln = Alignment3(rows=aln.rows, score=aln.score, meta=dict(aln.meta))
        else:
            from repro.core.workspace import PlaneWorkspace

            workspace = PlaneWorkspace(sub_dims)
            rows_a: list[str] = []
            rows_b: list[str] = []
            rows_c: list[str] = []
            segments_solved = 0
            for part in decompose(chain, dims):
                if isinstance(part, Anchor):
                    rows_a.append(sa[part.i : part.i + part.length])
                    rows_b.append(sb[part.j : part.j + part.length])
                    rows_c.append(sc[part.k : part.k + part.length])
                    continue
                seg: Segment = part
                if seg.empty:
                    continue
                (i0, j0, k0), (i1, j1, k1) = seg.start, seg.end
                sub, engine = _solve_segment(
                    sa[i0:i1], sb[j0:j1], sc[k0:k1], scheme, method,
                    workspace=workspace, budget=budget,
                    allow_degrade=allow_degrade,
                )
                engines[engine] = engines.get(engine, 0) + 1
                segments_solved += 1
                rows_a.append(sub.rows[0])
                rows_b.append(sub.rows[1])
                rows_c.append(sub.rows[2])
            rows = ("".join(rows_a), "".join(rows_b), "".join(rows_c))
            score = scheme.sp_score(rows)
            anchor_meta["segments"] = segments_solved
            aln = Alignment3(rows=rows, score=score, meta={})

    anchor_meta["engines"] = dict(sorted(engines.items()))
    aln.meta["engine"] = "chain"
    aln.meta["anchor"] = anchor_meta
    aln.meta["wall_time_s"] = time.perf_counter() - t0
    _obs.record_anchor(
        anchor_meta["mode"],
        anchors=len(chain),
        coverage=anchor_meta["coverage"],
        segments=anchor_meta.get("segments", 0),
        engines=engines,
    )
    return aln
