"""High-level entry points for three-sequence alignment.

:func:`align3` dispatches to the engine that fits the request:

===============  =============================================================
method           engine
===============  =============================================================
``auto``         affine scheme -> ``affine``; otherwise a cost model
                 (:func:`select_method`) estimates pairwise identity from
                 k-mer sketches and picks ``pruned`` for similar triples
                 at any size (the Carrillo–Lipman tube pays for itself
                 and its move store holds only the tube's cells),
                 ``hirschberg`` for diverged triples whose cube exceeds
                 :data:`AUTO_HIRSCHBERG_CELLS`, and ``wavefront`` for
                 the rest (small cubes, diverged triples). ``banded``
                 and ``blocks`` are never picked: ``pruned`` was faster
                 than ``banded`` on every near-identical triple
                 measured, and no benchmark workload shows ``blocks``
                 beating these (``docs/performance.md``).
``dp3d``         scalar reference full-matrix DP
``wavefront``    vectorised full-matrix plane sweep
``hirschberg``   linear-space divide and conquer
``pruned``       Carrillo–Lipman tube-pruned wavefront: O(n^2) bound
                 memory, pruned cells are never touched, and the moves
                 of the kept cells only (:class:`~repro.core.tube.TubeMoves`)
``banded``       certified band doubling around the main diagonal
``affine``       7-state affine-gap DP (requires ``scheme.gap_open != 0``)
``blocks``       block-tiled multiprocess wavefront: a one-job
                 :class:`~repro.parallel.executor.WavefrontPool` whose
                 workers stream row-slab x plane-band blocks over
                 per-worker readiness counters
``anchored``     anchor-discovering divide and conquer: shared unique
                 k-mers are chained into a cube-splitting anchor chain
                 (:mod:`repro.anchor`), each sub-cube solved by the
                 engine :func:`select_method` picks for it; low-identity
                 inputs fall back to the unanchored path. Passing
                 ``constraints=`` enters the same chain solver with a
                 user-supplied chain instead (*constrained* alignment —
                 optimal subject to the constraints); ``method`` names
                 the sub-cube engine, and ``affine`` and ``blocks``,
                 which cannot solve one, are rejected.
===============  =============================================================

(``tests/test_api.py`` asserts every :data:`AVAILABLE_METHODS` entry
appears in this table, so it cannot drift from the catalogue again.)

Every method above except ``affine`` solves the same linear-gap DP and
returns the same optimal score. ``dp3d`` and the plane-kernel engines
also share one tie-break (moves in code order 1..7, first of equals; pruning
keeps every cell of every optimal path), so they return the same rows;
``hirschberg`` returns a co-optimal alignment whose rows can differ on
ties, because its split points choose among optimal paths.

Every entry point takes one request path, read from the method
catalogue (:data:`repro.core.methods.METHODS`), and ``auto``'s pick
depends on the triple and scheme alone: ``align3``, ``repro batch`` and
a serve replica send one triple to one engine and record one
``meta["auto"]``. :func:`check_request`
rejects what no engine can serve, before any cache lookup or compute
(``align3``, ``BatchScheduler._normalise`` — and so serve, the router
and ``repro batch`` — and ``repro align``); :func:`resolve_method`
resolves ``auto`` and plans memory (``align3``, chain sub-cubes,
``BatchScheduler._resolve``); :func:`run_method` steps down the memory
ladder and calls the engine (``align3``, chain sub-cubes).

This module runs no cache. Results are cached by the batch layer alone
(:class:`repro.batch.BatchScheduler`), which keys each request on the
class of the engine :func:`resolve_method` planned; a single cached
request is ``run_batch([request], cache=cache)``.
"""

from __future__ import annotations

import importlib
import time
import warnings
from typing import NamedTuple, Sequence

from repro.core.methods import AVAILABLE_METHODS, METHODS, subcube_engine
from repro.core.scoring import ScoringScheme, default_scheme_for
from repro.core.types import MODES, Alignment3
from repro.obs import hooks as _obs
from repro.obs import trace as _trace
from repro.resilience import degrade as _degrade
from repro.resilience.errors import DegradationWarning, DegradedRun
from repro.seqio.alphabet import guess_common_alphabet
from repro.util.validation import check_sequences


#: Cube size above which ``auto`` sends a *diverged* triple to the
#: linear-space engine: the plain wavefront's dense move cube no longer
#: fits the auto budget. Similar triples go to ``pruned`` at any size,
#: because its move store holds only the tube's cells. The value stays
#: fixed because the end-to-end benchmark's inputs depend on it
#: (``perfbench/workloads.py`` redraws anchored inputs whose largest
#: sub-cube exceeds it).
AUTO_HIRSCHBERG_CELLS = 8_000_000

#: Cube size below which ``auto`` never bothers pruning: the tube build
#: costs three pairwise DPs plus two heuristic alignments, which a plain
#: wavefront over a small cube beats outright.
AUTO_PRUNE_MIN_CELLS = 250_000

#: Minimum estimated min-pairwise identity before ``auto`` picks the
#: pruned engine. Below this the Carrillo–Lipman bound keeps most of the
#: cube and the bound build is pure overhead.
AUTO_PRUNE_MIN_IDENTITY = 0.7


def _kmer_set(seq: str, k: int) -> set[str]:
    return {seq[i : i + k] for i in range(len(seq) - k + 1)}


def _mash_identity(kmers_a: set, kmers_b: set, k: int) -> float:
    import math

    inter = len(kmers_a & kmers_b)
    if not inter:
        return 0.0
    j = inter / len(kmers_a | kmers_b)
    return max(0.0, min(1.0, 1.0 + math.log(2.0 * j / (1.0 + j)) / k))


def estimate_identity(sa: str, sb: str, k: int = 8) -> float:
    """Cheap indel-robust identity estimate in ``[0, 1]``.

    Compares the k-mer sets of the two sequences and converts their
    Jaccard similarity ``j`` to an identity estimate via the Mash
    distance ``1 + ln(2j / (1 + j)) / k``. Runs in O(n) time and memory
    — three orders of magnitude cheaper than any alignment — which is
    what lets :func:`select_method` consult it on every request.
    Sequences shorter than ``k`` fall back to positional identity over
    the common prefix length.
    """
    if min(len(sa), len(sb)) < k:
        if not sa or not sb:
            return 1.0 if sa == sb else 0.0
        n = min(len(sa), len(sb))
        same = sum(1 for x, y in zip(sa, sb) if x == y)
        return same / n
    return _mash_identity(_kmer_set(sa, k), _kmer_set(sb, k), k)


def _min_pairwise_identity(sa: str, sb: str, sc: str, k: int = 8) -> float:
    """``min(estimate_identity(...))`` over the three pairs, building each
    sequence's k-mer set once instead of twice (the three pairwise calls
    used to rebuild every set, doubling the dominant cost of ``auto``)."""
    seqs = (sa, sb, sc)
    kmers = {
        s: _kmer_set(s, k) for s in set(seqs) if len(s) >= k
    }
    best = 1.0
    for x, y in ((sa, sb), (sa, sc), (sb, sc)):
        if x in kmers and y in kmers:
            ident = _mash_identity(kmers[x], kmers[y], k)
        else:
            ident = estimate_identity(x, y, k)
        if ident < best:
            best = ident
    return best


def select_method(
    sa: str, sb: str, sc: str, scheme: ScoringScheme
) -> tuple[str, dict]:
    """Resolve ``method="auto"`` to a concrete linear-gap engine.

    Estimates the minimum pairwise identity of the triple
    (:func:`estimate_identity`) and routes on it alone once the cube is
    past the prune threshold: similar triples (identity >=
    :data:`AUTO_PRUNE_MIN_IDENTITY`) go to ``pruned`` at any size,
    diverged cubes over :data:`AUTO_HIRSCHBERG_CELLS` to ``hirschberg``,
    and everything else to ``wavefront``. Affine schemes are resolved
    by the caller before this runs. The pick depends on the triple
    alone, so every entry point (``align3``, ``repro batch``, a serve
    replica) sends one triple to one engine.

    Returns ``(method, selection)`` where ``selection`` records the
    inputs of the decision for ``meta["auto"]``.
    """
    n1, n2, n3 = len(sa), len(sb), len(sc)
    cells = (n1 + 1) * (n2 + 1) * (n3 + 1)
    selection: dict = {"cells": cells}
    if cells <= AUTO_PRUNE_MIN_CELLS:
        selection["reason"] = f"small cube (<= {AUTO_PRUNE_MIN_CELLS} cells)"
        return "wavefront", selection
    identity = _min_pairwise_identity(sa, sb, sc)
    selection["identity"] = round(identity, 4)
    if identity >= AUTO_PRUNE_MIN_IDENTITY:
        # The pruned sweep stores moves only inside its tube, so its
        # memory follows the kept cells, not the cube: any size goes.
        selection["reason"] = f"identity >= {AUTO_PRUNE_MIN_IDENTITY}"
        return "pruned", selection
    if cells > AUTO_HIRSCHBERG_CELLS:
        selection["reason"] = (
            f"identity < {AUTO_PRUNE_MIN_IDENTITY} and "
            f"cells > {AUTO_HIRSCHBERG_CELLS}"
        )
        return "hirschberg", selection
    selection["reason"] = f"identity < {AUTO_PRUNE_MIN_IDENTITY}"
    return "wavefront", selection


def resolve_scheme(
    seqs: Sequence[str], scheme: ScoringScheme | None = None
) -> ScoringScheme:
    """``scheme`` if given, else the default scheme for the guessed alphabet.

    The alphabet is guessed per sequence (empty sequences are skipped);
    mixing alphabets — a DNA read next to a protein chain — raises
    ``ValueError`` instead of silently scoring everything under whichever
    single alphabet happens to accept the concatenation.
    """
    if scheme is not None:
        return scheme
    return default_scheme_for(guess_common_alphabet(seqs))


def check_gap_model(
    scheme: ScoringScheme | None,
    mode: str = "global",
    method: str = "auto",
    constrained: bool = False,
) -> None:
    """Reject an affine ``scheme`` on a request the affine engine cannot run.

    The one affine engine aligns globally and unconstrained, by method
    ``auto`` or ``affine``; the local and semiglobal sweeps, the chain
    solver (constraints or ``anchored``) and every other method implement
    the linear gap model. Raises ``ValueError`` for such a request.
    ``None`` stands for a default scheme, and every default is linear.
    """
    if scheme is None or not scheme.is_affine:
        return
    if mode != "global":
        raise ValueError(
            f"mode {mode!r} implements the linear gap model but the "
            "scheme has a nonzero gap_open"
        )
    if constrained or method == "anchored":
        raise ValueError(
            "constrained/anchored alignment implements the linear gap "
            "model but the scheme has a nonzero gap_open"
        )
    if method not in ("auto", "affine"):
        raise ValueError(
            f"method {method!r} implements the linear gap model but the "
            "scheme has a nonzero gap_open; use method='affine'"
        )


def check_request(
    seqs: Sequence[str],
    scheme: ScoringScheme | None = None,
    mode: str = "global",
    method: str = "auto",
    constraints=None,
) -> tuple:
    """Reject a request no engine can serve, before any lookup or compute.

    ``ValueError`` names the first fault among alphabet, mode, method,
    gap model and chain. Returns the chain normalised by
    :func:`repro.anchor.normalize_constraints` (``()`` for none).
    """
    check_sequences(seqs, count=3)
    if scheme is None:
        guess_common_alphabet(seqs)
    else:
        for seq in seqs:
            scheme.alphabet.encode(seq)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; available: {MODES}")
    if method not in METHODS:
        raise ValueError(
            f"unknown method {method!r}; available: {AVAILABLE_METHODS}"
        )
    if mode != "global" and method != "auto":
        raise ValueError(
            f"mode {mode!r} has a single engine; use method='auto'"
        )
    check_gap_model(scheme, mode, method, bool(constraints))
    if not constraints:
        return ()
    if mode != "global":
        raise ValueError("constrained alignment supports mode='global' only")
    from repro.anchor.model import normalize_constraints

    constraints = normalize_constraints(constraints, tuple(map(len, seqs)))
    subcube_engine(method)
    return constraints


class Resolved(NamedTuple):
    """What :func:`resolve_method` decided for one request."""

    method: str  # after ``auto``; a chain request keeps its own
    engine: str  # what the memory plan picked, or ``"chain"``
    selection: dict | None = None  # :func:`select_method`'s record
    plan: _degrade.DegradePlan | None = None


def resolve_method(
    method: str,
    seqs: Sequence[str],
    scheme: ScoringScheme,
    *,
    constraints=(),
    budget: int | None = None,
    allow_degrade: bool = True,
) -> Resolved:
    """Resolve ``auto`` and plan memory.

    ``auto`` becomes ``affine`` for an affine scheme, else
    :func:`select_method`'s pick. ``engine`` is the planned engine, or
    the named one when ``allow_degrade`` is off (that run raises
    instead). A chain request resolves to ``"chain"``: the solver plans
    each sub-cube itself.
    """
    if constraints or method == "anchored":
        return Resolved(method, "chain")
    selection = None
    if method == "auto":
        if scheme.is_affine:
            method = "affine"
        else:
            method, selection = select_method(*seqs, scheme)
    plan = None
    engine = method
    if METHODS[method].rung is not None:
        dims = tuple(map(len, seqs))
        plan = _degrade.plan_method(method, dims, budget=budget)
        if allow_degrade:
            engine = plan.method
    return Resolved(method, engine, selection, plan)


def _engine(method: str):
    """The function that runs ``method``, looked up on its module now."""
    module, name = METHODS[method].runs.rsplit(".", 1)
    return getattr(importlib.import_module(module), name)


def run_method(
    resolved: Resolved,
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    *,
    allow_degrade: bool = True,
    **options,
) -> tuple[Alignment3, str]:
    """Run a resolved request; returns ``(alignment, engine_used)``.

    A degrading plan raises :class:`DegradedRun` unless
    ``allow_degrade``, else warns and runs the lower engine. Each engine
    gets the ``options`` its catalogue row ``takes``.
    """
    method, plan = resolved.method, resolved.plan
    if plan is not None and plan.degraded:
        if not allow_degrade:
            raise DegradedRun(plan.describe(), plan)
        warnings.warn(DegradationWarning(plan.describe()), stacklevel=3)
        _obs.record_degrade(
            plan.requested, plan.method, plan.estimate, plan.budget
        )
        method = plan.method
    kwargs = {k: options[k] for k in METHODS[method].takes if k in options}
    return _engine(method)(sa, sb, sc, scheme, **kwargs), method


def align3(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme | None = None,
    method: str = "auto",
    workers: int = 2,
    allow_degrade: bool = True,
    constraints=None,
) -> Alignment3:
    """Optimal three-sequence alignment.

    Parameters
    ----------
    sa, sb, sc:
        The three sequences.
    scheme:
        Scoring scheme; when omitted, a default is chosen from the guessed
        alphabet (BLOSUM62 for protein, 5/-4 for nucleotides).
    method:
        One of :data:`AVAILABLE_METHODS`.
    workers:
        Worker count for the ``blocks`` method.
    allow_degrade:
        When the requested engine's estimated footprint exceeds the memory
        budget (see :mod:`repro.resilience.degrade`), True (default)
        transparently walks the degradation ladder down to an engine that
        fits — still exact, recorded in ``meta["degraded_from"]`` and a
        :class:`DegradationWarning`. False raises :class:`DegradedRun`
        instead of switching engines.
    constraints:
        Optional anchor chain the alignment must pass through — an
        iterable of ``(i, j, k, length)`` tuples (or ``{"i": ...}``
        dicts), validated, sorted and checked for chain consistency by
        :func:`repro.anchor.normalize_constraints`. A non-empty chain
        switches to *constrained* mode (cube-chain decomposition,
        optimal subject to the constraints, linear-gap only; ``method``
        names the per-sub-cube engine). ``None`` or ``()`` leaves
        behaviour exactly as before. ``meta["anchor"]`` records the
        decomposition.

    Returns
    -------
    Alignment3
        The optimal alignment; ``meta`` records the engine, cell counts and
        wall time.

    Every call computes. A cached single request goes through the batch
    layer: ``repro.batch.run_batch([request], cache=cache)``.

    Examples
    --------
    >>> from repro import align3
    >>> aln = align3("GATTACA", "GATCA", "GATTA")
    >>> aln.sequences()
    ('GATTACA', 'GATCA', 'GATTA')
    """
    seqs = (sa, sb, sc)
    constraints = check_request(seqs, scheme, "global", method, constraints)
    scheme = resolve_scheme(seqs, scheme)
    res = resolve_method(
        method, seqs, scheme, constraints=constraints,
        allow_degrade=allow_degrade,
    )

    t0 = time.perf_counter()
    with _trace.span("align3", method=res.method):
        if res.engine == "chain":
            # No constraints: ``anchored`` discovers the chain.
            aln = _engine("anchored")(
                sa, sb, sc, scheme, anchors=constraints or None,
                method=method, allow_degrade=allow_degrade,
            )
            engine = method
        else:
            aln, engine = run_method(
                res, sa, sb, sc, scheme, allow_degrade=allow_degrade,
                workers=workers,
            )

    plan = res.plan
    aln.meta.setdefault("engine", engine)
    aln.meta["method"] = engine
    aln.meta["wall_time_s"] = time.perf_counter() - t0
    aln.meta["scheme"] = scheme.name
    if res.selection is not None:
        aln.meta["auto"] = res.selection
    if plan is not None and plan.degraded:
        aln.meta["degraded_from"] = plan.requested
        aln.meta["degrade_steps"] = [
            {"method": m, "estimate_bytes": e} for m, e in plan.steps
        ]
        aln.meta["memory_budget_bytes"] = plan.budget
    return aln


def align3_score(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme | None = None,
) -> float:
    """Optimal SP score only, in O(n^2) memory.

    Dispatches to the score-only wavefront (linear model) or the score-only
    affine sweep.
    """
    check_sequences((sa, sb, sc), count=3)
    scheme = resolve_scheme((sa, sb, sc), scheme)
    if scheme.is_affine:
        from repro.core.affine import score3_affine

        return score3_affine(sa, sb, sc, scheme)
    from repro.core.wavefront import score3_wavefront

    return score3_wavefront(sa, sb, sc, scheme)
