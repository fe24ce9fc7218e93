"""Property-based tests for the extension engines: local, semiglobal,
banded, and the N-sequence MSA."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.band import align3_banded
from repro.core.dp3d import score3_dp3d
from repro.core.local import align3_local, score3_local
from repro.core.scoring import default_scheme_for
from repro.core.semiglobal import align3_semiglobal, score3_semiglobal
from repro.core.types import moves_to_columns
from repro.core.wavefront import wavefront_sweep
from repro.core.workspace import PlaneWorkspace
from repro.msa.progressive import align_msa
from repro.seqio.alphabet import DNA, PROTEIN
from tests.reference.modes import (
    best_end_cell,
    local_dp3d_matrix,
    semiglobal_dp3d_matrix,
    walk_back,
)

SCHEME = default_scheme_for(DNA)
SCHEMES = {"dna": SCHEME, "protein": default_scheme_for(PROTEIN)}
ORACLES = {"local": local_dp3d_matrix, "semiglobal": semiglobal_dp3d_matrix}
LETTERS = {"dna": "ACGT", "protein": "ACDEFGHIKLMNPQRSTVWY"}
#: One workspace shared by every example: stale scratch must never leak.
SHARED_WS = PlaneWorkspace()

dna_seq = st.text(alphabet="ACGT", min_size=0, max_size=9)
triple = st.tuples(dna_seq, dna_seq, dna_seq)

COMMON = dict(deadline=None, max_examples=30)


@st.composite
def scheme_triples(draw):
    """``(alphabet, triple)``: up to 8 residues each, empty included."""
    alphabet = draw(st.sampled_from(sorted(SCHEMES)))
    seq = st.text(alphabet=LETTERS[alphabet], min_size=0, max_size=8)
    return alphabet, draw(st.tuples(seq, seq, seq))


@settings(deadline=None, max_examples=80)
@given(
    case=scheme_triples(),
    mode=st.sampled_from(["local", "semiglobal"]),
    reuse=st.booleans(),
)
@example(case=("dna", ("", "", "")), mode="local", reuse=False)
@example(case=("dna", ("", "", "")), mode="semiglobal", reuse=True)
@example(case=("dna", ("A", "C", "G")), mode="local", reuse=True)
@example(case=("protein", ("W", "", "W")), mode="semiglobal", reuse=False)
@example(case=("dna", ("ACGT", "", "GG")), mode="semiglobal", reuse=True)
def test_modes_match_scalar_oracle(case, mode, reuse):
    """Score-only and traceback sweeps of both modes, with a fresh or a
    reused workspace, and the alignments built on them reproduce the
    scalar oracle bit for bit."""
    alphabet, seqs = case
    scheme = SCHEMES[alphabet]
    ws = SHARED_WS if reuse else None
    D, M = ORACLES[mode](*seqs, scheme)
    score, end = best_end_cell(D, mode)
    start, moves = walk_back(M, end)
    subs = [s[a:b] for s, a, b in zip(seqs, start, end)]
    core = tuple("".join(c) for c in zip(*moves_to_columns(moves, *subs)))
    core = core or ("", "", "")

    for score_only in (True, False):
        sweep = wavefront_sweep(
            *seqs, scheme, score_only=score_only, workspace=ws, mode=mode
        )
        assert (sweep.score, sweep.end_cell) == (score, end)
    # Same tie rule, so the whole move cube matches, restarts included.
    assert np.array_equal(sweep.move_cube, M)
    if mode == "local":
        aln = align3_local(*seqs, scheme)
        assert aln.meta["spans"] == tuple(zip(start, end))
        assert aln.meta["cells"] == math.prod(len(s) + 1 for s in seqs)
        assert aln.rows == core
        for row, seq, (a, b) in zip(aln.rows, seqs, aln.meta["spans"]):
            assert row.replace("-", "") == seq[a:b]
    else:
        aln = align3_semiglobal(*seqs, scheme)
        lo = sum(start)  # one end-gap column per unconsumed prefix residue
        assert aln.meta["core"] == (lo, lo + len(moves))
        assert (aln.meta["start"], aln.meta["end"]) == (start, end)
        assert tuple(r[lo : lo + len(moves)] for r in aln.rows) == core
        assert aln.sequences() == seqs
    assert aln.score == score
    assert abs(scheme.sp_score(core) - score) < 1e-9


@settings(**COMMON)
@given(triple)
def test_mode_ordering(seqs):
    """global <= semiglobal <= local, and local >= 0."""
    g = score3_dp3d(*seqs, SCHEME)
    sg = score3_semiglobal(*seqs, SCHEME)
    loc = score3_local(*seqs, SCHEME)
    assert g <= sg + 1e-9
    assert sg <= loc + 1e-9
    assert loc >= 0


@settings(**COMMON)
@given(triple)
def test_banded_always_certified_optimal(seqs):
    aln = align3_banded(*seqs, SCHEME)
    assert aln.meta["band_certified"]
    assert abs(aln.score - score3_dp3d(*seqs, SCHEME)) < 1e-9


@settings(**COMMON)
@given(triple)
def test_local_alignment_is_feasible_and_consistent(seqs):
    aln = align3_local(*seqs, SCHEME)
    assert abs(SCHEME.sp_score(aln.rows) - aln.score) < 1e-9
    for row, seq, span in zip(aln.rows, seqs, aln.meta["spans"]):
        assert row.replace("-", "") == seq[span[0] : span[1]]


@settings(**COMMON)
@given(triple)
def test_semiglobal_covers_inputs_and_core_scores(seqs):
    aln = align3_semiglobal(*seqs, SCHEME)
    assert aln.sequences() == seqs
    lo, hi = aln.meta["core"]
    core = tuple(r[lo:hi] for r in aln.rows)
    assert abs(SCHEME.sp_score(core) - aln.score) < 1e-9


@settings(**COMMON)
@given(triple)
def test_local_invariant_under_padding_with_junk(seqs):
    """Appending strongly-mismatching junk to every sequence can only keep
    or raise the local optimum (never lower it)."""
    base = score3_local(*seqs, SCHEME)
    padded = tuple(s + "T" * 0 + "A" for s in seqs)  # shared char may help
    padded_score = score3_local(*padded, SCHEME)
    assert padded_score >= base - 1e-9


@settings(deadline=None, max_examples=12)
@given(st.lists(dna_seq, min_size=2, max_size=5))
def test_msa_roundtrip_and_sp_consistency(seqs):
    msa = align_msa(list(seqs), SCHEME)
    assert msa.sequences() == tuple(seqs)
    # The SP score computed by the container equals a manual column sum
    # over all pairs.
    manual = 0.0
    for a in range(msa.depth):
        for b in range(a + 1, msa.depth):
            for x, y in zip(msa.rows[a], msa.rows[b]):
                manual += SCHEME.pair_score(x, y)
    assert abs(msa.sp_score(SCHEME) - manual) < 1e-9


@settings(deadline=None, max_examples=12)
@given(dna_seq, dna_seq, dna_seq)
def test_msa_exact_triples_matches_engine(sa, sb, sc):
    msa = align_msa([sa, sb, sc], SCHEME, exact_triples=True)
    assert abs(msa.sp_score(SCHEME) - score3_dp3d(sa, sb, sc, SCHEME)) < 1e-9
