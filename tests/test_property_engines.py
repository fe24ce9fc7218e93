"""Property-based tests: every engine agrees with the independent oracle on
arbitrary inputs, and structural invariants hold for arbitrary alignments."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dp3d import score3_dp3d
from repro.core.hirschberg import align3_hirschberg
from repro.core.scoring import default_scheme_for
from repro.core.wavefront import align3_wavefront, score3_wavefront
from repro.parallel.executor import WavefrontPool
from repro.seqio.alphabet import DNA
from tests.reference.bounds import random_tube
from tests.reference.bruteforce import memo_optimal_score

SCHEME = default_scheme_for(DNA)

dna_seq = st.text(alphabet="ACGT", min_size=0, max_size=9)
triple = st.tuples(dna_seq, dna_seq, dna_seq)

COMMON = dict(deadline=None, max_examples=40)


@pytest.fixture(scope="module")
def pool():
    """One parallel executor reused across every hypothesis example."""
    with WavefrontPool((9, 9, 9), workers=2) as p:
        yield p


@settings(**COMMON)
@given(triple)
def test_wavefront_matches_oracle(seqs):
    got = score3_wavefront(*seqs, SCHEME)
    expected = memo_optimal_score(*seqs, SCHEME)
    assert abs(got - expected) < 1e-9


@settings(**COMMON)
@given(seqs=triple)
def test_all_engines_agree(pool, seqs):
    ref = score3_dp3d(*seqs, SCHEME)
    assert abs(score3_wavefront(*seqs, SCHEME) - ref) < 1e-9
    assert abs(align3_hirschberg(*seqs, SCHEME, base_cells=30).score - ref) < 1e-9
    # The parallel executor: rows as well as scores, bit-identical.
    serial = align3_wavefront(*seqs, SCHEME)
    parallel = pool.align3(*seqs, SCHEME)
    assert parallel.rows == serial.rows
    assert parallel.score == serial.score
    assert pool.score3(*seqs, SCHEME) == serial.score


@settings(**COMMON)
@given(triple)
def test_alignment_invariants(seqs):
    aln = align3_wavefront(*seqs, SCHEME)
    # The alignment reproduces its inputs exactly.
    assert aln.sequences() == seqs
    # The reported score is the SP score of the emitted rows.
    assert abs(SCHEME.sp_score(aln.rows) - aln.score) < 1e-9
    # Alignment length is bounded by the sum and at least the max.
    total = sum(len(s) for s in seqs)
    assert max((len(s) for s in seqs), default=0) <= aln.length <= total


@settings(**COMMON)
@given(triple)
def test_permutation_invariance(seqs):
    """SP scoring is symmetric in the three sequences, so the optimal score
    must be invariant under any permutation of the inputs."""
    base = score3_wavefront(*seqs, SCHEME)
    sa, sb, sc = seqs
    for perm in ((sb, sa, sc), (sc, sb, sa), (sb, sc, sa)):
        assert abs(score3_wavefront(*perm, SCHEME) - base) < 1e-9


@settings(**COMMON)
@given(triple)
def test_reversal_invariance(seqs):
    """Reversing all three sequences reverses alignments bijectively, so the
    optimum is unchanged."""
    fwd = score3_wavefront(*seqs, SCHEME)
    rev = score3_wavefront(*(s[::-1] for s in seqs), SCHEME)
    assert abs(fwd - rev) < 1e-9


@settings(**COMMON)
@given(triple, st.integers(0, 2**31 - 1))
def test_random_pruning_mask_never_beats_optimum(seqs, seed):
    # The keep-region is a random tube; pruning can only lose paths.
    full = score3_wavefront(*seqs, SCHEME)
    rng = np.random.default_rng(seed)
    tube = random_tube(rng, tuple(len(s) for s in seqs))
    pruned = score3_wavefront(*seqs, SCHEME, tube=tube)
    assert pruned <= full


@settings(**COMMON)
@given(dna_seq, dna_seq)
def test_empty_third_reduces_to_modified_pairwise(sx, sy):
    """With an empty third sequence, every column pays an extra 2g against
    it; the 3-way optimum equals the pairwise optimum under the modified
    scoring (checked via the memo oracle, independently of the engines)."""
    got = score3_wavefront(sx, sy, "", SCHEME)
    assert abs(got - memo_optimal_score(sx, sy, "", SCHEME)) < 1e-9


@settings(**COMMON)
@given(dna_seq)
def test_self_alignment_score(s):
    """Aligning a sequence with two copies of itself is columnwise optimal:
    3 * matrix[x, x] per residue (no gaps ever help when the diagonal
    dominates every row of the matrix)."""
    expected = sum(3 * SCHEME.pair_score(c, c) for c in s)
    assert abs(score3_wavefront(s, s, s, SCHEME) - expected) < 1e-9
