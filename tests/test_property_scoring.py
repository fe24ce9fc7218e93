"""Property-based tests for scoring, alignment containers and the affine
engine's objective."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.affine import score3_affine
from repro.core.scoring import default_scheme_for
from repro.core.types import moves_to_columns
from repro.seqio.alphabet import DNA
from tests.reference.affine import affine_reference

SCHEME = default_scheme_for(DNA)
AFFINE = SCHEME.with_gaps(gap=-3.0, gap_open=-7.0)

dna_seq = st.text(alphabet="ACGT", min_size=0, max_size=5)
moves = st.lists(st.integers(1, 7), min_size=0, max_size=12)

COMMON = dict(deadline=None, max_examples=50)


def _rows_from_moves(mv):
    """Build three concrete rows realising an arbitrary move sequence."""
    counts = [sum((m >> b) & 1 for m in mv) for b in range(3)]
    seqs = tuple(("ACGT" * 4)[:c] for c in counts)
    cols = moves_to_columns(mv, *seqs)
    return tuple("".join(c[r] for c in cols) for r in range(3))


@settings(**COMMON)
@given(moves)
def test_sp_score_column_additivity(mv):
    rows = _rows_from_moves(mv)
    total = SCHEME.sp_score(rows)
    by_col = sum(SCHEME.column_score(*col) for col in zip(*rows))
    assert abs(total - by_col) < 1e-9


@settings(**COMMON)
@given(moves)
def test_sp_score_row_permutation_invariance(mv):
    rows = _rows_from_moves(mv)
    base = SCHEME.sp_score(rows)
    assert abs(SCHEME.sp_score((rows[1], rows[0], rows[2])) - base) < 1e-9
    assert abs(SCHEME.sp_score((rows[2], rows[1], rows[0])) - base) < 1e-9


multibit_moves = st.lists(
    st.sampled_from([3, 5, 6, 7]), min_size=0, max_size=12
)


@settings(**COMMON)
@given(multibit_moves)
def test_affine_conventions_agree_without_gapgap_interruptions(mv):
    """When no pair's state passes through 'neither' between two gap
    columns, the natural and quasi-natural scorers agree. A sufficient
    condition: no move leaves any pair fully gapped, i.e. every move has
    at least two bits set (sampled directly to avoid filtering)."""
    rows = _rows_from_moves(mv)
    qn = AFFINE.sp_score_affine_quasinatural(rows)
    nat = AFFINE.sp_score_affine_natural(rows)
    assert abs(qn - nat) < 1e-9


@settings(**COMMON)
@given(moves)
def test_quasinatural_never_above_natural(mv):
    """Quasi-natural charges a superset of the natural convention's gap
    opens (re-opening after interruptions), so with nonpositive gap_open it
    can only score lower or equal."""
    rows = _rows_from_moves(mv)
    qn = AFFINE.sp_score_affine_quasinatural(rows)
    nat = AFFINE.sp_score_affine_natural(rows)
    assert qn <= nat + 1e-9


@settings(**COMMON)
@given(moves)
def test_zero_open_affine_equals_linear(mv):
    rows = _rows_from_moves(mv)
    zero = SCHEME.with_gaps(gap=-3.0, gap_open=0.0)
    assert abs(
        zero.sp_score_affine_quasinatural(rows)
        - SCHEME.with_gaps(gap=-3.0).sp_score(rows)
    ) < 1e-9


@settings(deadline=None, max_examples=15)
@given(dna_seq, dna_seq, dna_seq)
def test_affine_engine_matches_scalar_reference(sa, sb, sc):
    got = score3_affine(sa, sb, sc, AFFINE)
    expected = affine_reference(sa, sb, sc, AFFINE)
    assert abs(got - expected) < 1e-9


@settings(deadline=None, max_examples=15)
@given(dna_seq, dna_seq, dna_seq)
def test_affine_optimum_is_attainable_upper_bound(sa, sb, sc):
    """The affine DP optimum dominates the quasi-natural score of any
    feasible alignment — spot-check with the linear-optimal alignment."""
    from repro.core.wavefront import align3_wavefront

    lin = SCHEME.with_gaps(gap=AFFINE.gap)
    aln = align3_wavefront(sa, sb, sc, lin)
    feasible = AFFINE.sp_score_affine_quasinatural(aln.rows)
    assert score3_affine(sa, sb, sc, AFFINE) >= feasible - 1e-9
