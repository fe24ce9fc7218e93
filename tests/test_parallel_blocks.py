"""Tests for the parallel executor: per-call ``blocks`` (a one-job
``WavefrontPool``) and a reused pool, against the serial oracle across
worker counts, band depths, alphabets, degenerate shapes and
validation."""

import pytest

from repro.core.dp3d import align3_dp3d, score3_dp3d
from repro.core.scoring import ScoringScheme
from repro.core.wavefront import align3_wavefront
from repro.parallel import executor
from repro.parallel.blocks import align3_blocks, score3_blocks
from repro.parallel.executor import WavefrontPool, fork_available
from repro.seqio.alphabet import DNA, PROTEIN
from repro.seqio.generate import mutated_family

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


class TestScoreIdentity:
    @needs_fork
    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_matches_dp3d(self, dna_scheme, family_small, workers):
        ref = score3_dp3d(*family_small, dna_scheme)
        got = score3_blocks(*family_small, dna_scheme, workers=workers)
        assert got == ref  # bit-identical, not approx

    @needs_fork
    def test_more_workers_than_rows(self, dna_scheme, family_small):
        # workers > n1 + 1: the pool must shrink to the row count rather
        # than spawn idle workers (or worse, empty slabs).
        ref = score3_dp3d(*family_small, dna_scheme)
        got = score3_blocks(*family_small, dna_scheme, workers=64)
        assert got == ref
        aln = align3_blocks(*family_small, dna_scheme, workers=64)
        assert aln.meta["active_workers"] == len(family_small[0]) + 1

    @needs_fork
    @pytest.mark.parametrize("band", [1, 2, 7])
    def test_shallow_bands_force_many_blocks(
        self, dna_scheme, family_small, band, monkeypatch
    ):
        # band=1 degenerates to per-plane synchronisation through the
        # counter protocol — the worst case for the window rotation.
        monkeypatch.setattr(executor, "BAND_CAP", band)
        ref = score3_dp3d(*family_small, dna_scheme)
        got = score3_blocks(*family_small, dna_scheme, workers=3)
        assert got == ref

    @needs_fork
    def test_asymmetric_dims(self, dna_scheme):
        sa, sb, sc = "GATTACAGATTACA", "GAT", "ACGTACGT"
        ref = score3_dp3d(sa, sb, sc, dna_scheme)
        assert score3_blocks(sa, sb, sc, dna_scheme, workers=3) == ref

    def test_single_worker_serial_fallback(self, dna_scheme, family_small):
        ref = score3_dp3d(*family_small, dna_scheme)
        got = score3_blocks(*family_small, dna_scheme, workers=1)
        assert got == ref


class TestAlignmentIdentity:
    @needs_fork
    def test_rows_bit_identical_to_wavefront(self, dna_scheme, family_small):
        ref = align3_wavefront(*family_small, dna_scheme)
        aln = align3_blocks(*family_small, dna_scheme, workers=3)
        assert aln.rows == ref.rows
        assert aln.score == ref.score
        assert aln.sequences() == tuple(family_small)

    @needs_fork
    def test_alignment_optimal(self, dna_scheme, family_small):
        ref = align3_dp3d(*family_small, dna_scheme)
        aln = align3_blocks(*family_small, dna_scheme, workers=2)
        assert aln.score == ref.score

    @needs_fork
    def test_deterministic_across_runs(self, dna_scheme, family_small):
        a = align3_blocks(*family_small, dna_scheme, workers=4)
        b = align3_blocks(*family_small, dna_scheme, workers=4)
        assert a.rows == b.rows and a.score == b.score


def _shapes(alphabet):
    """Heterogeneous shapes, degenerate dims included."""
    fam = tuple(mutated_family(14, alphabet=alphabet, seed=31))
    skew = (fam[0], fam[1][:3], fam[2] + fam[0])
    return [
        fam,
        skew,
        (fam[0], "", fam[2]),
        (fam[0][:1], fam[1][:1], fam[2][:1]),
        ("", "", ""),
        fam[::-1],
    ]


class TestOneExecutor:
    """Every entry point of the one parallel executor — per-call
    ``blocks`` and a pool reused across shapes — at every worker count
    returns rows and score bit-identical to the serial wavefront, and
    the score is the SP score of its own rows."""

    @pytest.mark.parametrize("alphabet", [DNA, PROTEIN], ids=["dna", "protein"])
    @pytest.mark.parametrize("traceback", [False, True], ids=["score", "align"])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("entry", ["blocks", "pool"])
    def test_bit_identical_to_serial(
        self, entry, workers, traceback, alphabet, dna_scheme, protein_scheme
    ):
        scheme = dna_scheme if alphabet is DNA else protein_scheme
        shapes = _shapes(alphabet)
        pool = None
        if entry == "pool":
            cap = tuple(max(len(s[d]) for s in shapes) for d in range(3))
            pool = WavefrontPool(cap, workers=workers)
        try:
            for seqs in shapes:
                ref = align3_wavefront(*seqs, scheme)
                if not traceback:
                    got = (
                        pool.score3(*seqs, scheme)
                        if pool
                        else score3_blocks(*seqs, scheme, workers=workers)
                    )
                    assert got == ref.score, seqs
                    continue
                aln = (
                    pool.align3(*seqs, scheme)
                    if pool
                    else align3_blocks(*seqs, scheme, workers=workers)
                )
                assert aln.rows == ref.rows, seqs
                assert aln.score == ref.score, seqs
                assert scheme.sp_score(aln.rows) == aln.score, seqs
        finally:
            if pool is not None:
                pool.close()


class TestValidationAndMeta:
    def test_workers_validated(self, dna_scheme, family_small):
        with pytest.raises(ValueError):
            score3_blocks(*family_small, dna_scheme, workers=-1)

    def test_affine_rejected(self, dna_scheme, family_small):
        affine = ScoringScheme(
            alphabet=DNA,
            matrix=dna_scheme.matrix,
            gap=dna_scheme.gap,
            gap_open=-10.0,
        )
        with pytest.raises(ValueError, match="linear"):
            score3_blocks(*family_small, affine, workers=2)

    def test_serial_fallback_meta(self, dna_scheme, family_small):
        meta = align3_blocks(*family_small, dna_scheme, workers=1).meta
        assert meta["engine"] == "blocks"
        assert meta["serial_fallback"]
        assert meta["active_workers"] == 1

    @needs_fork
    def test_parallel_meta_shape(self, dna_scheme, family_small):
        meta = align3_blocks(*family_small, dna_scheme, workers=3).meta
        assert meta["engine"] == "blocks"
        assert meta["workers"] == 3
        assert meta["active_workers"] == 3
        assert not meta["serial_fallback"]
        assert meta["supervised"]
        assert meta["recoveries"] == 0
