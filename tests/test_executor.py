"""Unit tests for the persistent worker pool (repro.parallel.executor)."""

import pytest

from repro.core.dp3d import score3_dp3d
from repro.core.wavefront import align3_wavefront
from repro.parallel.executor import WavefrontPool, fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(scope="module")
def pool():
    with WavefrontPool((30, 30, 30), workers=2) as p:
        yield p


class TestPoolCorrectness:
    @needs_fork
    def test_scores_match_reference(self, pool, dna_scheme, small_triples):
        for triple in small_triples:
            got = pool.score3(*triple, dna_scheme)
            assert got == pytest.approx(score3_dp3d(*triple, dna_scheme)), triple

    @needs_fork
    def test_alignments_bit_identical_to_serial(
        self, pool, dna_scheme, family_small
    ):
        a = pool.align3(*family_small, dna_scheme)
        b = align3_wavefront(*family_small, dna_scheme)
        assert a.rows == b.rows
        assert a.score == b.score

    @needs_fork
    def test_many_jobs_reuse_buffers(self, pool, dna_scheme):
        from repro.seqio.generate import mutated_family

        # Interleave sizes so stale buffer contents would be caught.
        for n in (25, 5, 18, 1, 25, 12):
            fam = mutated_family(n, seed=n)
            got = pool.score3(*fam, dna_scheme)
            assert got == pytest.approx(score3_dp3d(*fam, dna_scheme)), n

    @needs_fork
    def test_empty_sequences(self, pool, dna_scheme):
        assert pool.score3("", "", "", dna_scheme) == 0.0
        aln = pool.align3("ACGT", "", "", dna_scheme)
        assert aln.sequences() == ("ACGT", "", "")

    @needs_fork
    def test_scheme_change_between_jobs(self, pool, dna_scheme, family_small):
        loose = dna_scheme.with_gaps(gap=-1.0)
        got_default = pool.score3(*family_small, dna_scheme)
        got_loose = pool.score3(*family_small, loose)
        assert got_loose == pytest.approx(score3_dp3d(*family_small, loose))
        assert got_default == pytest.approx(
            score3_dp3d(*family_small, dna_scheme)
        )
        assert got_loose >= got_default  # cheaper gaps never score lower


class TestPoolGuards:
    def test_capacity_enforced(self, pool, dna_scheme):
        with pytest.raises(ValueError, match="exceed pool capacity"):
            pool.score3("A" * 40, "A", "A", dna_scheme)

    def test_affine_rejected(self, pool, dna_scheme):
        with pytest.raises(ValueError, match="linear"):
            pool.score3("A", "A", "A", dna_scheme.with_gaps(gap=-1, gap_open=-1))

    @needs_fork
    def test_unencodable_sequence_leaves_pool_usable(self, dna_scheme):
        with WavefrontPool((30, 30, 30), workers=2) as p:
            with pytest.raises(ValueError, match="not in alphabet"):
                p.align3("ACGTACGT", "MKVLLA", "ACGGT", dna_scheme)
            triple = ("ACGTACGT", "ACGGTA", "ACGGT")
            got = p.align3(*triple, dna_scheme)
            assert got.rows == align3_wavefront(*triple, dna_scheme).rows
            assert p.failures == []

    def test_closed_pool_rejects_jobs(self, dna_scheme):
        p = WavefrontPool((5, 5, 5), workers=1)
        p.close()
        with pytest.raises(RuntimeError, match="closed"):
            p.score3("A", "A", "A", dna_scheme)

    def test_double_close_is_idempotent(self):
        p = WavefrontPool((5, 5, 5), workers=2)
        p.close()
        p.close()

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            WavefrontPool((5, 5, 5), workers=0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            WavefrontPool((-1, 5, 5), workers=1)


class TestSerialFallback:
    def test_single_worker_pool(self, dna_scheme, family_small):
        with WavefrontPool((30, 30, 30), workers=1) as p:
            got = p.score3(*family_small, dna_scheme)
            assert got == pytest.approx(score3_dp3d(*family_small, dna_scheme))
            aln = p.align3(*family_small, dna_scheme)
            assert aln.meta["serial_fallback"] is True
