"""Tests for the message-passing distributed runtime (repro.cluster.mpirun)."""

import pytest

from repro.cluster.blockgrid import BlockGrid
from repro.cluster.machine import MachineModel
from repro.cluster.mpirun import run_distributed
from repro.cluster.simulate import simulate_wavefront
from repro.core.dp3d import score3_dp3d
from repro.parallel.executor import fork_available
from repro.seqio.generate import mutated_family, random_sequence

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


class TestCorrectness:
    @needs_fork
    @pytest.mark.parametrize("procs", [2, 3, 4])
    def test_rank_counts(self, procs, dna_scheme):
        fam = mutated_family(18, seed=22)
        ref = score3_dp3d(*fam, dna_scheme)
        res = run_distributed(*fam, dna_scheme, block=5, procs=procs)
        assert res.score == pytest.approx(ref)
        assert res.procs == procs

    @needs_fork
    @pytest.mark.parametrize("mapping", ["pencil", "linear", "slab"])
    def test_mappings(self, mapping, dna_scheme):
        fam = mutated_family(16, seed=23)
        ref = score3_dp3d(*fam, dna_scheme)
        res = run_distributed(
            *fam, dna_scheme, block=6, procs=3, mapping=mapping
        )
        assert res.score == pytest.approx(ref)

    @needs_fork
    def test_uneven_shapes(self, dna_scheme):
        seqs = (
            random_sequence(21, seed=4),
            random_sequence(6, seed=5),
            random_sequence(13, seed=6),
        )
        ref = score3_dp3d(*seqs, dna_scheme)
        res = run_distributed(*seqs, dna_scheme, block=(6, 3, 4), procs=3)
        assert res.score == pytest.approx(ref)

    @needs_fork
    def test_tiny_inputs(self, dna_scheme):
        for triple in (("A", "", "C"), ("AC", "G", "T"), ("", "", "")):
            ref = score3_dp3d(*triple, dna_scheme)
            res = run_distributed(*triple, dna_scheme, block=2, procs=2)
            assert res.score == pytest.approx(ref), triple

    def test_single_proc_fallback(self, dna_scheme, family_small):
        res = run_distributed(*family_small, dna_scheme, block=6, procs=1)
        assert res.score == pytest.approx(
            score3_dp3d(*family_small, dna_scheme)
        )
        assert res.messages == 0

    def test_affine_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="linear"):
            run_distributed("A", "A", "A", dna_scheme.with_gaps(-1, -1))


class TestMessageLedger:
    @needs_fork
    @pytest.mark.parametrize("procs", [2, 3])
    def test_matches_simulator_accounting(self, procs, dna_scheme):
        fam = mutated_family(18, seed=24)
        n1, n2, n3 = (len(s) for s in fam)
        res = run_distributed(*fam, dna_scheme, block=5, procs=procs)
        grid = BlockGrid.for_sequences(n1, n2, n3, 5)
        sim = simulate_wavefront(grid, MachineModel(procs=procs))
        assert res.messages == sim.messages
        assert res.comm_bytes == sim.comm_volume_bytes
