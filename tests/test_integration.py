"""End-to-end integration tests crossing module boundaries: FASTA in,
scheme guessing, exact + heuristic + pruned alignment, simulated scaling —
the full user workflow of the README."""

import pytest

from repro import (
    DNA,
    MutationModel,
    align3,
    align3_score,
    default_scheme_for,
    mutated_family,
    read_fasta,
    write_fasta,
)
from repro.cluster import BlockGrid, calibrate_t_cell, ethernet_2007, simulate_wavefront
from repro.core.bounds import carrillo_lipman_tube
from repro.heuristics import align3_centerstar, align3_progressive
from repro.seqio.datasets import load_dataset


class TestFastaToAlignmentPipeline:
    def test_roundtrip_through_files(self, tmp_path):
        fam = mutated_family(30, seed=3)
        path = tmp_path / "family.fasta"
        write_fasta(path, [(f"seq{i}", s) for i, s in enumerate(fam)])
        records = read_fasta(path)
        seqs = [s for _h, s in records]
        assert seqs == fam
        aln = align3(*seqs)
        assert aln.sequences() == tuple(fam)
        assert aln.meta["scheme"] == "dna5-4"

    def test_bundled_globins_full_flow(self):
        ds = load_dataset("globins")
        seqs = [s[:30] for _h, s in ds["records"]]
        aln = align3(*seqs)
        assert aln.meta["scheme"] == "blosum62"
        assert aln.identity() > 0.1  # globins are homologous


class TestExactVsHeuristicWorkflow:
    def test_quality_pipeline(self, dna_scheme):
        fam = mutated_family(35, model=MutationModel(0.2, 0.05, 0.05), seed=9)
        exact = align3(*fam, dna_scheme)
        cs = align3_centerstar(*fam, dna_scheme)
        pg = align3_progressive(*fam, dna_scheme)
        assert cs.score <= exact.score + 1e-9
        assert pg.score <= exact.score + 1e-9
        # The heuristic score is the pruning lower bound; tie it together.
        _tube, stats = carrillo_lipman_tube(
            *fam, dna_scheme, lower_bound=max(cs.score, pg.score)
        )
        pruned = align3(*fam, dna_scheme, method="pruned")
        assert pruned.score == pytest.approx(exact.score)
        assert stats.kept_fraction < 0.5  # related sequences prune a lot


class TestMethodsCrossCheck:
    def test_every_method_same_optimum(self, dna_scheme):
        fam = mutated_family(25, seed=4)
        expected = align3_score(*fam, dna_scheme)
        for method in ("wavefront", "hirschberg", "pruned", "blocks"):
            aln = align3(*fam, dna_scheme, method=method)
            assert aln.score == pytest.approx(expected), method


class TestCalibratedSimulation:
    def test_calibrated_cluster_prediction(self):
        t_cell = calibrate_t_cell(n=24, seed=2)
        machine = ethernet_2007(8, t_cell=t_cell)
        grid = BlockGrid.for_sequences(100, 100, 100, 16)
        res = simulate_wavefront(grid, machine)
        assert 1.0 < res.speedup <= 8.0
        # Predicted serial time must equal cells * t_cell.
        assert res.serial_time == pytest.approx(101**3 * t_cell)


class TestAffineWorkflow:
    def test_affine_end_to_end(self):
        scheme = default_scheme_for(DNA).with_gaps(gap=-2.0, gap_open=-8.0)
        fam = mutated_family(18, seed=6)
        aln = align3(*fam, scheme)
        assert aln.meta["engine"] == "affine"
        recomputed = scheme.sp_score_affine_quasinatural(aln.rows)
        assert recomputed == pytest.approx(aln.score)
