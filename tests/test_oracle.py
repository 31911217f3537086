"""Unit tests for the serial OLC oracle (``tests/oracle``)."""

import numpy as np
import pytest

from oracle import SerialGraph, assemble_serial_olc, find_overlaps
from repro.quality import evaluate_assembly
from repro.seq import GenomeSpec, dna, make_genome, sample_reads, tile_reads


@pytest.fixture(scope="module")
def dataset():
    genome = make_genome(GenomeSpec(length=3000, seed=71))
    rs = tile_reads(genome, 350, 140, "alternate")
    return genome, list(rs.reads)


class TestFindOverlaps:
    def test_adjacent_reads_found(self, dataset):
        genome, reads = dataset
        overlaps, contained = find_overlaps(reads, k=15, end_margin=5)
        pairs = {(o.a, o.b) for o in overlaps}
        for i in range(len(reads) - 1):
            assert (i, i + 1) in pairs

    def test_contained_reads_detected(self):
        genome = make_genome(GenomeSpec(length=900, seed=72))
        reads = [genome[:500].copy(), genome[100:300].copy(), genome[400:900].copy()]
        overlaps, contained = find_overlaps(reads, k=15, end_margin=5)
        assert 1 in contained
        assert all(1 not in (o.a, o.b) for o in overlaps)

    def test_min_shared_filter(self, dataset):
        genome, reads = dataset
        loose, _ = find_overlaps(reads, k=15, min_shared=1, end_margin=5)
        strict, _ = find_overlaps(reads, k=15, min_shared=1000, end_margin=5)
        assert len(strict) < len(loose)


class TestSerialGraph:
    def test_mask_branches(self):
        from repro.align.classify import EdgeFields

        g = SerialGraph()
        f = EdgeFields(direction=2, suffix=1, pre=0, post=0)
        for v in (1, 2, 3):
            g.add_edge(0, v, f)
            g.add_edge(v, 0, f)
        removed = g.mask_branches()
        assert removed == 1
        assert g.degree(1) == 0


class TestSerialOlc:
    def test_reconstructs_tiled_genome(self, dataset):
        genome, reads = dataset
        result = assemble_serial_olc(reads, k=15, end_margin=5)
        assert len(result.contigs) == 1
        contig = result.contigs[0]
        ok = np.array_equal(contig, genome) or np.array_equal(
            dna.revcomp(contig), genome
        )
        assert ok
        assert result.wall_seconds > 0
        assert set(result.stage_seconds) == {"overlap", "reduction", "contig"}

    def test_quality_on_sampled_reads(self):
        genome = make_genome(GenomeSpec(length=4000, seed=73))
        rs = sample_reads(genome, depth=14, mean_length=400, rng=3, error_rate=0.0)
        result = assemble_serial_olc(list(rs.reads), k=21, end_margin=5)
        report = evaluate_assembly(result.contigs, genome, k=21)
        assert report.completeness > 0.9
        assert report.misassemblies == 0

