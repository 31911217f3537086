"""Integration tests: the whole pipeline under realistic conditions.

These are the tests that pin down the paper-level behaviour: exact genome
reconstruction from clean tilings (both strand patterns, all grid sizes),
high completeness on error-bearing sampled reads, branch masking on
repeat-bearing genomes, and agreement between distributed ELBA and the
serial OLC oracle (``tests/oracle``).
"""

import numpy as np
import pytest

from oracle import assemble_serial_olc
from repro import Pipeline, PipelineConfig
from repro.quality import evaluate_assembly
from repro.seq import GenomeSpec, dna, make_genome, sample_reads, tile_reads


def is_exact(contig_codes, genome):
    text = dna.decode(genome)
    s = dna.decode(contig_codes)
    return s in text or dna.revcomp_str(s) in text


class TestExactReconstruction:
    @pytest.mark.parametrize("pattern", ["forward", "alternate"])
    @pytest.mark.parametrize("nprocs", [1, 4, 9])
    def test_tiling_reassembles_exactly(self, pattern, nprocs):
        genome = make_genome(GenomeSpec(length=2800, seed=81))
        rs = tile_reads(genome, 380, 150, pattern)
        res = Pipeline.default().run(
            rs, PipelineConfig(nprocs=nprocs, k=21, reliable_lo=1, end_margin=5)
        )
        assert res.contigs.count == 1
        contig = res.contigs.contigs[0]
        assert contig.length == genome.size
        assert is_exact(contig.codes, genome)

    def test_awkward_sizes(self):
        """Read/grid counts that do not divide evenly."""
        genome = make_genome(GenomeSpec(length=3107, seed=82))
        rs = tile_reads(genome, 389, 151)
        res = Pipeline.default().run(
            rs, PipelineConfig(nprocs=16, k=21, reliable_lo=1, end_margin=5)
        )
        assert res.contigs.count == 1
        assert res.contigs.contigs[0].length == genome.size


class TestSampledReads:
    def test_error_free_sampling_high_completeness(self):
        genome = make_genome(GenomeSpec(length=5000, seed=83))
        rs = sample_reads(genome, depth=15, mean_length=450, rng=84, error_rate=0.0)
        res = Pipeline.default().run(
            rs, PipelineConfig(nprocs=4, k=21, reliable_lo=2, end_margin=5)
        )
        report = evaluate_assembly(res.contigs.contigs, genome, k=21)
        assert report.completeness > 0.9
        assert report.misassemblies == 0

    def test_low_error_reads_assemble(self):
        """The paper's 0.5% HiFi-like regime (O. sativa / C. elegans)."""
        genome = make_genome(GenomeSpec(length=5000, seed=85))
        rs = sample_reads(
            genome, depth=20, mean_length=450, rng=86,
            error_rate=0.005, error_mix=(1.0, 0.0, 0.0),
        )
        res = Pipeline.default().run(
            rs,
            PipelineConfig(
                nprocs=4, k=17, reliable_lo=2, xdrop=15, end_margin=25
            ),
        )
        report = evaluate_assembly(res.contigs.contigs, genome, k=17)
        assert report.completeness > 0.7
        assert res.contigs.count < rs.count / 4

    def test_indel_errors_with_dp_alignment(self):
        genome = make_genome(GenomeSpec(length=2500, seed=87))
        rs = sample_reads(
            genome, depth=15, mean_length=350, rng=88,
            error_rate=0.01, error_mix=(0.4, 0.3, 0.3),
        )
        res = Pipeline.default().run(
            rs,
            PipelineConfig(
                nprocs=4, k=17, reliable_lo=2, align_mode="dp",
                xdrop=20, end_margin=30,
            ),
        )
        report = evaluate_assembly(res.contigs.contigs, genome, k=17)
        assert report.completeness > 0.5


class TestRepeats:
    def test_repeats_create_branches_and_are_masked(self):
        genome = make_genome(
            GenomeSpec(
                length=6000, n_repeats=2, repeat_length=400,
                repeat_copies=3, seed=89,
            )
        )
        rs = sample_reads(genome, depth=15, mean_length=500, rng=90, error_rate=0.0)
        res = Pipeline.default().run(
            rs, PipelineConfig(nprocs=4, k=21, reliable_lo=2, end_margin=5)
        )
        # repeats should be detected as branches (or swallowed by reliable-
        # kmer filtering); assembly must stay non-chimeric either way
        report = evaluate_assembly(res.contigs.contigs, genome, k=21)
        assert report.misassemblies <= 1


def _canonical(sequences):
    """A contig set up to order and strand."""
    return sorted(min(s, dna.revcomp_str(s)) for s in sequences)


def _oracle_case(name):
    """A read set and the pipeline knobs the serial oracle shares."""
    genome = make_genome(GenomeSpec(length=3000, seed=91))
    clean = dict(reliable_lo=1, end_margin=5)
    if name == "tiled":
        return tile_reads(genome, 350, 140), clean
    if name == "strand-alternating":
        return tile_reads(genome, 350, 140, "alternate"), clean
    if name == "sampled":
        return sample_reads(genome, 12, 350, rng=5, error_rate=0.0), clean
    if name == "sampled-0.5%-substitutions":
        reads = sample_reads(
            genome, 14, 350, rng=6, error_rate=0.005, error_mix=(1.0, 0.0, 0.0)
        )
        return reads, dict(reliable_lo=2, end_margin=25)
    assert name == "two-copy-300bp-repeat"
    repeat = make_genome(
        GenomeSpec(
            length=4000, n_repeats=1, repeat_length=300, repeat_copies=2, seed=94
        )
    )
    return sample_reads(repeat, 12, 400, rng=7, error_rate=0.0), clean


class TestAgainstBaseline:
    """The distributed contig set equals the serial OLC oracle's at every
    grid size -- which bit-identity across backends at one P does not imply."""

    def _assert_equals_oracle(self, case):
        rs, knobs = _oracle_case(case)
        oracle = assemble_serial_olc(
            list(rs.reads), k=21, end_margin=knobs["end_margin"]
        )
        want = _canonical(dna.decode(c) for c in oracle.contigs)
        assert want, "the oracle assembled nothing: the case tests nothing"
        for nprocs in (1, 4, 9, 16):
            res = Pipeline.default().run(
                rs, PipelineConfig(nprocs=nprocs, k=21, **knobs)
            )
            got = _canonical(c.sequence() for c in res.contigs.contigs)
            assert got == want, f"P={nprocs}"
        return want

    def test_elba_matches_serial_olc_output(self):
        """Same paradigm, same substrate: the distributed pipeline and the
        serial oracle must produce equivalent assemblies on clean data."""
        assert len(self._assert_equals_oracle("tiled")) == 1

    @pytest.mark.parametrize(
        "case",
        ["strand-alternating", "sampled", "sampled-0.5%-substitutions"],
    )
    def test_contig_set_equals_oracle_at_every_p(self, case):
        self._assert_equals_oracle(case)

    def test_repeat_breaks_oracle_and_elba_alike(self):
        """Branch masking at the planted repeat fragments both assemblies
        into the same pieces."""
        assert len(self._assert_equals_oracle("two-copy-300bp-repeat")) > 1


class TestScalingBehaviour:
    def test_modeled_time_decreases_then_flattens(self):
        """Strong-scaling sanity: P=4 must beat P=1 on modeled time."""
        genome = make_genome(GenomeSpec(length=4000, seed=92))
        rs = tile_reads(genome, 400, 160)
        from repro.mpi import cori_haswell

        machine = cori_haswell().scaled(10_000)
        times = {}
        for p in (1, 4, 16):
            res = Pipeline.default().run(
                rs,
                PipelineConfig(
                    nprocs=p, machine=machine, k=21, reliable_lo=1, end_margin=5
                ),
            )
            times[p] = res.modeled_total
        assert times[4] < times[1]

    def test_same_contigs_at_the_largest_p(self):
        """P = 256 on the c_elegans bench preset (1070 reads): the first run
        in which most ranks own fewer than five reads."""
        from repro.bench import build_bench_dataset

        ds = build_bench_dataset("c_elegans")
        digests = {
            p: Pipeline.default().run(ds.readset, ds.config(p, "cori-haswell")).contig_digest()
            for p in (16, 256)
        }
        assert digests[256] == digests[16]

    def test_induced_subgraph_dominates_contig_phase(self):
        """§6.1: the induced subgraph function takes the bulk of contig
        generation; local assembly is a small fraction."""
        genome = make_genome(GenomeSpec(length=4000, seed=93))
        rs = tile_reads(genome, 400, 160)
        from repro.mpi import cori_haswell

        res = Pipeline.default().run(
            rs,
            PipelineConfig(
                nprocs=16, machine=cori_haswell().scaled(10_000),
                k=21, reliable_lo=1, end_margin=5,
            ),
        )
        sub = res.contig_substage_breakdown()
        total = sum(sub.values())
        comm_stages = sub["InducedSubgraph"] + sub["ReadExchange"]
        assert comm_stages / total > 0.4
        assert sub["LocalAssembly"] / total < 0.3
