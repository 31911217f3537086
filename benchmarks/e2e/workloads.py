"""The four workloads, their generated inputs and their truth checkers.

Each workload is a closed loop with one client: the next op starts when
the previous one returns.  Inputs are a pure function of the seed; the
program only ever receives the generated reads (never the genome).
Config fields not listed keep ``PipelineConfig`` defaults.

Sizes are set by the run-time cap of the benchmark contract (about half a
minute per run including three set-ups), not by the paper's data sets:
every full-pipeline op is ~2 s on the 2-core sizing machine, so a
15-second run still takes a median over six or more ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import Pipeline, PipelineConfig
from repro.pipeline import CollectingObserver
from repro.quality import evaluate_assembly
from repro.seq import GenomeSpec, make_genome, sample_reads, tile_reads
from repro.seq.dna import revcomp

#: an assembly below this, or with any misassembly, fails its op
MIN_GENOME_FRACTION = 0.85


# ---------------------------------------------------------------------------
# truth checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Truth:
    """What the contigs are worth against ground truth."""

    genome_fraction: float
    ng50_bp: int
    misassemblies: int

    @property
    def ok(self) -> bool:
        return (
            self.misassemblies == 0
            and self.genome_fraction >= MIN_GENOME_FRACTION
        )


def check_against_genome(contigs: list, genome: np.ndarray, k: int) -> Truth:
    """The ``evaluate_assembly`` gate for simulated genomes."""
    report = evaluate_assembly(contigs, genome, k)
    return Truth(report.completeness, report.ng50, report.misassemblies)


def canonical(codes: np.ndarray) -> bytes:
    """A sequence and its reverse complement map to the same key."""
    codes = np.asarray(codes, dtype=np.uint8)
    return min(codes.tobytes(), revcomp(codes).tobytes())


def check_against_fragments(contigs: list, fragments: list) -> Truth:
    """Exact set comparison for an error-free tiling of many fragments.

    ``genome_fraction`` is the share of fragments some contig reproduces
    exactly (up to reverse complement); a contig equal to no fragment is
    a misassembly.
    """
    want = {canonical(f) for f in fragments}
    got = [canonical(c) for c in contigs]
    extra = sum(1 for key in got if key not in want)
    half = sum(len(f) for f in fragments) / 2
    ng50, acc = 0, 0
    for length in sorted((len(key) for key in got), reverse=True):
        acc += length
        if acc >= half:
            ng50 = length
            break
    return Truth(len(want & set(got)) / len(want), ng50, extra)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    """One seed's inputs, as the child process holds them."""

    reads: list[np.ndarray]
    check: object  # contigs -> Truth
    #: injected into every op (``contig_sweep_p16``: the set-up's S)
    from_artifacts: dict | None = None
    #: wall seconds of the set-up's own pipeline stages, by stage
    setup_stage_s: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SimulatedGenome:
    """Full ``Pipeline.run`` on reads sampled from one random genome."""

    name: str
    why: str
    genome: dict
    sampling: dict
    config: dict
    ops_per_round: int = 1
    #: the traced pass also times a cold and a warm checkpointed run
    checkpoint_probe: bool = False
    full_pipeline = True

    def prepare(self, seed: int) -> Prepared:
        genome = make_genome(GenomeSpec(seed=seed, **self.genome))
        reads = sample_reads(genome, rng=seed + 1, **self.sampling).reads
        k = self.config["k"]
        return Prepared(reads, lambda c: check_against_genome(c, genome, k))

    def op_config(self, i: int) -> PipelineConfig:
        return PipelineConfig(**self.config)


@dataclass(frozen=True)
class ContigSweep:
    """``ExtractContig`` alone, swept over its partition knob against a
    string graph computed once in set-up."""

    name: str
    why: str
    fragments: int
    fragment_length: int
    read_length: int
    stride: int
    config: dict
    ops_per_round: int = 10
    full_pipeline = False
    METHODS = ("lpt", "greedy", "round_robin")

    def prepare(self, seed: int) -> Prepared:
        fragments = [
            make_genome(
                GenomeSpec(length=self.fragment_length, seed=seed * 100_000 + i)
            )
            for i in range(self.fragments)
        ]
        tiled = [
            read
            for f in fragments
            for read in tile_reads(
                f, self.read_length, self.stride, "alternate"
            ).reads
        ]
        order = np.random.default_rng(seed).permutation(len(tiled))
        reads = [tiled[i] for i in order]
        stages = CollectingObserver()
        upstream = Pipeline.default().run(
            reads, self.op_config(0), until="TrReduction", observers=[stages]
        )
        return Prepared(
            reads,
            lambda c: check_against_fragments(c, fragments),
            from_artifacts={"S": upstream.artifacts["S"]},
            setup_stage_s={
                name: t.wall_seconds for name, t in stages.timings.items()
            },
        )

    def op_config(self, i: int) -> PipelineConfig:
        return PipelineConfig(
            partition_method=self.METHODS[i % len(self.METHODS)], **self.config
        )


_LOWERR_SAMPLING = dict(
    depth=20, mean_length=600, error_rate=0.005, error_mix=(1, 0, 0)
)
_LOWERR_CONFIG = dict(nprocs=16, k=21, xdrop=15, end_margin=25, reliable_lo=2)

WORKLOADS = {
    w.name: w
    for w in (
        SimulatedGenome(
            name="lowerr_diag_p16",
            why="paper's low-error regime: SUMMA A.A^T (overlap.detect_overlaps) "
            "is ~85% of wall, so a local-SpGEMM change must show here",
            genome=dict(
                length=16_000, n_repeats=2, repeat_length=300, repeat_copies=2
            ),
            sampling=_LOWERR_SAMPLING,
            config=_LOWERR_CONFIG,
            checkpoint_probe=True,
        ),
        SimulatedGenome(
            name="hierr_dp_p4",
            why="paper's high-error settings (k=17, x=7, banded DP): alignment "
            "is ~90% of wall, so a SpGEMM change must not move it",
            genome=dict(length=6_000),
            sampling=dict(
                depth=12, mean_length=500, error_rate=0.04,
                error_mix=(0.4, 0.3, 0.3),
            ),
            config=dict(
                nprocs=4, k=17, xdrop=7, align_mode="dp", end_margin=40,
                tr_fuzz=150, reliable_lo=2,
            ),
        ),
        SimulatedGenome(
            name="lowerr_budget_p16",
            why="memory-budgeted SpGEMM: the planner column-blocks A.A^T into "
            "32 phases of tiny multiplies, so supersteps and collectives dominate",
            genome=dict(length=6_000),
            sampling=_LOWERR_SAMPLING,
            config=dict(memory_budget_mb=0.2, **_LOWERR_CONFIG),
        ),
        ContigSweep(
            name="contig_sweep_p16",
            why="the paper's Algorithm 2 alone: ExtractContig swept over the "
            "partition knob on a fixed string graph; upstream lands in setup_s",
            fragments=200,
            fragment_length=3000,
            read_length=300,
            stride=150,
            config=dict(nprocs=16, k=21),
        ),
    )
}
