"""The five pipeline stages (Algorithm 1).

Each class wraps one phase of the paper's Fig. 1 as a :class:`Stage`;
``PAPER_STAGES`` lists them in that order, and every :class:`Pipeline`
runs exactly these:

1. ``CountKmer``      distributed k-mer counting (reliable filter)
2. ``DetectOverlap``  C = A . A^T (SUMMA SpGEMM, seed semiring; the
                      strict upper triangle: one entry per unordered
                      candidate pair, so ``counts["C_nnz"]`` counts pairs)
3. ``Alignment``      x-drop on every candidate, prune, containment removal
4. ``TrReduction``    bidirected transitive reduction -> S
5. ``ExtractContig``  Algorithm 2 (this paper's contribution)

Each stage publishes and checkpoints exactly what it computes: the k-mer
matrix A is DetectOverlap's local, and transitive reduction's rounds and
removals go to ``counts``.  The §7 scaffolding and polishing in
:mod:`repro.scaffold` are no stages: they post-process a result's contigs,
each scaffold round being one run of these five.

Artifact keys: ``reads`` (DistReadStore, provided by the engine),
``kmer_table``, ``C``, ``R``, ``align_stats``, ``S``, ``contigs``.
"""

from __future__ import annotations

from ..core.contig import contig_generation
from ..kmer.counter import count_kmers
from ..kmer.kmermatrix import build_kmer_matrix
from ..overlap.detect import detect_overlaps
from ..overlap.filter import AlignmentParams, build_overlap_graph
from ..strgraph.transitive import transitive_reduction
from .engine import RunContext, Stage

__all__ = [
    "PAPER_STAGES",
    "CountKmerStage",
    "DetectOverlapStage",
    "AlignmentStage",
    "TrReductionStage",
    "ExtractContigStage",
]


class CountKmerStage(Stage):
    name = "CountKmer"
    requires = ("reads",)
    produces = ("kmer_table",)
    config_fields = ("k", "reliable_lo", "reliable_hi")

    def run(self, ctx: RunContext) -> None:
        config = ctx.config
        table = count_kmers(
            ctx.require("reads"),
            config.k,
            reliable_lo=config.reliable_lo,
            reliable_hi=config.reliable_hi,
        )
        ctx.counts["reliable_kmers"] = table.total
        ctx.publish("kmer_table", table)


class DetectOverlapStage(Stage):
    name = "DetectOverlap"
    requires = ("reads", "kmer_table")
    produces = ("C",)
    config_fields = ("k", "reliable_lo", "reliable_hi", "min_shared_kmers")

    def run(self, ctx: RunContext) -> None:
        config = ctx.config
        A = build_kmer_matrix(ctx.require("reads"), ctx.require("kmer_table"))
        ctx.counts["A_nnz"] = A.nnz()
        C, plan = detect_overlaps(
            A,
            min_shared=config.min_shared_kmers,
            merge_mode=config.merge_mode,
            budget=ctx.world.memory.budget,
        )
        if plan is not None:
            ctx.counts["overlap_spgemm_phases"] = plan.phases
        ctx.counts["C_nnz"] = C.nnz()  # unordered candidate pairs
        ctx.publish("C", C)


class AlignmentStage(Stage):
    name = "Alignment"
    requires = ("reads", "C")
    produces = ("R", "align_stats")
    config_fields = (
        "k",
        "xdrop",
        "align_mode",
        "min_score",
        "min_overlap",
        "end_margin",
    )

    def run(self, ctx: RunContext) -> None:
        config = ctx.config
        params = AlignmentParams(
            k=config.k,
            xdrop=config.xdrop,
            mode=config.align_mode,
            min_score=config.min_score,
            min_overlap=config.min_overlap,
            end_margin=config.end_margin,
        )
        R, align_stats = build_overlap_graph(
            ctx.require("C"), ctx.require("reads"), params
        )
        ctx.counts["R_nnz"] = R.nnz()
        ctx.publish("R", R)
        ctx.publish("align_stats", align_stats)


class TrReductionStage(Stage):
    name = "TrReduction"
    requires = ("R",)
    produces = ("S",)
    config_fields = ("tr_fuzz", "tr_max_rounds")

    def run(self, ctx: RunContext) -> None:
        config = ctx.config
        tr = transitive_reduction(
            ctx.require("R"),
            fuzz=config.tr_fuzz,
            max_rounds=config.tr_max_rounds,
            merge_mode=config.merge_mode,
            budget=ctx.world.memory.budget,
        )
        if tr.phases_per_round and max(tr.phases_per_round) > 1:
            ctx.counts["tr_spgemm_phases"] = max(tr.phases_per_round)
        ctx.counts["S_nnz"] = tr.S.nnz()
        ctx.counts["tr_rounds"] = tr.rounds
        ctx.counts["tr_removed"] = tr.total_removed
        ctx.publish("S", tr.S)


class ExtractContigStage(Stage):
    name = "ExtractContig"
    requires = ("reads", "S")
    produces = ("contigs",)
    config_fields = ("min_contig_reads", "partition_method", "emit_cycles")

    def run(self, ctx: RunContext) -> None:
        config = ctx.config
        contigs = contig_generation(
            ctx.require("S"),
            ctx.require("reads"),
            min_contig_reads=config.min_contig_reads,
            partition_method=config.partition_method,
            emit_cycles=config.emit_cycles,
        )
        ctx.counts["contigs"] = contigs.count
        ctx.counts["contig_roots"] = contigs.n_roots
        ctx.counts["contig_cycles"] = contigs.n_cycles
        ctx.publish("contigs", contigs)


PAPER_STAGES = (
    CountKmerStage,
    DetectOverlapStage,
    AlignmentStage,
    TrReductionStage,
    ExtractContigStage,
)
