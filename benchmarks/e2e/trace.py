"""The benchmark's own spans, and the traced drive that produces them.

Tracing here is deliberately outside the program: a span is recorded
around each direct call into a layer's public function (the repo's
packages are the layers), on the same inputs and configuration the timed
ops use.  Spans inside the program are a later change (ROADMAP item 1).

A span is ``(name, start, end, parent)``.  A layer's *self* time is its
span's duration minus the part of that interval its child spans cover,
so the self times of a span tree sum to the root's duration -- the "parts
sum to the total" check ``trace.coverage`` reports against the untraced
``wall_s``.

The per-layer timings of one traced pass are single samples: they
attribute, they do not support a speed-up claim.  Counts repeat exactly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from pathlib import Path

import numpy as np

from repro import MAIN_STAGES, Pipeline, PipelineResult
from repro.align import batch_xdrop_extend, pack_codes
from repro.core import (
    ContigSet,
    branch_removal,
    connected_components,
    contig_generation,
    contig_sizes_distributed,
    exchange_sequences,
    induced_subgraph,
    local_assembly,
    partition_contigs,
)
from repro.kmer import build_kmer_matrix, count_kmers
from repro.mpi import ProcGrid, SimWorld
from repro.overlap import AlignmentParams, build_overlap_graph, detect_overlaps
from repro.seq import DistReadStore
from repro.sparse import (
    DistSparseMatrix,
    seed_semiring,
    spgemm_local,
    spgemm_symbolic,
)
from repro.strgraph import transitive_reduction
from repro.telemetry import get_registry


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder (one thread, strictly nested spans)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[Span] = []
        self._clock = clock
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), parent=parent))
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index].end = self._clock()

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def child_cover(self, index: int) -> float:
        """Length of the part of span ``index`` its children cover (the
        union of their intervals, clipped to the parent)."""
        parent = self.spans[index]
        covered, reach = 0.0, parent.start
        for child in sorted(self.children(index), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, parent.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return covered

    def self_time(self, index: int) -> float:
        return self.spans[index].duration - self.child_cover(index)

    def dump(self) -> list[dict]:
        """JSON-able spans, with start/end relative to the first span."""
        if not self.spans:
            return []
        t0 = self.spans[0].start
        return [
            {
                "id": i,
                "name": s.name,
                "start_s": s.start - t0,
                "end_s": s.end - t0,
                "parent": s.parent,
                "self_s": self.self_time(i),
            }
            for i, s in enumerate(self.spans)
        ]


# ---------------------------------------------------------------------------
# the traced drive: direct calls into each layer, as pipeline/stages.py
# makes them, each under a span
# ---------------------------------------------------------------------------


def _fresh_grid(cfg):

    world = SimWorld(cfg.nprocs, cfg.resolve_machine(), executor=cfg.executor)
    world.memory.set_budget(cfg.memory_budget())
    return ProcGrid(world)


def _contig_kwargs(cfg) -> dict:
    return dict(
        min_contig_reads=cfg.min_contig_reads,
        partition_method=cfg.partition_method,
        emit_cycles=cfg.emit_cycles,
        count_limit=cfg.count_limit,
        polish=cfg.polish,
        assembly_engine=cfg.contig_engine,
        kernel_tier=cfg.kernel_tier,
    )


def drive_upstream(tracer: Tracer, store, cfg, m: dict) -> dict:
    """CountKmer .. TrReduction on ``store``; fills ``m`` with the kmer,
    overlap, sparse-count and strgraph metrics and returns the artifacts
    the probes and the contig stage need."""
    world = store.grid.world
    budget = world.memory.budget
    with world.stage_scope("CountKmer"), tracer.span("kmer.count_kmers") as sp:
        table = count_kmers(
            store, cfg.k, reliable_lo=cfg.reliable_lo, reliable_hi=cfg.reliable_hi
        )
    m["kmer.count_kmers_s"] = sp.duration
    m["kmer.reliable_kmers"] = table.total
    with world.stage_scope("DetectOverlap"):
        with tracer.span("kmer.build_kmer_matrix") as sp:
            A = build_kmer_matrix(store, table)
        m["kmer.build_kmer_matrix_s"] = sp.duration
        m["kmer.A_nnz"] = A.nnz()
        with tracer.span("overlap.detect_overlaps") as sp:
            C, plan = detect_overlaps(
                A,
                min_shared=cfg.min_shared_kmers,
                merge_mode=cfg.merge_mode,
                budget=budget,
            )
        m["overlap.detect_overlaps_s"] = sp.duration
        m["sparse.C_nnz"] = C.nnz()
        m["sparse.spgemm_phases"] = plan.phases if plan is not None else 1
    params = AlignmentParams(
        k=cfg.k,
        xdrop=cfg.xdrop,
        mode=cfg.align_mode,
        min_score=cfg.min_score,
        min_overlap=cfg.min_overlap,
        end_margin=cfg.end_margin,
        batch_size=cfg.align_batch_size,
        kernel_tier=cfg.kernel_tier,
    )
    with world.stage_scope("Alignment"), tracer.span(
        "overlap.build_overlap_graph"
    ) as sp:
        R, stats = build_overlap_graph(C, store, params)
    m["overlap.build_overlap_graph_s"] = sp.duration
    m["overlap.pairs_aligned"] = stats.pairs_aligned
    # useful / attempted: alignments that became string-graph edges
    m["overlap.dovetail_ratio"] = stats.dovetails / max(stats.pairs_aligned, 1)
    m["overlap.contained_reads"] = stats.contained_reads
    m["overlap.R_nnz"] = R.nnz()
    with world.stage_scope("TrReduction"), tracer.span(
        "strgraph.transitive_reduction"
    ) as sp:
        tr = transitive_reduction(
            R,
            fuzz=cfg.tr_fuzz,
            max_rounds=cfg.tr_max_rounds,
            merge_mode=cfg.merge_mode,
            budget=budget,
        )
    m["strgraph.transitive_reduction_s"] = sp.duration
    m["strgraph.tr_rounds"] = tr.rounds
    m["strgraph.tr_removed"] = tr.total_removed
    m["strgraph.S_nnz"] = tr.S.nnz()
    return {"A": A, "C": C, "S": tr.S}


def drive_contig_steps(tracer: Tracer, S, store, cfg, m: dict) -> list:
    """Algorithm 2 step by step (``core.contig_generation`` unrolled)."""

    world = S.grid.world
    with world.stage_scope("ExtractContig"), tracer.span("core.steps"):
        with tracer.span("core.branch_removal") as sp:
            branch = branch_removal(S)
        m["core.branch_removal_s"] = sp.duration
        with tracer.span("core.connected_components") as sp:
            cc = connected_components(branch.L)
        m["core.connected_components_s"] = sp.duration
        with tracer.span("core.contig_sizes") as sp:
            sizes = contig_sizes_distributed(cc.labels)
        m["core.contig_sizes_s"] = sp.duration
        with tracer.span("core.partition_contigs") as sp:
            p, _part = partition_contigs(
                cc.labels,
                sizes,
                min_contig_reads=cfg.min_contig_reads,
                method=cfg.partition_method,
            )
        m["core.partition_contigs_s"] = sp.duration
        with tracer.span("core.induced_subgraph") as sp:
            graphs = induced_subgraph(branch.L, p)
        m["core.induced_subgraph_s"] = sp.duration
        with tracer.span("core.exchange_sequences") as sp:
            exchange = exchange_sequences(store, p, count_limit=cfg.count_limit)
        m["core.exchange_sequences_s"] = sp.duration

        def assemble(ctx, graph, shard):
            return local_assembly(
                graph,
                shard,
                emit_cycles=cfg.emit_cycles,
                engine=cfg.contig_engine,
                kernel_tier=cfg.kernel_tier,
            )

        with tracer.span("core.local_assembly") as sp:
            per_rank = world.map_ranks(assemble, graphs, exchange.shards)
        m["core.local_assembly_s"] = sp.duration
    return [c for res in per_rank for c in res.contigs]


def mpi_metrics(world, supersteps: float, superstep_wall_s: float) -> dict:
    clock = world.clock
    return {
        "mpi.supersteps": int(supersteps),
        "mpi.superstep_wall_s": superstep_wall_s,
        "mpi.comm_ops": len(world.log),
        "mpi.comm_bytes": world.log.total_bytes(),
        "mpi.modeled_comm_s": sum(
            clock.stage_comm_seconds(s) for s in clock.stages()
        ),
        "mpi.modeled_compute_s": sum(
            clock.stage_compute_seconds(s) for s in clock.stages()
        ),
        # PipelineResult.modeled_total: the main stages' makespans
        "mpi.modeled_s": sum(
            clock.stage_seconds(s)
            for s in clock.stages()
            if s.split("/")[0] in MAIN_STAGES
        ),
        "mpi.modeled_peak_mb": world.memory.peak_overall() / 1e6,
    }


# ---------------------------------------------------------------------------
# kernel probes: inner public kernels on operands captured from the drive
# ---------------------------------------------------------------------------

ALIGN_PROBE_PAIRS = 512
NOOP_SUPERSTEPS = 200


def probe_sparse(tracer: Tracer, A, m: dict) -> None:
    """``A.transpose()`` and the heaviest SUMMA stage-0 local multiply."""

    grid = A.grid
    with tracer.span("sparse.transpose") as sp:
        At = A.transpose()
    m["sparse.transpose_s"] = sp.duration
    pairs = [
        (A.blocks[grid.rank_of(i, 0)], At.blocks[grid.rank_of(0, j)])
        for i in range(grid.q)
        for j in range(grid.q)
    ]
    a, b = max(pairs, key=lambda ab: int(spgemm_symbolic(*ab)[0].sum()))
    with tracer.span("sparse.spgemm_local") as sp:
        product, flops = spgemm_local(a, b, seed_semiring())
    m["sparse.local_products"] = flops
    m["sparse.local_nnz_out"] = product.nnz
    # nnz_out / products: the share of expanded products that survive the merge
    m["sparse.local_compression"] = product.nnz / max(flops, 1)
    m["sparse.local_spgemm_s"] = sp.duration
    m["sparse.local_mproducts_per_s"] = flops / 1e6 / sp.duration


def probe_align(tracer: Tracer, C, reads, cfg, m: dict) -> None:
    """``batch_xdrop_extend`` on the first upper-triangle candidates of C."""

    rows, cols, seeds = C.to_global_coo()
    upper = np.flatnonzero(rows < cols)[:ALIGN_PROBE_PAIRS]
    buffer, offsets = pack_codes(reads)
    with tracer.span("align.batch_xdrop_extend") as sp:
        batch_xdrop_extend(
            buffer,
            offsets,
            rows[upper],
            cols[upper],
            seeds["pos_a"][upper].astype(np.int64),
            seeds["pos_b"][upper].astype(np.int64),
            seeds["same_strand"][upper] != 0,
            cfg.k,
            cfg.xdrop,
            mode=cfg.align_mode,
            kernel_tier=cfg.kernel_tier,
        )
    m["align.probe_pairs"] = int(upper.size)
    m["align.probe_s"] = sp.duration
    m["align.pairs_per_s"] = upper.size / sp.duration


def probe_noop_superstep(tracer: Tracer, cfg, m: dict) -> None:
    """Executor overhead: a no-op step through ``SimWorld.map_ranks``."""
    world = _fresh_grid(cfg).world

    def noop(ctx):
        return None

    with tracer.span("mpi.map_ranks_noop") as sp:
        for _ in range(NOOP_SUPERSTEPS):
            world.map_ranks(noop)
    m["mpi.map_ranks_noop_us"] = sp.duration / NOOP_SUPERSTEPS * 1e6


def probe_checkpoint(tracer: Tracer, reads, cfg, directory, m: dict) -> None:
    """One cold ``Pipeline.run(checkpoint_dir=...)`` and one warm rerun."""


    with tracer.span("pipeline.checkpoint_cold") as sp:
        Pipeline.default().run(reads, cfg, checkpoint_dir=str(directory))
    m["pipeline.checkpoint_cold_s"] = sp.duration
    m["pipeline.checkpoint_bytes"] = sum(
        f.stat().st_size for f in Path(directory).iterdir() if f.is_file()
    )
    with tracer.span("pipeline.checkpoint_warm") as sp:
        warm = Pipeline.default().run(reads, cfg, checkpoint_dir=str(directory))
    assert not warm.stages_run, warm.stages_run
    m["pipeline.checkpoint_warm_s"] = sp.duration


# ---------------------------------------------------------------------------
# one workload's traced pass
# ---------------------------------------------------------------------------


def traced_pass(workload, prepared, scratch_dir, untraced_op) -> dict:
    """Drive every layer once under spans; returns ``{"metrics", "spans",
    "digest", "op_span_s", "untraced_op_s"}``.

    ``op_span_s`` is the duration of the span that mirrors one timed op.
    ``untraced_op()`` runs one such op without tracing and returns its
    wall; it is called right before and right after the drive, because the
    host's speed drifts over minutes and only neighbours compare.
    """
    tracer = Tracer()
    cfg = workload.op_config(0)
    m: dict = {}
    registry = get_registry()
    superstep_wall = registry.histogram("mpi.superstep_wall_seconds")

    if not workload.full_pipeline:
        # the set-up's half of the work, on its own world: explains setup_s
        with tracer.span("setup.upstream"):
            setup_store = DistReadStore.from_global(_fresh_grid(cfg), prepared.reads)
            arts = drive_upstream(tracer, setup_store, cfg, m)

    op_before_s = untraced_op()
    steps0, wall0 = registry.value("mpi.supersteps"), superstep_wall.sum
    with tracer.span("drive") as drive:
        grid = _fresh_grid(cfg)
        world = grid.world
        with tracer.span("seq.from_global") as sp:
            store = DistReadStore.from_global(grid, prepared.reads)
        m["seq.from_global_s"] = sp.duration
        if workload.full_pipeline:
            arts = drive_upstream(tracer, store, cfg, m)
            S = arts["S"]
        else:
            S = DistSparseMatrix(grid, arts["S"].shape, arts["S"].blocks)
        with world.stage_scope("ExtractContig"), tracer.span(
            "core.contig_generation"
        ) as sp:
            contigs = contig_generation(S, store, **_contig_kwargs(cfg))
        m["core.contig_generation_s"] = sp.duration
    m.update(
        mpi_metrics(
            world,
            registry.value("mpi.supersteps") - steps0,
            superstep_wall.sum - wall0,
        )
    )
    op_after_s = untraced_op()
    m["seq.reads"] = store.nreads
    m["seq.bases"] = store.total_bases()
    m["core.cc_rounds"] = contigs.cc_rounds
    m["core.branch_vertices"] = contigs.branch.branch_count
    m["core.partition_imbalance"] = contigs.partition.imbalance
    m["core.contigs"] = contigs.count
    digest = PipelineResult(contigs=contigs).contig_digest()

    if not workload.full_pipeline:
        stepped = drive_contig_steps(tracer, S, store, cfg, m)
        stepped_digest = PipelineResult(
            contigs=ContigSet(contigs=stepped)
        ).contig_digest()
        assert stepped_digest == digest, "unrolled Algorithm 2 diverged"

    codes = [c.codes for c in contigs.contigs]
    with tracer.span("quality.evaluate") as sp:
        truth = prepared.check(codes)
    m["quality.evaluate_s"] = sp.duration
    m["quality.ng50_bp"] = truth.ng50_bp
    m["quality.misassemblies"] = truth.misassemblies

    with tracer.span("probes"):
        probe_sparse(tracer, arts["A"], m)
        probe_align(tracer, arts["C"], prepared.reads, cfg, m)
        probe_noop_superstep(tracer, cfg, m)
        if workload.full_pipeline and workload.checkpoint_probe:
            probe_checkpoint(tracer, prepared.reads, cfg, scratch_dir, m)
    return {
        "metrics": m,
        "spans": tracer.dump(),
        "digest": digest,
        "op_span_s": drive.duration,
        "untraced_op_s": (op_before_s + op_after_s) / 2,
    }
