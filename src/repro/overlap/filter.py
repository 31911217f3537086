"""Alignment of candidate pairs and construction of the overlap graph **R**.

Implements Algorithm 1 lines 7-9:

* ``Apply(C, Alignment())`` -- every candidate pair is scored with x-drop
  seed-and-extend;
* ``Prune(C, AlignmentScoreLessThan(t))`` -- low-scoring and *internal*
  (repeat-induced, mid-read) alignments are dropped;
* ``Prune(R, IsContainedRead())`` -- reads fully contained in another read
  are redundant vertices (§2) and their rows/columns are cleared.

Each unordered pair is aligned exactly once: C's strict upper triangle
(row < col) supplies the task list.  :func:`~repro.overlap.detect_overlaps`
forms nothing else; a C that holds both triangles (a checkpoint, stage
cache or injected artifact written when the SpGEMM formed the full
symmetric product) is cut to it by a prune that removes nothing from a
fresh C.  Because the upper triangle concentrates in the above-diagonal
blocks of the 2D grid, the tasks are first **redistributed round-robin**
across ranks (one exclusive-scan allgather + one all-to-all) so alignment
-- the most expensive stage of the pipeline -- stays load-balanced.

Within a rank the tasks are processed in chunks of
``AlignmentParams.batch_size`` through the **batched alignment engine**
(:mod:`repro.align.batch`): one vectorized x-drop extension and one
vectorized classification per chunk instead of a Python loop over pairs,
and a single :data:`~repro.sparse.types.OVERLAP_DTYPE` structured fill per
rank.  The per-rank alignment superstep itself runs through
``world.map_ranks`` so the process executor backend can overlap ranks
on real cores without changing any output.  The classifier emits *both* directed edge payloads per dovetail, and
a final all-to-all routes them to their 2D block owners, rebuilding the
full symmetric R.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..align.batch import (
    KIND_CONTAINED_A,
    KIND_CONTAINED_B,
    KIND_DOVETAIL,
    KIND_INTERNAL,
    iter_classified_chunks,
)
from ..seq.readstore import DistReadStore, PackedReads
from ..sparse.coo import segment_order
from ..sparse.distmat import DistSparseMatrix
from ..sparse.types import OVERLAP_DTYPE
from ..util import cumsum0

__all__ = ["AlignmentParams", "AlignmentStats", "build_overlap_graph"]


@dataclass(frozen=True)
class AlignmentParams:
    """Knobs of the alignment + filtering stage.

    ``xdrop`` matches the paper's ``x`` parameter (15 for the low-error
    datasets, 7 for H. sapiens); ``mode`` selects the gapless or banded
    engine; ``min_score`` is the pruning threshold ``t``; ``min_overlap``
    rejects spurious short overlaps; ``end_margin`` is the dovetail
    endpoint slack; ``batch_size`` bounds how many pairs the batched
    engine extends per kernel call (memory/throughput trade-off -- results
    are independent of it); ``kernel_tier`` picks the inner-loop
    implementation (``numpy`` | ``native``, ``None`` = resolve from the
    environment) -- tiers are bit-identical, so like ``batch_size`` it
    never changes results.
    """

    k: int
    xdrop: int = 15
    mode: str = "diag"
    match: int = 1
    mismatch: int = -1
    min_score: int = 0
    min_overlap: int = 0
    end_margin: int = 10
    batch_size: int = 512
    kernel_tier: str | None = None


@dataclass
class AlignmentStats:
    """Outcome counts of the alignment stage.

    ``contained_ids`` lists the global read ids pruned as redundant
    vertices; downstream consumers (e.g. the scaffolding extension) use it
    to tell absorbed sequences apart from merely unmerged ones.
    """

    pairs_aligned: int = 0
    dovetails: int = 0
    contained: int = 0
    internal: int = 0
    low_score: int = 0
    contained_reads: int = 0
    per_kind: dict = field(default_factory=dict)
    contained_ids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )


def _best_score(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Duplicate edge policy: keep the highest-scoring record (ties: first)."""
    return vals[segment_order(-vals["score"].astype(np.int64), starts)[starts]]


def _redistribute_tasks(
    C_upper: DistSparseMatrix,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Round-robin the (i, j, seed) alignment tasks across ranks.

    The upper triangle of C lives mostly in the above-diagonal grid blocks,
    so aligning in place would idle half the ranks.  A global round-robin by
    task index (exclusive scan over per-rank counts, then one routed
    exchange) restores balance at the cost of shipping the small seed
    payloads.
    """
    world = C_upper.grid.world
    P = world.nprocs
    counts = [blk.nnz for blk in C_upper.blocks]
    offsets = cumsum0(world.comm.allgather(counts))
    dest = [
        (offsets[rank] + np.arange(nnz, dtype=np.int64)) % P
        for rank, nnz in enumerate(counts)
    ]
    world.charge_compute_all(counts)
    gi, gj, seeds = zip(*C_upper.edge_triples_per_rank())
    return list(zip(*world.comm.route(dest).send(gi, gj, seeds)))


def _align_rank_tasks(
    local: PackedReads,
    gi_arr: np.ndarray,
    gj_arr: np.ndarray,
    seeds: np.ndarray,
    params: AlignmentParams,
    stats: AlignmentStats,
    span=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Batch-align one rank's task list.

    Returns ``(src, dst, vals, contained_ids, aligned_bases)``: the
    interleaved forward/reverse dovetail edge triples (one structured fill
    for the whole rank), the sorted unique global ids of contained reads,
    and the total extended bases for the compute-cost model.
    """
    n = int(gi_arr.size)
    if n == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=OVERLAP_DTYPE),
            np.empty(0, dtype=np.int64),
            0,
        )
    a_idx = local.indices_of(gi_arr)
    b_idx = local.indices_of(gj_arr)
    pos_a = seeds["pos_a"].astype(np.int64)
    pos_b = seeds["pos_b"].astype(np.int64)
    same = seeds["same_strand"] != 0

    aligned_bases = 0
    contained_chunks: list[np.ndarray] = []
    u_chunks: list[np.ndarray] = []
    v_chunks: list[np.ndarray] = []
    fwd_chunks: list[tuple] = []
    rev_chunks: list[tuple] = []
    score_chunks: list[np.ndarray] = []

    chunks = iter_classified_chunks(
        local.buffer,
        local.offsets,
        a_idx,
        b_idx,
        pos_a,
        pos_b,
        same,
        params.k,
        params.xdrop,
        mode=params.mode,
        batch_size=params.batch_size,
        match=params.match,
        mismatch=params.mismatch,
        min_score=params.min_score,
        min_overlap=params.min_overlap,
        end_margin=params.end_margin,
        kernel_tier=params.kernel_tier,
        span=span,
    )
    for sl, res, cls, kind in chunks:
        aligned_bases += int(res.a_span.sum() + res.b_span.sum())
        stats.pairs_aligned += int(res.a_span.size)
        stats.low_score += int(np.count_nonzero(kind == -1))
        is_ca = kind == KIND_CONTAINED_A
        is_cb = kind == KIND_CONTAINED_B
        stats.contained += int(np.count_nonzero(is_ca) + np.count_nonzero(is_cb))
        stats.internal += int(np.count_nonzero(kind == KIND_INTERNAL))
        if is_ca.any():
            contained_chunks.append(gi_arr[sl][is_ca])
        if is_cb.any():
            contained_chunks.append(gj_arr[sl][is_cb])
        dove = kind == KIND_DOVETAIL
        ndove = int(np.count_nonzero(dove))
        stats.dovetails += ndove
        if ndove:
            u_chunks.append(gi_arr[sl][dove])
            v_chunks.append(gj_arr[sl][dove])
            for out, half in ((fwd_chunks, cls.forward), (rev_chunks, cls.reverse)):
                out.append(
                    (
                        half.direction[dove],
                        half.suffix[dove],
                        half.pre[dove],
                        half.post[dove],
                    )
                )
            score_chunks.append(cls.score[dove])

    # one interleaved structured fill per rank: fwd at even slots, rev at
    # odd slots, preserving task order (the duplicate-edge reduce is
    # stable, so record order is part of the contract)
    ndove = sum(int(u.size) for u in u_chunks)
    src = np.empty(2 * ndove, dtype=np.int64)
    dst = np.empty(2 * ndove, dtype=np.int64)
    vals = np.zeros(2 * ndove, dtype=OVERLAP_DTYPE)
    if ndove:
        u = np.concatenate(u_chunks)
        v = np.concatenate(v_chunks)
        src[0::2], dst[0::2] = u, v
        src[1::2], dst[1::2] = v, u
        for half, offset in ((fwd_chunks, 0), (rev_chunks, 1)):
            for name, pos in (("dir", 0), ("suffix", 1), ("pre", 2), ("post", 3)):
                vals[name][offset::2] = np.concatenate([c[pos] for c in half])
        scores = np.concatenate(score_chunks)
        vals["score"][0::2] = scores
        vals["score"][1::2] = scores
    contained = (
        np.unique(np.concatenate(contained_chunks))
        if contained_chunks
        else np.empty(0, dtype=np.int64)
    )
    return src, dst, vals, contained, aligned_bases


def build_overlap_graph(
    C: DistSparseMatrix,
    reads: DistReadStore,
    params: AlignmentParams,
) -> tuple[DistSparseMatrix, AlignmentStats]:
    """Align candidates and return the pruned overlap graph R plus stats."""
    grid, world = C.grid, C.grid.world
    stats = AlignmentStats()

    # upper triangle only: each unordered pair aligned exactly once (a
    # fresh C has nothing else; a symmetric one from an older checkpoint
    # does); then rebalance the tasks round-robin across ranks
    upper = C.prune(lambda v, r, c: r >= c)
    tasks = _redistribute_tasks(upper)

    # which reads does each rank need for its tasks?
    fetched = reads.fetch(
        [np.unique(np.concatenate([gi, gj])) for gi, gj, _seeds in tasks]
    )

    # per-rank batched alignment: each rank's tasks go through the batch
    # engine in `params.batch_size` chunks.  The superstep runs through the
    # world's executor backend; each rank fills a private stats object and
    # the per-rank counters merge in rank order below, so outcome counts
    # are backend-independent.
    def _align_step(ctx, task, local_reads):
        gi_arr, gj_arr, seeds = task
        rank_stats = AlignmentStats()
        src, dst, vals, contained, aligned_bases = _align_rank_tasks(
            local_reads, gi_arr, gj_arr, seeds, params, rank_stats,
            span=ctx.span,
        )
        ctx.charge_compute(aligned_bases, kind="alignment")
        return src, dst, vals, contained, rank_stats

    aligned = world.map_ranks(_align_step, tasks, fetched)
    triples = []
    contained_lists: list[np.ndarray] = []
    for src, dst, vals, contained, rank_stats in aligned:
        triples.append((src, dst, vals))
        contained_lists.append(contained)
        stats.pairs_aligned += rank_stats.pairs_aligned
        stats.dovetails += rank_stats.dovetails
        stats.contained += rank_stats.contained
        stats.internal += rank_stats.internal
        stats.low_score += rank_stats.low_score

    R = DistSparseMatrix.from_rank_triples(
        grid,
        (reads.nreads, reads.nreads),
        triples,
        add_reduce=_best_score,
        dtype=OVERLAP_DTYPE,
    )

    # remove contained reads entirely (redundant vertices); per-rank lists
    # are already sorted unique int64 arrays
    stats.contained_reads = int(sum(ids.size for ids in contained_lists))
    stats.contained_ids = (
        np.unique(np.concatenate(contained_lists))
        if stats.contained_reads
        else np.empty(0, dtype=np.int64)
    )
    if stats.contained_reads:
        R = R.clear_rows_and_cols(contained_lists)
    stats.per_kind = {
        "dovetail": stats.dovetails,
        "contained": stats.contained,
        "internal": stats.internal,
        "low_score": stats.low_score,
    }
    return R, stats
