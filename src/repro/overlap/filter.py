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

The alignment superstep is one **segment step**
(:meth:`~repro.mpi.comm.SimWorld.map_segments`): one call over every rank
concatenates the ranks' tasks and runs them through the
**batched alignment engine** (:mod:`repro.align.batch`) in chunks of
``AlignmentParams.batch_size`` pairs, over one complemented pool of the
ranks' fetched reads.  A chunk is one vectorized x-drop extension and one
vectorized classification instead of a Python loop over pairs, and one
wide banded wavefront instead of one per rank.  The outcome is split back
per rank in task order -- edges, contained ids, counts and the aligned
bases each rank is charged for -- so every output and charge is what a
per-rank step would give.  The classifier emits *both*
directed edge payloads per dovetail, and a final all-to-all routes them to
their 2D block owners, rebuilding the full symmetric R.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, field
from typing import Iterator

import numpy as np

from ..align.batch import (
    KIND_CONTAINED_A,
    KIND_CONTAINED_B,
    KIND_DOVETAIL,
    KIND_INTERNAL,
    iter_classified_chunks,
)
from ..kernels import resolve_kernel_tier
from ..seq.readstore import DistReadStore, PackedReads
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
    engine extends per kernel call, counted across the ranks of one
    alignment segment (memory/throughput trade-off -- results are
    independent of it).  ``kernel_tier`` is checked, not stored: only
    ``None`` or ``"numpy"`` is accepted
    (:func:`~repro.kernels.resolve_kernel_tier`).
    """

    k: int
    xdrop: int = 15
    mode: str = "diag"
    min_score: int = 0
    min_overlap: int = 0
    end_margin: int = 10
    batch_size: int = 2048
    kernel_tier: InitVar[str | None] = None

    def __post_init__(self, kernel_tier: str | None) -> None:
        resolve_kernel_tier(kernel_tier)


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


class _KernelClock:
    """The ``span`` factory a segment hands the batch engine: it keeps the
    name and wall time of the last kernel call."""

    def __init__(self) -> None:
        self.name = ""
        self.wall = 0.0

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.name, self.wall = name, time.perf_counter() - t0


def _segment_reads(
    fetched: list[PackedReads], gi: np.ndarray, gj: np.ndarray
) -> tuple[PackedReads, np.ndarray, np.ndarray]:
    """One packed buffer holding each of the segment's fetched reads once
    (its first copy in rank order), and the buffer indices of ``gi`` and
    ``gj``."""
    ids = np.concatenate([f.ids for f in fetched])
    unique, first = np.unique(ids, return_index=True)
    kept = np.zeros(ids.size, dtype=bool)
    kept[first] = True
    starts = cumsum0([f.count for f in fetched])
    pieces = [
        f.select(np.flatnonzero(kept[lo:hi]))
        for f, lo, hi in zip(fetched, starts[:-1], starts[1:])
    ]
    reads = PackedReads(
        np.concatenate([p.buffer for p in pieces]),
        cumsum0(np.concatenate([p.lengths() for p in pieces])),
        np.concatenate([p.ids for p in pieces]),
    )
    # buffer index of each sorted unique id
    index = (np.cumsum(kept) - 1)[first]
    return reads, index[np.searchsorted(unique, gi)], index[np.searchsorted(unique, gj)]


def _align_segment(
    ctxs: list,
    tasks: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    fetched: list[PackedReads],
    params: AlignmentParams,
) -> list[tuple]:
    """The Alignment superstep: one segment step over every rank.

    The ranks' tasks are concatenated in rank order and run through the
    batch engine in ``params.batch_size`` chunks over one complemented
    pool of the segment's reads.  The outcome is split back per rank, in
    task order: ``(src, dst, vals, contained, stats)``, where ``src`` /
    ``dst`` / ``vals`` interleave each dovetail's forward and reverse edge
    (the duplicate-edge reduce is stable, so record order is part of the
    contract) and ``contained`` holds the sorted unique global ids of the
    rank's contained reads.  Each rank is charged for the bases it
    aligned and, if it had pairs, gets one kernel span with its share of
    the kernel wall time.
    """
    nranks = len(ctxs)
    sizes = np.array([gi.size for gi, _gj, _seeds in tasks], dtype=np.int64)
    bounds = cumsum0(sizes)
    gi = np.concatenate([t[0] for t in tasks])
    gj = np.concatenate([t[1] for t in tasks])
    seeds = np.concatenate([t[2] for t in tasks])
    n = int(gi.size)
    reads, a_idx, b_idx = _segment_reads(fetched, gi, gj)

    kind = np.empty(n, dtype=np.int8)
    bases = np.empty(n, dtype=np.int64)
    fwd_chunks: list[tuple] = []
    rev_chunks: list[tuple] = []
    score_chunks: list[np.ndarray] = []
    clock = _KernelClock()
    kernel_wall = np.zeros(nranks)
    chunks = iter_classified_chunks(
        reads.buffer,
        reads.offsets,
        a_idx,
        b_idx,
        seeds["pos_a"].astype(np.int64),
        seeds["pos_b"].astype(np.int64),
        seeds["same_strand"] != 0,
        params.k,
        params.xdrop,
        mode=params.mode,
        batch_size=params.batch_size,
        min_score=params.min_score,
        min_overlap=params.min_overlap,
        end_margin=params.end_margin,
        span=clock,
    )
    for sl, res, cls, chunk_kind in chunks:
        kind[sl] = chunk_kind
        bases[sl] = res.a_span + res.b_span
        # the chunk's kernel wall, shared by its pairs
        pairs = np.diff(np.clip(bounds, sl.start, sl.stop))
        kernel_wall += clock.wall * pairs / (sl.stop - sl.start)
        dove = chunk_kind == KIND_DOVETAIL
        for out, half in ((fwd_chunks, cls.forward), (rev_chunks, cls.reverse)):
            out.append(
                (half.direction[dove], half.suffix[dove], half.pre[dove], half.post[dove])
            )
        score_chunks.append(cls.score[dove])

    # one interleaved structured fill for the segment: fwd at even slots,
    # rev at odd slots, in task order
    dove = kind == KIND_DOVETAIL
    ndove = int(np.count_nonzero(dove))
    src = np.empty(2 * ndove, dtype=np.int64)
    dst = np.empty(2 * ndove, dtype=np.int64)
    vals = np.zeros(2 * ndove, dtype=OVERLAP_DTYPE)
    if ndove:
        src[0::2], dst[0::2] = gi[dove], gj[dove]
        src[1::2], dst[1::2] = gj[dove], gi[dove]
        for half, offset in ((fwd_chunks, 0), (rev_chunks, 1)):
            for name, pos in (("dir", 0), ("suffix", 1), ("pre", 2), ("post", 3)):
                vals[name][offset::2] = np.concatenate([c[pos] for c in half])
        scores = np.concatenate(score_chunks)
        vals["score"][0::2] = scores
        vals["score"][1::2] = scores

    # per rank: outcome counts (columns: low score, then KIND_* 0..3),
    # aligned bases, and contained ids as one fused (rank, id) key
    rank = np.repeat(np.arange(nranks), sizes)
    tally = np.bincount(rank * 5 + kind + 1, minlength=5 * nranks).reshape(nranks, 5)
    aligned = cumsum0(bases)[bounds]
    edges = 2 * cumsum0(tally[:, 1 + KIND_DOVETAIL])
    is_ca, is_cb = kind == KIND_CONTAINED_A, kind == KIND_CONTAINED_B
    nids = int(max(gi.max(initial=-1), gj.max(initial=-1))) + 1
    key = np.unique(
        np.concatenate([rank[is_ca] * nids + gi[is_ca], rank[is_cb] * nids + gj[is_cb]])
    )
    cuts = np.searchsorted(key, np.arange(nranks + 1) * nids)
    contained = key - np.repeat(np.arange(nranks) * nids, np.diff(cuts))

    out = []
    for r, ctx in enumerate(ctxs):
        low, dovetails, ca, cb, internal = (int(c) for c in tally[r])
        stats = AlignmentStats(
            pairs_aligned=int(sizes[r]),
            dovetails=dovetails,
            contained=ca + cb,
            internal=internal,
            low_score=low,
        )
        if sizes[r]:
            ctx.record_span(clock.name, float(kernel_wall[r]))
        ctx.charge_compute(int(aligned[r + 1] - aligned[r]), kind="alignment")
        e = slice(edges[r], edges[r + 1])
        out.append((src[e], dst[e], vals[e], contained[cuts[r] : cuts[r + 1]], stats))
    return out


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

    # one segment step: it aligns every rank's tasks together and splits
    # the outcome back per rank, whose counters merge in rank order below
    aligned = world.map_segments(
        functools.partial(_align_segment, params=params), tasks, fetched
    )
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

    # each aligned pair of C's upper triangle yields its two directed edges
    # once, so no coordinate repeats: the add only asks for row-sorted blocks
    R = DistSparseMatrix.from_rank_triples(
        grid,
        (reads.nreads, reads.nreads),
        triples,
        add_reduce=lambda v, s: v[s],
        dtype=OVERLAP_DTYPE,
    )

    # remove contained reads entirely (redundant vertices); per-rank lists
    # are already sorted unique int64 arrays, and a read contained in
    # pairs on several ranks counts once
    stats.contained_ids = np.unique(np.concatenate(contained_lists))
    stats.contained_reads = int(stats.contained_ids.size)
    if stats.contained_reads:
        R = R.clear_rows_and_cols(contained_lists)
    stats.per_kind = {
        "dovetail": stats.dovetails,
        "contained": stats.contained,
        "internal": stats.internal,
        "low_score": stats.low_score,
    }
    return R, stats
