"""Distributed transitive reduction: overlap graph R -> string graph S.

A transitive edge "carries less or the same information as a parallel path"
(§2): ``(i, j)`` is redundant when some two-hop walk ``i -> k -> j`` exists
with compatible bidirected directions whose composed overhang is no longer
than the direct edge's (within ``fuzz``, Myers' tolerance for alignment
jitter).  Matrix formulation, as in diBELLA 2D:

1. ``N = S (x) S`` over the direction-composing min-plus semiring
   (:func:`~repro.sparse.semiring.dirmin_semiring`): per coordinate and per
   direction, the minimum composed suffix over all middle vertices;
2. an aligned elementwise lookup compares each edge of S against
   ``N[i, j].minsuf[dir] <= suffix + fuzz``;
3. marked edges are removed *symmetrically* (an edge and its mirror leave
   together, preserving pattern symmetry);
4. repeat until a fixpoint (or ``max_rounds``).

The result is the string matrix S consumed by contig generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..mpi.memory import MemoryBudget
from ..sparse.distmat import DistSparseMatrix, SpgemmPlan
from ..sparse.semiring import dirmin_semiring
from ..sparse.types import SUFFIX_INF

__all__ = ["TransitiveReductionResult", "transitive_reduction"]


@dataclass
class TransitiveReductionResult:
    """The string matrix plus reduction statistics."""

    S: DistSparseMatrix
    rounds: int
    removed_per_round: list[int]
    #: SpGEMM phase count of every ``N = S (x) S`` round run, including
    #: the final fixpoint-check round (1 = unphased; >1 when a memory
    #: budget made the planner column-block the product)
    phases_per_round: list[int] = field(default_factory=list)

    @property
    def total_removed(self) -> int:
        return sum(self.removed_per_round)


def _removal_marks(
    S: DistSparseMatrix,
    fuzz: int,
    merge_mode: str = "bulk",
    phases: int | None = None,
    budget: MemoryBudget | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray], int, int]:
    """Per-rank global (row, col) lists of edges marked transitive."""
    semiring = dirmin_semiring()
    if phases is None:
        phases = 1
        if budget is not None and not budget.unlimited:
            # re-plan every round: S shrinks, so later rounds may need
            # fewer phases than the first
            phases = SpgemmPlan.choose(S, S, semiring, budget).phases
    N = S.spgemm(
        S, semiring, exclude_diagonal=True, merge_mode=merge_mode, phases=phases
    )
    joins = S.lookup_join(N)
    rows_per_rank: list[np.ndarray] = []
    cols_per_rank: list[np.ndarray] = []
    total = 0
    for rank, (blk, (found, nvals)) in enumerate(zip(S.blocks, joins)):
        if blk.nnz == 0:
            rows_per_rank.append(np.empty(0, dtype=np.int64))
            cols_per_rank.append(np.empty(0, dtype=np.int64))
            continue
        rlo, clo = S.block_offsets(rank)
        dirs = blk.vals["dir"].astype(np.int64)
        composed = np.where(
            found,
            nvals["minsuf"][np.arange(blk.nnz), dirs],
            SUFFIX_INF,
        )
        transitive = composed <= blk.vals["suffix"].astype(np.int64) + fuzz
        rows_per_rank.append(blk.rows[transitive] + rlo)
        cols_per_rank.append(blk.cols[transitive] + clo)
        total += int(transitive.sum())
    return rows_per_rank, cols_per_rank, total, phases


def _remove_step(ctx, blk, join, mblk_bytes):
    """One rank drops its marked string-matrix entries."""
    found, mvals = join
    ctx.charge_compute(blk.nnz)
    # the mark-matrix block and the join mask/values stay live while the
    # round rewrites the string-matrix block
    join_bytes = int(found.nbytes + mvals.nbytes) if blk.nnz else 0
    ctx.observe_memory(blk.nbytes + mblk_bytes + join_bytes)
    return blk.select(~found), int(found.sum())


def transitive_reduction(
    R: DistSparseMatrix,
    fuzz: int = 100,
    max_rounds: int = 8,
    merge_mode: str = "bulk",
    phases: int | None = None,
    budget: MemoryBudget | None = None,
) -> TransitiveReductionResult:
    """Iteratively remove transitive edges from R until a fixpoint.

    ``phases`` / ``budget`` propagate to the per-round ``N = S (x) S``
    SpGEMM: an explicit phase count column-blocks every round, a
    :class:`~repro.mpi.memory.MemoryBudget` lets the symbolic planner pick
    the phase count per round.  Results are bit-identical either way.
    """
    grid, world = R.grid, R.grid.world
    S = R
    removed_history: list[int] = []
    phase_history: list[int] = []
    for _round in range(max_rounds):
        rows_pr, cols_pr, marked, used_phases = _removal_marks(
            S, fuzz, merge_mode, phases=phases, budget=budget
        )
        phase_history.append(used_phases)
        total_marked = world.comm.allreduce(
            [int(r.size) for r in rows_pr], lambda a, b: a + b
        )
        if total_marked == 0:
            break
        # symmetrize: the mark set must contain (j, i) whenever it contains
        # (i, j) so S stays pattern-symmetric
        marks_per_rank = [
            (
                np.concatenate([rows_pr[r], cols_pr[r]]),
                np.concatenate([cols_pr[r], rows_pr[r]]),
                np.ones(2 * rows_pr[r].size, dtype=np.uint8),
            )
            for r in range(grid.nprocs)
        ]
        M = DistSparseMatrix.from_rank_triples(
            grid,
            S.shape,
            marks_per_rank,
            add_reduce=lambda v, s: v[s],
            dtype=np.dtype(np.uint8),
        )
        joins = S.lookup_join(M)
        mark_bytes = [blk.nbytes for blk in M.blocks]
        results = world.map_ranks(_remove_step, S.blocks, joins, mark_bytes)
        new_blocks = [blk for blk, _ in results]
        removed = sum(n for _, n in results)
        S = DistSparseMatrix(grid, S.shape, new_blocks)
        removed_history.append(removed)
        if removed == 0:
            break
    return TransitiveReductionResult(
        S=S,
        rounds=len(removed_history),
        removed_per_round=removed_history,
        phases_per_round=phase_history,
    )
