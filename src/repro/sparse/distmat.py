"""2D block-distributed sparse matrices (the CombBLAS workhorse).

A global ``n x m`` matrix is split into ``sqrt(P) x sqrt(P)`` blocks: grid
row ``i`` owns global rows ``block_range(n, q, i)`` and grid column ``j``
owns global columns ``block_range(m, q, j)``; rank ``(i, j)`` stores the
intersection as a :class:`~repro.sparse.coo.LocalCoo` in local
coordinates.  The layout itself lives in :class:`~repro.mpi.grid.ProcGrid`
(``block_bounds``, ``owner_of_entry``, ``vec_bounds``); this module only
reads it.

Implemented CombBLAS-style operations (each with the same communication
pattern the real library uses, charged to the cost model):

* :meth:`DistSparseMatrix.from_rank_triples` -- matrix assembly: one
  :meth:`SimComm.route <repro.mpi.comm.SimComm.route>` plan sends every
  locally produced triple to its block owner;
* :meth:`DistSparseMatrix.spgemm` -- SUMMA: sqrt(P) stages of row/column
  broadcasts followed by local semiring multiplies.  The stages and any
  column phases exist in the cost model only: each rank forms its whole
  product in one step, joining its A row panel (the grid row's blocks
  side by side, with column pointers built once) against its B column
  panel (the grid column's blocks stacked) in runs of whole output
  columns; with ``strict_upper`` (``A . A^T``, whose pairs are unordered)
  only the strict upper triangle is formed: ranks below the grid
  diagonal multiply nothing and diagonal ranks join a prefix of each A
  column;
* :meth:`DistSparseMatrix.transpose` -- pairwise exchange with the grid-
  transposed partner;
* :meth:`DistSparseMatrix.prune` -- embarrassingly local;
* :meth:`DistSparseMatrix.row_reduce` -- local reduction + row-communicator
  allreduce + a routed redistribution to the P-way vector layout;
* :meth:`DistSparseMatrix.clear_rows_and_cols` -- the branch-masking
  primitive (allgather the small branch-index lists, prune locally);
* :meth:`DistSparseMatrix.lookup_join` -- aligned elementwise lookup between
  two matrices on the same grid (transitive-reduction's compare step).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from ..errors import DistributionError
from ..mpi.comm import block_sizes
from ..mpi.grid import ProcGrid
from ..mpi.memory import MemoryBudget
from ..telemetry.metrics import get_registry
from ..util import cumsum0, sorted_lookup
from .coo import LocalCoo, fused_key, stable_order
from .semiring import Semiring
from . import spgemm as _kernel
from .spgemm import (
    column_key,
    column_pointers,
    join_extents,
    spgemm_run,
)
from .distvec import DistVector

__all__ = ["DistSparseMatrix", "SpgemmPlan"]

#: bytes of the two int64 coordinate arrays per COO entry
_COO_INDEX_BYTES = 16


def _entry_nbytes(dtype) -> int:
    """Modeled bytes of one COO triple of payload dtype ``dtype``."""
    return _COO_INDEX_BYTES + int(np.dtype(dtype).itemsize)


@dataclass(frozen=True)
class SpgemmPlan:
    """A memory-budgeted execution plan for one distributed SpGEMM.

    The planner runs the *symbolic* SpGEMM -- one :func:`join_extents`
    pass per multiplying rank over the panels the multiplication joins,
    bounded stage by stage as :func:`spgemm_symbolic` bounds one stage's
    blocks -- to bound every output column's flops and nonzeros without
    forming a value, then picks the smallest phase count ``b`` (every
    phase of a candidate estimated at once) whose estimated peak per-rank
    working set

    ``max over phases of (A panel + B phase sub-panel + phase partial
    upper bound + finished output so far)``

    fits the :class:`~repro.mpi.memory.MemoryBudget`.  ``b = 1``
    reproduces the unphased SUMMA bit-identically, so an unlimited budget
    always plans one phase.  Estimates are upper bounds: a plan that fits
    guarantees the multiply's *modeled* working set fits too.  A
    ``strict_upper`` plan counts only the products that multiplication
    forms: none below the grid diagonal (those ranks still receive the
    panels), a column prefix on it.
    """

    phases: int
    fits: bool
    #: estimated modeled peak per-rank bytes at the chosen phase count
    est_peak_bytes: float
    budget_limit_bytes: float | None
    #: candidate phase count -> estimated modeled peak per-rank bytes
    est_by_phases: dict[int, float] = field(default_factory=dict)

    @classmethod
    def choose(
        cls,
        a: "DistSparseMatrix",
        b: "DistSparseMatrix",
        semiring: Semiring,
        budget: MemoryBudget | None,
        max_phases: int = 64,
        *,
        strict_upper: bool = False,
    ) -> "SpgemmPlan":
        """Plan ``a . b`` against ``budget`` (symbolic pass + agreement).

        Charges the symbolic pass's modeled compute (structure-only, one
        walk over both operands' nonzeros per stage, on every rank that
        multiplies) and one small allreduce for the plan agreement every
        rank must reach.
        """
        grid, world = a.grid, a.grid.world
        if b.grid is not grid:
            raise DistributionError("operands must share a process grid")
        if a.shape[1] != b.shape[0]:
            raise DistributionError(
                f"inner dimensions disagree: {a.shape} x {b.shape}"
            )
        _check_triangle((a.shape[0], b.shape[1]), strict_upper)
        limit = None if budget is None else budget.limit_bytes
        if limit is None:
            return cls(
                phases=1, fits=True, est_peak_bytes=0.0,
                budget_limit_bytes=None, est_by_phases={1: 0.0},
            )
        q = grid.q
        out_entry = _entry_nbytes(semiring.out_dtype)
        b_entry = _entry_nbytes(b.dtype)
        scale = world.machine.volume_scale

        # per-rank symbolic column profiles, stage by stage, from one join
        # over each multiplying rank's panels, built once per grid row and
        # column as the multiplication builds them (a prefix join needs A
        # sorted by column; a whole-column count only its pointers)
        a_blocks = a.blocks
        if strict_upper:
            a_blocks = [blk.sorted_by("col") for blk in a.blocks]
        a_rows = _row_panels(grid, a_blocks, a.shape)
        a_panel = [
            max(a.blocks[grid.rank_of(i, s)].nbytes for s in range(q))
            for i in range(q)
        ]
        b_cols = []
        for panel, stage_lo in _column_panels(grid, b.blocks, b.shape, a_blocks, a_rows):
            width = panel.shape[1]
            cum_counts = np.zeros((q, width + 1), dtype=np.int64)
            np.cumsum(
                _stage_bincount(panel.cols, stage_lo, width),
                axis=1, out=cum_counts[:, 1:],
            )
            b_cols.append((panel, stage_lo, cum_counts))
        # ranks grouped by block width, so each candidate's estimate is a
        # few array ops per group
        groups: dict[int, list] = {}
        sym_ops = []
        for rank, (rlo, rhi, clo, chi) in enumerate(
            grid.block_bounds((a.shape[0], b.shape[1]))
        ):
            i, j = grid.coords_of(rank)
            (a_coo, a_ptr), (b_coo, stage_lo, cum_counts) = a_rows[i], b_cols[j]
            nrows, width = rhi - rlo, chi - clo
            below = strict_upper and i > j  # multiplies nothing
            partial_ub = np.zeros(width, dtype=np.int64)
            if not below:
                on = strict_upper and i == j  # joins column prefixes
                a_key = column_key(a_coo) if on else None
                count = join_extents(a_coo, b_coo, a_ptr, a_key)[1]
                flops = _stage_bincount(b_coo.cols, stage_lo, width, count)
                # each stage's bound, as the per-stage symbolic pass gives it
                bound = np.minimum(np.arange(width), nrows) if on else nrows
                partial_ub = np.minimum(flops.astype(np.int64), bound).sum(axis=0)
            out_ub = np.minimum(partial_ub, nrows)
            groups.setdefault(width, []).append(
                (a_panel[i], cumsum0(partial_ub), cumsum0(out_ub), cum_counts)
            )
            sym_ops.append(0 if below else a_coo.nnz + b_coo.nnz)
        world.charge_compute_all(sym_ops)
        stacked = {
            width: tuple(np.array(x) for x in zip(*ranks))
            for width, ranks in groups.items()
        }

        def estimate(phase_count: int) -> float:
            worst = 0.0
            for width, (a_bytes, cum_partial, cum_out, cum_counts) in stacked.items():
                bounds = cumsum0(block_sizes(width, phase_count))
                lo, hi = bounds[:-1], bounds[1:]
                panel = (cum_counts[:, :, hi] - cum_counts[:, :, lo]).max(axis=1)
                # the same operations, in the same order, as one phase at a
                # time: (A panel + B sub-panel) + partial bound, + finished
                transient = (a_bytes[:, None] + panel * b_entry) + (
                    cum_partial[:, hi] - cum_partial[:, lo]
                ).astype(np.float64) * out_entry
                finished = cum_out[:, lo].astype(np.float64) * out_entry
                # the fully assembled output is observed once at the end
                assembled = cum_out[:, -1].astype(np.float64) * out_entry
                peak = np.maximum(assembled, (transient + finished).max(axis=1))
                worst = max(worst, float(peak.max()))
            return worst * scale

        max_width = max(stacked)
        candidates = [1]
        while candidates[-1] * 2 <= min(max_phases, max(max_width, 1)):
            candidates.append(candidates[-1] * 2)

        est_by_phases = {}
        chosen, chosen_est, fits = candidates[-1], None, False
        for cand in candidates:
            est = estimate(cand)
            est_by_phases[cand] = est
            if est <= limit:
                chosen, chosen_est, fits = cand, est, True
                break
        if chosen_est is None:
            chosen_est = est_by_phases[chosen]
        # every rank must agree on the phase count before the first
        # broadcast; model the agreement as one tiny allreduce
        world.comm.allreduce([float(chosen_est)] * grid.nprocs, max)
        return cls(
            phases=chosen,
            fits=fits,
            est_peak_bytes=chosen_est,
            budget_limit_bytes=limit,
            est_by_phases=est_by_phases,
        )


def _check_triangle(shape: tuple[int, int], strict_upper: bool) -> None:
    """A strict-upper product must be square: then its row and column
    blocks share bounds, and every grid block lies wholly above, on or
    below the diagonal."""
    if strict_upper and shape[0] != shape[1]:
        raise DistributionError(
            f"strict_upper needs a square product, got shape {shape}"
        )


def _block_shapes(grid: ProcGrid, shape: tuple[int, int]) -> list[tuple[int, int]]:
    """Local block shape of every rank, in rank order."""
    return [
        (rhi - rlo, chi - clo) for rlo, rhi, clo, chi in grid.block_bounds(shape)
    ]


def _row_panels(
    grid: ProcGrid, blocks: list[LocalCoo], shape: tuple[int, int]
) -> list[tuple[LocalCoo, np.ndarray]]:
    """Each grid row's A row panel, built once: its q ``blocks`` side by
    side (columns shifted to the global contraction index, so column-sorted
    blocks make a column-sorted panel), and the panel's column pointers."""
    q = grid.q
    col_lo = cumsum0(block_sizes(shape[1], q))
    panels = []
    for i in range(q):
        row = [blocks[grid.rank_of(i, s)] for s in range(q)]
        cols = np.concatenate([blk.cols for blk in row])
        ends = cumsum0([blk.nnz for blk in row])
        for lo, e0, e1 in zip(col_lo, ends[:-1], ends[1:]):
            cols[e0:e1] += lo
        panel = LocalCoo(
            (row[0].shape[0], shape[1]),
            np.concatenate([blk.rows for blk in row]),
            cols,
            np.concatenate([blk.vals for blk in row]),
            order="col" if all(blk.order == "col" for blk in row) else None,
        )
        panels.append((panel, column_pointers(panel)))
    return panels


def _column_panels(
    grid: ProcGrid,
    blocks: list[LocalCoo],
    shape: tuple[int, int],
    a_blocks: list[LocalCoo] | None = None,
    row_panels: list | None = None,
) -> list[tuple[LocalCoo, np.ndarray]]:
    """Each grid column's B column panel, built once: its q ``blocks``
    stacked in stage order (rows shifted to the global contraction index,
    so row-sorted blocks make a row-sorted panel), and where each SUMMA
    stage's entries (the block they came from) start, ``q + 1`` cuts.

    When ``blocks`` are the transposes of the ``a_blocks`` that
    ``row_panels`` were built from (``A . A^T``), grid column ``j``'s panel
    is row panel ``j`` transposed: a view, not a second copy."""
    q = grid.q
    if row_panels is not None and all(
        b.rows is a.cols and b.cols is a.rows and b.vals is a.vals
        for b, a in (
            (blocks[grid.rank_of(s, j)], a_blocks[grid.rank_of(j, s)])
            for j in range(q)
            for s in range(q)
        )
    ):
        return [
            (
                panel.transpose(),
                cumsum0([a_blocks[grid.rank_of(j, s)].nnz for s in range(q)]),
            )
            for j, (panel, *_pointers) in enumerate(row_panels)
        ]
    row_lo = cumsum0(block_sizes(shape[0], q))
    panels = []
    for j in range(q):
        col = [blocks[grid.rank_of(s, j)] for s in range(q)]
        panel = LocalCoo(
            (shape[0], col[0].shape[1]),
            np.concatenate([blk.rows + lo for blk, lo in zip(col, row_lo)]),
            np.concatenate([blk.cols for blk in col]),
            np.concatenate([blk.vals for blk in col]),
            order="row" if all(blk.order == "row" for blk in col) else None,
        )
        panels.append((panel, cumsum0([blk.nnz for blk in col])))
    return panels


def _stage_bincount(cols, stage_lo, width, weights=None) -> np.ndarray:
    """``np.bincount`` of each SUMMA stage's entries' ``cols`` (stage ``s``
    holds entries ``stage_lo[s]:stage_lo[s + 1]``), weighted by
    ``weights``: a ``(stages, width)`` array."""
    return np.stack([
        np.bincount(
            cols[lo:hi],
            weights=None if weights is None else weights[lo:hi],
            minlength=width,
        )
        for lo, hi in zip(stage_lo[:-1], stage_lo[1:])
    ])


def _stable_groups(group: np.ndarray, ngroups: int) -> tuple[np.ndarray, np.ndarray]:
    """A stable order of entries by ``group`` (in ``[0, ngroups)``; a
    radix sort for small counts) and where each group starts (``ngroups +
    1`` cuts)."""
    small = np.uint8 if ngroups <= 2**8 else np.uint16 if ngroups <= 2**16 else None
    key = group.astype(small, copy=False) if small is not None else group
    return (
        np.argsort(key, kind="stable"),
        cumsum0(np.bincount(group, minlength=ngroups)),
    )


# SpGEMM rank steps: module level, and each rank's state comes in through
# arguments and goes back out through the return value (ranks share
# nothing).  Charge/observe order is part of the bit-identity contract.


def _panel_product(a_op, b_op, shape, phases, offset, job):
    """One rank's whole product: its A row panel joined against its
    row-sorted B column panel in runs of whole output columns of at most
    ``bound`` products each (a column forming more is a run of its own).

    Returns the output block (row-sorted, diagonal-masked), the counts the
    stage-by-stage schedule charges -- per (phase, stage) the products
    formed, the partial's nonzeros and (streamed) the accumulator's
    distinct keys so far; per phase the merged and kept nonzeros -- and the
    number of joins."""
    semiring, _entry, stream, exclude_diagonal, bound, q = job
    (a, a_ptr, a_key), (b, stage_lo, phase_lo) = a_op, b_op
    ncols = shape[1]
    first, count = join_extents(a, b, a_ptr, a_key)
    del a_op, a_key  # a diagonal rank's key serves this join only
    # products by (output column, stage), summed over columns: a product's
    # stage is its B entry's, its phase its column's
    by_col = np.zeros((ncols + 1, q), dtype=np.int64)
    formed = _stage_bincount(b.cols, stage_lo, ncols, count)
    np.cumsum(formed.T.astype(np.int64), axis=0, out=by_col[1:])
    flops = np.diff(by_col[phase_lo], axis=0)
    ends = by_col.sum(axis=1)  # products before each output column
    cuts, lo = [0], 0
    while lo < ncols:  # greedy runs of whole columns
        fit = int(np.searchsorted(ends, ends[lo] + bound, "right")) - 1
        lo = min(ncols, max(lo + 1, fit))
        cuts.append(lo)
    if len(cuts) > 2:  # each run's entries, still row-sorted
        runs = len(cuts) - 1
        run = np.arange(runs, dtype=np.min_scalar_type(runs))
        entries, starts = _stable_groups(np.repeat(run, np.diff(cuts))[b.cols], runs)
        first, count = first[entries], count[entries]
    else:
        entries, starts = np.arange(b.nnz), [0, b.nnz]
    # a run's entries ascend, so each stage's are those between its cuts
    pieces = [
        spgemm_run(
            a, b, semiring, entries[e0:e1], first[e0:e1], count[e0:e1],
            np.diff(np.searchsorted(entries[e0:e1], stage_lo)),
        )
        for e0, e1 in zip(starts[:-1], starts[1:])
    ]
    # the runs' cells are disjoint: side by side, they are the block's
    rows, cols, vals = (
        np.concatenate(part) for part in zip(*(triples for triples, _ in pieces))
    )
    seen = np.concatenate([seen for _triples, seen in pieces], axis=1)
    phase = np.searchsorted(phase_lo, cols, "right") - 1
    cell_stage, cell = np.nonzero(seen)
    part = np.bincount(
        phase[cell] * q + cell_stage, minlength=phases * q
    ).reshape(phases, q)
    held = np.zeros_like(part)
    if stream:  # a cell joins the accumulator at its first stage
        held = np.bincount(
            phase * q + seen.argmax(axis=0), minlength=phases * q
        ).reshape(phases, q).cumsum(axis=1)
    merged = kept = np.bincount(phase, minlength=phases)
    if len(pieces) > 1:  # runs are row-sorted column ranges
        perm = stable_order(fused_key(rows, cols, ncols), shape[0] * ncols)
        rows, cols, vals = rows[perm], cols[perm], vals[perm]
    if exclude_diagonal and rows.size:
        keep = rows + offset[0] != cols + offset[1]
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        kept = np.bincount(
            np.searchsorted(phase_lo, cols, "right") - 1, minlength=phases
        )
    block = LocalCoo(shape, rows, cols, vals, order="row")
    return block, (flops, part, held, merged, kept), len(pieces)


def _rank_charges(received, counts, entry, stream):
    """One rank's ``(compute, memory, merge)`` charge of every superstep of
    a product, as a ``(3, supersteps)`` array: each phase's q stages and
    finalize, then -- phased -- the assembly.

    A stage charges its products (at least 1), then observes finished
    phases, received panels and the phase's partials -- bulk: every
    stage's so far; streamed: the accumulator and this partial, which a
    stage that formed any (and stage 0) merges, charging the new size (a
    merge of ``-1`` charges nothing).  A finalize charges its merge (bulk)
    and diagonal mask (:func:`_step_times` times), and observes its
    output; the assembly charges and observes the whole output."""
    flops, part, held, merged, kept = counts
    phases, q = received.shape
    finished = cumsum0(kept * entry)  # bytes finished before each phase
    if stream:  # the accumulator held before each stage
        before = np.pad(held[:, :-1], ((0, 0), (1, 0)))
    else:
        before = np.cumsum(part, axis=1) - part
    charges = np.full((3, phases, q + 1), -1, dtype=np.int64)
    charges[0, :, :q] = np.maximum(flops, 1)
    charges[1, :, :q] = finished[:-1, None] + received + (before + part) * entry
    if stream:
        merges = (part > 0) | (np.arange(q) == 0)
        charges[2, :, :q] = np.where(merges, held, -1)
    charges[0, :, q] = merged
    charges[1, :, q] = finished[1:]
    charges = charges.reshape(3, -1)
    if phases > 1:  # one phase assembles nothing
        total = finished[-1]
        charges = np.hstack([charges, [[total // entry], [total], [-1]]])
    return charges


def _step_times(phases, q, stream, exclude_diagonal):
    """How many times each superstep charges its compute: once, but a
    finalize once for a bulk merge and once for the diagonal mask (each
    charging the merged size)."""
    times = np.ones((phases, q + 1), dtype=np.int64)
    times[:, q] = (not stream) + exclude_diagonal
    return times.ravel().tolist() + [1] * (phases > 1)


def _charge_step(ctxs, charges):
    """Charge each rank of a segment one superstep's ``(compute, memory,
    merge, times)`` -- all that a SUMMA superstep after the join does: its
    compute ``times`` times, its working set, then any merge (``-1``:
    none)."""
    for ctx, (op, held, merge, times) in zip(ctxs, charges):
        for _ in range(times):
            ctx.charge_compute(op)
        ctx.observe_memory(held)
        if merge >= 0:
            ctx.charge_compute(merge)
    return [None] * len(ctxs)


def _spgemm_step(ctx, a_op, b_op, received, role, offset, job):
    """The product's first superstep on one rank: form its whole product
    (nothing ``below`` the grid diagonal, column prefixes ``on`` it),
    derive every superstep's charges and charge phase 0's stage 0.
    Returns the output block, the charges and the number of joins."""
    semiring, entry, stream, exclude_diagonal, _bound, q = job
    phases = received.shape[0]
    shape = (a_op[0].shape[0], b_op[0].shape[1])
    if role == "below":
        zeros = np.zeros((phases, q), dtype=np.int64)
        counts = (zeros, zeros, zeros, zeros[:, 0], zeros[:, 0])
        block, joins = LocalCoo.empty(shape, semiring.out_dtype), 0
    else:  # a diagonal rank's prefix join reads the panel's (col, row) key,
        # which no frame here keeps: the product lets it go after the join
        block, counts, joins = _panel_product(
            (*a_op, column_key(a_op[0]) if role == "on" else None),
            b_op, shape, phases, offset, job,
        )
    charges = _rank_charges(received, counts, entry, stream)
    _charge_step([ctx], [(*charges[:, 0].tolist(), 1)])
    return block, charges, joins


class DistSparseMatrix:
    """A sparse matrix distributed in 2D blocks over a :class:`ProcGrid`."""

    __slots__ = ("grid", "shape", "blocks")

    def __init__(
        self, grid: ProcGrid, shape: tuple[int, int], blocks: list[LocalCoo]
    ) -> None:
        if len(blocks) != grid.nprocs:
            raise DistributionError(
                f"expected {grid.nprocs} blocks, got {len(blocks)}"
            )
        for rank, (blk, want) in enumerate(zip(blocks, _block_shapes(grid, shape))):
            if blk.shape != want:
                raise DistributionError(
                    f"rank {rank} block shape {blk.shape} != expected {want}"
                )
        self.grid = grid
        self.shape = (int(shape[0]), int(shape[1]))
        self.blocks = blocks

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(
        cls, grid: ProcGrid, shape: tuple[int, int], dtype: np.dtype
    ) -> "DistSparseMatrix":
        blocks = [LocalCoo.empty(bs, dtype) for bs in _block_shapes(grid, shape)]
        return cls(grid, shape, blocks)

    @classmethod
    def from_global_coo(
        cls,
        grid: ProcGrid,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ) -> "DistSparseMatrix":
        """Distribute global triples (root-side / test convenience)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals)
        owner = grid.owner_of_entry(shape, rows, cols)
        blocks = []
        for rank, (rlo, rhi, clo, chi) in enumerate(grid.block_bounds(shape)):
            mask = owner == rank
            blocks.append(
                LocalCoo(
                    (rhi - rlo, chi - clo),
                    rows[mask] - rlo,
                    cols[mask] - clo,
                    vals[mask],
                )
            )
        return cls(grid, shape, blocks)

    @classmethod
    def from_rank_triples(
        cls,
        grid: ProcGrid,
        shape: tuple[int, int],
        per_rank: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
        add_reduce: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        dtype: np.dtype | None = None,
        order: str = "row",
    ) -> "DistSparseMatrix":
        """Build from per-rank *global* triples, routing each to its owner.

        The distributed analogue of matrix assembly: every rank contributes
        triples it produced locally (e.g. k-mer occurrences from its reads),
        one routed exchange sends them to the 2D block owners, and
        duplicates are combined with ``add_reduce`` (kept as-is when
        ``None``), leaving each block sorted by ``order`` (``"row"`` or
        ``"col"``).  ``dtype`` is the payload dtype (default: as given).
        The triples are let go once routed, so a caller that hands over its
        only references (A's builder) never holds them beside the blocks.
        """
        world = grid.world
        rows = [np.asarray(gr, dtype=np.int64) for gr, _gc, _gv in per_rank]
        cols = [np.asarray(gc, dtype=np.int64) for _gr, gc, _gv in per_rank]
        vals = [np.asarray(gv, dtype=dtype) for _gr, _gc, gv in per_rank]
        del per_rank
        plan = world.comm.route(
            grid.owner_of_entry(shape, gr, gc) for gr, gc in zip(rows, cols)
        )
        world.charge_compute_all([gr.size for gr in rows])
        received = list(zip(*plan.send(rows, cols, vals)))
        # the senders' triples (unless the caller keeps them) and the plan
        # go here; each rank's received arrays go once its block is built
        del plan, rows, cols, vals
        blocks = []
        for rank, (rlo, rhi, clo, chi) in enumerate(grid.block_bounds(shape)):
            gr, gc, gv = received[rank]
            received[rank] = None
            gr -= rlo  # received arrays are fresh: shift them in place
            gc -= clo
            blk = LocalCoo((rhi - rlo, chi - clo), gr, gc, gv)
            if add_reduce is not None:
                blk = blk.deduped(add_reduce, order)
            blocks.append(blk)
        world.charge_compute_all([blk.nnz for blk in blocks])
        return cls(grid, shape, blocks)

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        return self.blocks[0].dtype

    def nnz(self) -> int:
        return sum(b.nnz for b in self.blocks)

    def block_offsets(self, rank: int) -> tuple[int, int]:
        """Global (row, col) offset of a rank's block."""
        rlo, _rhi, clo, _chi = self.grid.block_bounds(self.shape)[rank]
        return rlo, clo

    def edge_triples_per_rank(
        self,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Each rank's ``(rows, cols, vals)`` in *global* coordinates, in
        rank order -- lazily, so a loop holds one block's coordinates."""
        for blk, (rlo, _rhi, clo, _chi) in zip(
            self.blocks, self.grid.block_bounds(self.shape)
        ):
            yield blk.rows + rlo, blk.cols + clo, blk.vals

    def to_global_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather all triples in global coordinates (test convenience)."""
        r, c, v = map(np.concatenate, zip(*self.edge_triples_per_rank()))
        coo = LocalCoo(self.shape, r, c, v).sorted_by("row")
        return coo.rows, coo.cols, coo.vals

    # ------------------------------------------------------------------
    # local (no-communication) operations
    # ------------------------------------------------------------------
    def prune(self, pred: Callable[..., np.ndarray]) -> "DistSparseMatrix":
        """CombBLAS ``Prune``: drop entries where ``pred`` is True.

        ``pred(vals, global_rows, global_cols) -> bool mask``.
        """
        world = self.grid.world
        out = []
        for blk, (rows, cols, vals) in zip(self.blocks, self.edge_triples_per_rank()):
            if blk.nnz:
                mask = np.asarray(pred(vals, rows, cols), dtype=bool)
                out.append(blk.select(~mask))
            else:
                out.append(blk)
        world.charge_compute_all([blk.nnz for blk in self.blocks])
        return DistSparseMatrix(self.grid, self.shape, out)

    def lookup_join(
        self, other: "DistSparseMatrix"
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """For each of this matrix's entries, find the matching entry of
        ``other`` at the same global coordinate.

        Both matrices share the grid and shape, so blocks align and the join
        is purely local.  Returns, per rank, ``(found_mask, other_vals)``
        where ``other_vals`` is aligned with this matrix's block entries
        (undefined where ``found_mask`` is False).  Used by transitive
        reduction to compare R against the two-hop minima.
        """
        if other.shape != self.shape or other.grid is not self.grid:
            raise DistributionError("lookup_join requires aligned matrices")
        world = self.grid.world
        results = []
        for blk, oblk in zip(self.blocks, other.blocks):
            m = blk.shape[1]
            keys = blk.rows * m + blk.cols
            osorted = oblk.sorted_by("row")
            okeys = osorted.rows * m + osorted.cols
            found, pos = sorted_lookup(okeys, keys)
            vals = (
                osorted.vals[pos]
                if okeys.size
                else np.zeros(keys.size, dtype=other.dtype)
            )
            results.append((found, vals))
        world.charge_compute_all(
            [blk.nnz + oblk.nnz for blk, oblk in zip(self.blocks, other.blocks)]
        )
        return results

    # ------------------------------------------------------------------
    # communication-bearing operations
    # ------------------------------------------------------------------
    def transpose(self) -> "DistSparseMatrix":
        """Global transpose: exchange blocks with the grid-transposed partner
        and swap local coordinates.  Payloads are carried unchanged."""
        grid, world = self.grid, self.grid.world
        partners = grid.transpose_partners()
        # sendrecv wants payloads indexed by *sender*: rank r sends its own
        # block to its partner, so the payload list is simply our blocks.
        received = world.comm.sendrecv(list(self.blocks), partners)
        new_blocks = [blk.transpose() for blk in received]
        return DistSparseMatrix(
            grid, (self.shape[1], self.shape[0]), new_blocks
        )

    def plan_spgemm(
        self,
        other: "DistSparseMatrix",
        semiring: Semiring,
        budget: MemoryBudget | None,
        max_phases: int = 64,
        *,
        strict_upper: bool = False,
    ) -> SpgemmPlan:
        """Symbolic planning pass for :meth:`spgemm` (see :class:`SpgemmPlan`)."""
        return SpgemmPlan.choose(
            self, other, semiring, budget, max_phases, strict_upper=strict_upper
        )

    def spgemm(
        self,
        other: "DistSparseMatrix",
        semiring: Semiring,
        exclude_diagonal: bool = False,
        merge_mode: str = "bulk",
        phases: int | None = None,
        budget: MemoryBudget | None = None,
        plan: SpgemmPlan | None = None,
        *,
        strict_upper: bool = False,
    ) -> "DistSparseMatrix":
        """Column-blocked SUMMA SpGEMM: ``C = self . other`` over ``semiring``.

        The output columns are split into ``phases`` column blocks
        (CombBLAS-style multi-phase SpGEMM); each phase runs sqrt(P) SUMMA
        stages -- the owners of A's block-column ``s`` broadcast along
        their grid rows, the owners of B's block-row ``s`` broadcast *only
        the phase's column sub-panel* along their grid columns, every rank
        multiplies and accumulates -- then finalizes its output columns.
        ``phases=1`` (the default) is the classic unphased SUMMA; a
        :class:`~repro.mpi.memory.MemoryBudget` (and no ``phases``) lets
        the symbolic planner pick the fewest phases that fit.

        Phases and ``merge_mode`` (the paper's §7 memory-reduction future
        work) shape the *modeled* working set (panels + a phase's partials
        + finished output) and charges: ``"bulk"`` (default) keeps every
        stage's partial and merges once per phase, ``"stream"`` folds each
        into an accumulator, a smaller peak for sqrt(P)-1 extra merges a
        phase.  ``exclude_diagonal`` folds the diagonal mask into the phase
        merge, so pruned entries never count toward modeled memory.

        The host forms each product once, whatever the phases and mode:
        the first superstep joins each rank's A row panel (the grid row's
        blocks side by side, sorted by column, with column pointers built
        once per grid row) against its B column panel (the grid column's
        blocks stacked, sorted by row) in runs of whole output columns of
        at most ``spgemm._PRODUCTS_PER_JOIN`` products.  A run's cells are
        its own and reach their products in contraction order, so no
        stage merge follows.  The join also counts what the stage-by-stage
        schedule holds -- per (phase, stage) the products, partial
        nonzeros and accumulator keys, per phase the merged and kept
        nonzeros -- from which each rank's charges for every superstep are
        derived once, as arrays (:func:`_rank_charges`).  Every later
        superstep -- stages 1..q-1, each finalize, later phases and the
        assembly -- only charges them; every broadcast sends its payload.

        ``strict_upper`` (square products only) keeps the entries with
        global ``row < col`` and never forms another: a rank below the grid
        diagonal skips its multiplies (it still receives the panels), and a
        diagonal rank joins each B entry ``(k, c)`` with the rows ``< c`` of
        A's column ``k``.  It excludes the diagonal by itself.  ``A . A^T``
        is symmetric, so its upper triangle holds every unordered pair once.
        """
        if self.shape[1] != other.shape[0]:
            raise DistributionError(
                f"inner dimensions disagree: {self.shape} x {other.shape}"
            )
        if merge_mode not in ("bulk", "stream"):
            raise DistributionError(
                f"unknown merge_mode {merge_mode!r}; options: bulk, stream"
            )
        grid, world = self.grid, self.grid.world
        if other.grid is not grid:
            raise DistributionError("operands must share a process grid")
        out_shape = (self.shape[0], other.shape[1])
        _check_triangle(out_shape, strict_upper)
        if phases is None:
            if plan is None and budget is not None and not budget.unlimited:
                plan = self.plan_spgemm(
                    other, semiring, budget, strict_upper=strict_upper
                )
            phases = plan.phases if plan is not None else 1
        phases = int(phases)
        if phases < 1:
            raise DistributionError(f"phases must be >= 1, got {phases}")
        q, nprocs = grid.q, grid.nprocs
        coords = [grid.coords_of(rank) for rank in range(nprocs)]

        # Operands are sorted and paneled once, not per phase x stage x
        # rank, and read off the broadcast blocks (so uncharged): A by
        # column, B by row (so both panels are concatenations).
        a_blocks = [blk.sorted_by("col") for blk in self.blocks]
        b_blocks = [blk.sorted_by("row") for blk in other.blocks]
        a_ops = _row_panels(grid, a_blocks, self.shape)
        # each B panel with where its stages' entries and its phases start
        b_ops = [
            (panel, stage_lo, cumsum0(block_sizes(panel.shape[1], phases)))
            for panel, stage_lo in _column_panels(
                grid, b_blocks, other.shape, a_blocks, a_ops
            )
        ]
        # each B block stably grouped by column phase: the phase
        # sub-panels (row-sorted slices) its broadcasts send
        b_phased = []
        for rank, blk in enumerate(b_blocks):
            cuts = np.array([0, blk.nnz])
            if phases > 1:
                phase_lo = b_ops[grid.coords_of(rank)[1]][2]
                phase = np.searchsorted(phase_lo, blk.cols, "right") - 1
                perm, cuts = _stable_groups(phase, phases)
                blk = LocalCoo(
                    blk.shape, blk.rows[perm], blk.cols[perm], blk.vals[perm]
                )
            b_phased.append((blk, cuts))
        a_bytes = np.array([blk.nbytes for blk in a_blocks]).reshape(q, q)
        b_bytes = np.array([np.diff(cuts) for _blk, cuts in b_phased])
        b_bytes = (b_bytes * _entry_nbytes(other.dtype)).reshape(q, q, phases)
        stream = merge_mode == "stream"
        job = (
            semiring, _entry_nbytes(semiring.out_dtype), stream, exclude_diagonal,
            _kernel._PRODUCTS_PER_JOIN, q,
        )

        def broadcast(p: int, s: int) -> None:
            for i in range(q):  # A(:, s) along grid rows, every phase
                grid.row_comms[i].bcast(a_blocks[grid.rank_of(i, s)], root=s)
            for j in range(q):  # B(s, :)'s phase sub-panel along columns
                blk, cuts = b_phased[grid.rank_of(s, j)]
                grid.col_comms[j].bcast(blk.slice(*cuts[p : p + 2], "row"), root=s)

        # the first superstep forms every rank's whole product ...
        broadcast(0, 0)
        blocks, charges, joins = zip(*world.map_ranks(
            _spgemm_step,
            [a_ops[i] for i, _j in coords],
            [b_ops[j] for _i, j in coords],
            [a_bytes[i] + b_bytes[:, j].T for i, j in coords],
            [
                "below" if strict_upper and i > j
                else "on" if strict_upper and i == j else "multiply"
                for i, j in coords
            ],
            [bounds[::2] for bounds in grid.block_bounds(out_shape)],
            [job] * nprocs,
        ))
        get_registry().counter("sparse.local_joins").inc(sum(joins))
        # ... and every later superstep -- phase 0's other stages and
        # finalize, each later phase's, then the assembly -- only charges
        ops, nbytes, merges = np.stack(charges, axis=2).tolist()
        times = _step_times(phases, q, stream, exclude_diagonal)
        for k in range(1, len(times)):
            p, s = divmod(k, q + 1)
            if p < phases and s < q:
                broadcast(p, s)
            world.map_segments(
                _charge_step,
                list(zip(ops[k], nbytes[k], merges[k], [times[k]] * nprocs)),
            )
        return DistSparseMatrix(grid, out_shape, list(blocks))

    def row_reduce(self) -> DistVector:
        """Nonzeros per row -> P-way vector: the degree vector **d** of §4.2.

        Pattern: local bincount, then an allreduce across each grid *row*
        communicator, then the diagonal ranks redistribute segments to the
        P-way vector owners.
        """
        grid, world = self.grid, self.grid.world
        n = self.shape[0]
        q = grid.q
        # 1) local per-row reduction
        local = [blk.row_counts() for blk in self.blocks]
        world.charge_compute_all([blk.nnz + blk.shape[0] for blk in self.blocks])
        # 2) allreduce within each grid row
        row_sums: list[np.ndarray] = [None] * q
        for i in range(q):
            parts = [local[grid.rank_of(i, j)] for j in range(q)]
            row_sums[i] = grid.row_comms[i].allreduce(parts, np.add)
        # 3) diagonal ranks route their segments to the P-way vector owners
        bounds = grid.vec_bounds(n)
        nothing = np.empty(0, dtype=np.int64)
        dest = [nothing] * grid.nprocs
        sums = [nothing] * grid.nprocs
        for i in range(q):
            diag = grid.rank_of(i, i)
            row_ids = np.arange(bounds[i * q], bounds[(i + 1) * q])
            dest[diag] = grid.owner_of_vec(n, row_ids)
            sums[diag] = row_sums[i]
        (blocks,) = world.comm.route(dest).send(sums)
        return DistVector(grid, n, blocks)

    def clear_rows_and_cols(
        self, global_indices_per_rank: Sequence[np.ndarray]
    ) -> "DistSparseMatrix":
        """Remove all nonzeros in the given global rows *and* columns.

        The branch-masking primitive of §4.2: "the entire row -- and column,
        since S is symmetric -- is cleared" while "the indexing of the matrix
        does not change".  The (small) per-rank branch lists are allgathered,
        then each rank prunes locally.
        """
        world = self.grid.world
        gathered = world.comm.allgather(
            [np.asarray(ix, dtype=np.int64) for ix in global_indices_per_rank]
        )
        marked = np.unique(np.concatenate(gathered))
        if not marked.size:  # nothing to clear: same blocks, same charge
            world.charge_compute_all([blk.nnz for blk in self.blocks])
            return DistSparseMatrix(self.grid, self.shape, list(self.blocks))
        return self.prune(
            lambda _v, rows, cols: np.isin(rows, marked) | np.isin(cols, marked)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistSparseMatrix(shape={self.shape}, nnz={self.nnz()}, "
            f"grid={self.grid.q}x{self.grid.q})"
        )
