"""2D block-distributed sparse matrices (the CombBLAS workhorse).

A global ``n x m`` matrix is split into ``sqrt(P) x sqrt(P)`` blocks: grid
row ``i`` owns global rows ``row_block(n, i)`` and grid column ``j`` owns
global columns ``col_block(m, j)``; rank ``(i, j)`` stores the intersection
as a :class:`~repro.sparse.coo.LocalCoo` in local coordinates.  The layout
itself lives in :class:`~repro.mpi.grid.ProcGrid` (``block_bounds``,
``owner_of_entry``, ``vec_bounds``); this module only reads it.

Implemented CombBLAS-style operations (each with the same communication
pattern the real library uses, charged to the cost model):

* :meth:`DistSparseMatrix.from_rank_triples` -- matrix assembly: one
  :meth:`SimComm.route <repro.mpi.comm.SimComm.route>` plan sends every
  locally produced triple to its block owner;
* :meth:`DistSparseMatrix.spgemm` -- SUMMA: sqrt(P) stages of row/column
  broadcasts followed by local semiring multiplies, which join through
  column pointers built once per A block and per multiplication; with
  ``strict_upper`` (``A . A^T``, whose pairs are unordered) only the strict
  upper triangle is formed: ranks below the grid diagonal multiply
  nothing and diagonal ranks join a prefix of each A column;
* :meth:`DistSparseMatrix.transpose` -- pairwise exchange with the grid-
  transposed partner;
* :meth:`DistSparseMatrix.apply` / :meth:`prune` -- embarrassingly local;
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
from ..mpi.comm import block_range
from ..mpi.grid import ProcGrid
from ..mpi.memory import MemoryBudget
from ..util import cumsum0, sorted_lookup
from .coo import LocalCoo, fused_key
from .semiring import Semiring
from .spgemm import column_key, column_pointers, spgemm_local, spgemm_symbolic
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

    The planner runs the *symbolic* SpGEMM (:func:`spgemm_symbolic` summed
    over SUMMA stages, per rank) to bound every output column's flops and
    nonzeros without forming a value, then picks the smallest phase count
    ``b`` whose estimated peak per-rank working set

    ``max over phases of (A panel + B phase sub-panel + phase partial
    upper bound + finished output so far)``

    fits the :class:`~repro.mpi.memory.MemoryBudget`.  ``b = 1``
    reproduces the unphased SUMMA bit-identically, so an unlimited budget
    always plans one phase.  Estimates are upper bounds: a plan that fits
    guarantees the executor's *modeled* working set fits too.  A
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

        # per-rank symbolic column profiles, summed over the q SUMMA stages,
        # from each block's column counts (read once, not once per stage)
        a_counts = [blk.col_counts() for blk in a.blocks]
        b_counts = [blk.col_counts() for blk in b.blocks]
        per_rank = []
        sym_ops = []
        out_bounds = grid.block_bounds((a.shape[0], b.shape[1]))
        for rank, (rlo, rhi, clo, chi) in enumerate(out_bounds):
            i, j = grid.coords_of(rank)
            a_ranks = [grid.rank_of(i, s) for s in range(q)]
            b_ranks = [grid.rank_of(s, j) for s in range(q)]
            below = strict_upper and i > j  # multiplies nothing
            partial_ub = np.zeros(chi - clo, dtype=np.int64)
            # each A block meets one diagonal rank, so its (col, row) key
            # is built once per plan
            for ar, br in [] if below else zip(a_ranks, b_ranks):
                partial_ub += spgemm_symbolic(
                    a.blocks[ar], b.blocks[br], a_counts[ar],
                    strict_upper=strict_upper and i == j,
                )[1]
            out_ub = np.minimum(partial_ub, rhi - rlo)
            cum_counts = np.zeros((q, chi - clo + 1), dtype=np.int64)
            np.cumsum([b_counts[br] for br in b_ranks], axis=1, out=cum_counts[:, 1:])
            a_panel = max(a.blocks[ar].nbytes for ar in a_ranks)
            per_rank.append((a_panel, cumsum0(partial_ub), cumsum0(out_ub), cum_counts))
            sym_ops.append(
                0
                if below
                else sum(a.blocks[ar].nnz for ar in a_ranks)
                + sum(b.blocks[br].nnz for br in b_ranks)
            )
        world.charge_compute_all(sym_ops)

        def estimate(phase_count: int) -> float:
            worst = 0.0
            for a_panel, cum_partial, cum_out, cum_counts in per_rank:
                width = cum_partial.size - 1
                # the fully assembled output is observed once at the end
                peak = float(cum_out[-1]) * out_entry
                for p in range(phase_count):
                    lo, hi = block_range(width, phase_count, p)
                    panel = (
                        int((cum_counts[:, hi] - cum_counts[:, lo]).max())
                        * b_entry
                    )
                    transient = (
                        a_panel
                        + panel
                        + float(cum_partial[hi] - cum_partial[lo]) * out_entry
                    )
                    finished = float(cum_out[lo]) * out_entry
                    peak = max(peak, transient + finished)
                worst = max(worst, peak)
            return worst * scale

        max_width = max(chi - clo for _rlo, _rhi, clo, chi in out_bounds)
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


def _concat_coo(shape: tuple[int, int], parts: list[LocalCoo], dtype) -> LocalCoo:
    parts = [p for p in parts if p.nnz]
    if not parts:
        return LocalCoo.empty(shape, dtype)
    rows = np.concatenate([p.rows for p in parts])
    cols = np.concatenate([p.cols for p in parts])
    vals = np.concatenate([p.vals for p in parts])
    return LocalCoo(shape, rows, cols, vals)


def _phase_panels(blk: LocalCoo, phases: int) -> list[LocalCoo]:
    """``blk``'s column-phase sub-panels, row-sorted: slices of one stable
    sort by the fused (phase, row, col) key, equal to column masks of the
    row-sorted block."""
    if phases == 1:
        return [blk.sorted_by("row")]
    nrows, ncols = blk.shape
    lows = [block_range(ncols, phases, p)[0] for p in range(phases)]
    phase = np.searchsorted(lows, blk.cols, side="right") - 1
    perm = np.argsort(
        fused_key(fused_key(phase, blk.rows, nrows), blk.cols, ncols),
        kind="stable",
    )
    rows, cols, vals = blk.rows[perm], blk.cols[perm], blk.vals[perm]
    cuts = cumsum0(np.bincount(phase, minlength=phases))
    return [
        LocalCoo(blk.shape, rows[lo:hi], cols[lo:hi], vals[lo:hi], order="row")
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]


# ---------------------------------------------------------------------------
# SpGEMM rank steps (module level, state-through-arguments)
#
# These run under any executor backend, including out-of-process ones, so
# they cannot mutate enclosing scopes: each rank's accumulation state comes
# in through per-rank arguments and goes back out through the return value;
# the driver loop in :meth:`DistSparseMatrix.spgemm` owns the state between
# supersteps.  Charge/observe ordering is part of the bit-identity contract
# -- do not reorder.
# ---------------------------------------------------------------------------


def _stage_product(a_blk, a_ptr, a_key, b_blk, semiring, below):
    """One stage's local product and its flops.  In a strict-upper
    product a rank ``below`` the grid diagonal forms nothing, and a
    diagonal rank (given the A panel's ``a_key``) joins column prefixes."""
    if below:
        shape = (a_blk.shape[0], b_blk.shape[1])
        return LocalCoo.empty(shape, semiring.out_dtype), 0
    return spgemm_local(
        a_blk, b_blk, semiring, a_ptr=a_ptr,
        strict_upper=a_key is not None, a_key=a_key,
    )


def _spgemm_multiply_bulk_step(
    ctx, a_blk, a_ptr, a_key, b_blk, partial_nbytes, base_bytes, semiring, below
):
    """One SUMMA stage's local multiply under bulk (once-per-phase) merge.

    ``a_ptr`` (and on a strict-upper diagonal rank ``a_key``) is the A
    panel's column pointers, built once per SpGEMM.  Returns the stage's
    partial product; the driver appends it to the rank's phase partials
    (when nonempty) and tracks their byte total, which arrives here as
    ``partial_nbytes`` the next stage.
    """
    part, flops = _stage_product(a_blk, a_ptr, a_key, b_blk, semiring, below)
    ctx.charge_compute(max(flops, 1))
    received = a_blk.nbytes + b_blk.nbytes
    live = partial_nbytes + (part.nbytes if part.nnz else 0)
    ctx.observe_memory(base_bytes + received + live)
    return part


def _spgemm_multiply_stream_step(
    ctx, a_blk, a_ptr, a_key, b_blk, prev, base_bytes, shape, semiring, below
):
    """One SUMMA stage's local multiply folded into a running accumulator."""
    part, flops = _stage_product(a_blk, a_ptr, a_key, b_blk, semiring, below)
    ctx.charge_compute(max(flops, 1))
    received = a_blk.nbytes + b_blk.nbytes
    live = (prev.nbytes if prev is not None else 0) + part.nbytes
    ctx.observe_memory(base_bytes + received + live)
    if part.nnz or prev is None:
        pieces = [p for p in (prev, part) if p is not None]
        merged = _concat_coo(shape, pieces, semiring.out_dtype)
        merged = merged.deduped(semiring.add_reduce)
        ctx.charge_compute(merged.nnz)
        return merged
    return prev


def _spgemm_mask_diagonal(ctx, merged, offset, exclude_diagonal):
    """Fold the diagonal mask into the phase merge: pruned entries never
    reach the finished working set."""
    if exclude_diagonal:
        ctx.charge_compute(merged.nnz)
        if merged.nnz:
            rlo, clo = offset
            merged = merged.select((merged.rows + rlo) != (merged.cols + clo))
    return merged


def _spgemm_finalize_bulk_step(
    ctx, parts, shape, offset, base_bytes, semiring, exclude_diagonal
):
    """Merge one rank's phase partials into that phase's output columns."""
    merged = _concat_coo(shape, parts, semiring.out_dtype)
    merged = merged.deduped(semiring.add_reduce)
    ctx.charge_compute(merged.nnz)
    merged = _spgemm_mask_diagonal(ctx, merged, offset, exclude_diagonal)
    ctx.observe_memory(base_bytes + merged.nbytes)
    return merged


def _spgemm_finalize_stream_step(
    ctx, accumulated, shape, offset, base_bytes, semiring, exclude_diagonal
):
    """Finalize one rank's streamed accumulator as the phase's output."""
    merged = (
        accumulated
        if accumulated is not None
        else LocalCoo.empty(shape, semiring.out_dtype)
    )
    merged = _spgemm_mask_diagonal(ctx, merged, offset, exclude_diagonal)
    ctx.observe_memory(base_bytes + merged.nbytes)
    return merged


def _spgemm_assemble_step(ctx, parts, shape, semiring):
    """Concatenate one rank's finished phase outputs into its C block."""
    total = _concat_coo(shape, parts, semiring.out_dtype)
    # phases partition the columns, so deduped() only restores the
    # row-major order of the unphased merge -- no values change
    total = total.deduped(semiring.add_reduce)
    ctx.charge_compute(total.nnz)
    ctx.observe_memory(total.nbytes)
    return total


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
    ) -> "DistSparseMatrix":
        """Build from per-rank *global* triples, routing each to its owner.

        The distributed analogue of matrix assembly: every rank contributes
        triples it produced locally (e.g. k-mer occurrences from its reads),
        one routed exchange sends them to the 2D block owners, and
        duplicates are combined with ``add_reduce`` (kept as-is when
        ``None``).  ``dtype`` is the payload dtype (default: as given).
        """
        world = grid.world
        rows = [np.asarray(gr, dtype=np.int64) for gr, _gc, _gv in per_rank]
        cols = [np.asarray(gc, dtype=np.int64) for _gr, gc, _gv in per_rank]
        vals = [np.asarray(gv, dtype=dtype) for _gr, _gc, gv in per_rank]
        plan = world.comm.route(
            grid.owner_of_entry(shape, gr, gc) for gr, gc in zip(rows, cols)
        )
        for r, gr in enumerate(rows):
            world.charge_compute(r, gr.size)
        blocks = []
        for (rlo, rhi, clo, chi), gr, gc, gv in zip(
            grid.block_bounds(shape), *plan.send(rows, cols, vals)
        ):
            blk = LocalCoo((rhi - rlo, chi - clo), gr - rlo, gc - clo, gv)
            if add_reduce is not None:
                blk = blk.deduped(add_reduce)
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
    def apply(self, func: Callable[..., np.ndarray]) -> "DistSparseMatrix":
        """CombBLAS ``Apply``: transform payloads in place, keep pattern.

        ``func(vals, global_rows, global_cols) -> vals`` is vectorized per
        block.  This is the hook the pipeline uses for the alignment step
        (``Apply(C, Alignment())``).
        """
        world = self.grid.world
        out = [
            blk.map_vals(lambda v, _r, _c: func(v, rows, cols))
            for blk, (rows, cols, _v) in zip(self.blocks, self.edge_triples_per_rank())
        ]
        world.charge_compute_all([blk.nnz for blk in self.blocks])
        return DistSparseMatrix(self.grid, self.shape, out)

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
        for rank, (blk, oblk) in enumerate(zip(self.blocks, other.blocks)):
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
            world.charge_compute(rank, blk.nnz + oblk.nnz)
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
        multiplies and accumulates locally -- and then finalizes that
        phase's output columns before the next phase starts.  Peak live
        bytes is therefore (broadcast panel + one phase's partials +
        finished output) instead of a whole-stage working set.  Operands
        are prepared once per call, not per phase: A's blocks sorted by
        column with their column pointers, B's blocks sorted by (phase,
        row, col) so each phase's sub-panel is a slice.

        ``phases=1`` (the default) reproduces the classic unphased SUMMA
        bit-identically.  Passing a :class:`~repro.mpi.memory.MemoryBudget`
        (and no explicit ``phases``) runs the symbolic planner, which picks
        the smallest phase count whose estimated peak fits the budget.

        ``merge_mode`` selects the within-phase accumulation strategy --
        the paper's §7 memory-reduction future work:

        * ``"bulk"`` (default, CombBLAS-style): keep every stage's partial
          product and merge once per phase.  Fastest, but the transient
          working set holds all sqrt(P) partials of the phase
          simultaneously.
        * ``"stream"``: fold each stage's partial into a running
          accumulator with an immediate semiring dedup.  Peak memory drops
          to (accumulator + one partial) at the cost of sqrt(P)-1 extra
          merge passes per phase.

        All modes report their transient working set to the world's
        :class:`~repro.mpi.memory.MemoryMeter`; with ``exclude_diagonal``
        the diagonal mask is folded into the phase merge, so pruned
        entries never count toward modeled memory.

        ``strict_upper`` (square products only) keeps the entries with
        global ``row < col`` and never forms another: a rank below the grid
        diagonal skips its multiplies (it still receives the panels, and
        every broadcast and collective runs as before), and a diagonal rank
        joins each B entry ``(k, c)`` with the rows ``< c`` of A's column
        ``k``.  It excludes the diagonal by itself.  ``A . A^T`` is
        symmetric, so its upper triangle holds every unordered pair once.
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
        q = grid.q
        nprocs = grid.nprocs

        out_block_shape = _block_shapes(grid, out_shape)
        offsets = [
            (rlo, clo) for rlo, _rhi, clo, _chi in grid.block_bounds(out_shape)
        ]

        # per-rank accumulation state.  The rank steps are module-level
        # functions (out-of-process executors pickle them), so the state
        # lives HERE, flowing into each superstep through per-rank
        # arguments and back out through results.  partials/acc are
        # per-phase (rebound at each phase start); finished_bytes tracks
        # the bytes of already finalized phase outputs, which stay live
        # to the end.
        # Derived once here, not per phase x stage x rank: A's blocks are
        # sorted by column with their column pointers (and, for a strict
        # upper product, their (col, row) keys) beside them, B's are cut
        # into row-sorted phase sub-panels.  Pointers and keys are read
        # off the broadcast panel, so nothing is charged for them.
        a_blocks = [blk.sorted_by("col") for blk in self.blocks]
        a_ptrs = [column_pointers(blk) for blk in a_blocks]
        a_keys = [column_key(blk) if strict_upper else None for blk in a_blocks]
        b_panels = [_phase_panels(blk, phases) for blk in other.blocks]
        bulk = merge_mode == "bulk"
        finished: list[list[LocalCoo]] = [[] for _ in range(nprocs)]
        finished_bytes = [0] * nprocs
        sem_pr = [semiring] * nprocs
        excl_pr = [exclude_diagonal] * nprocs
        below_pr = [
            strict_upper and i > j for i, j in map(grid.coords_of, range(nprocs))
        ]

        for p in range(phases):
            partials: list[list[LocalCoo]] = [[] for _ in range(nprocs)]
            partial_bytes = [0] * nprocs
            acc: list[LocalCoo | None] = [None] * nprocs
            for s in range(q):
                # broadcast A(:, s) along grid rows (full blocks, every phase)
                a_recv: list[LocalCoo] = [None] * nprocs
                a_ptr_recv: list[np.ndarray] = [None] * nprocs
                # only the diagonal rank of a grid row joins column prefixes
                a_key_recv: list[np.ndarray | None] = [None] * nprocs
                for i in range(q):
                    root_world_rank = grid.rank_of(i, s)
                    got = grid.row_comms[i].bcast(
                        a_blocks[root_world_rank], root=s
                    )
                    for j in range(q):
                        a_recv[grid.rank_of(i, j)] = got[j]
                        a_ptr_recv[grid.rank_of(i, j)] = a_ptrs[root_world_rank]
                    a_key_recv[grid.rank_of(i, i)] = a_keys[root_world_rank]
                # broadcast B(s, :)'s phase column sub-panels along grid columns
                b_recv: list[LocalCoo] = [None] * nprocs
                for j in range(q):
                    root_world_rank = grid.rank_of(s, j)
                    got = grid.col_comms[j].bcast(
                        b_panels[root_world_rank][p], root=s
                    )
                    for i in range(q):
                        b_recv[grid.rank_of(i, j)] = got[i]
                # local multiply-accumulate superstep.  Each grid row/
                # column shares ONE broadcast panel object (and one
                # pointer array) across its ranks' tasks, so the process
                # backend exports each panel's arrays to shared memory
                # once, not per rank.
                if bulk:
                    parts = world.map_ranks(
                        _spgemm_multiply_bulk_step, a_recv, a_ptr_recv,
                        a_key_recv, b_recv, partial_bytes, finished_bytes,
                        sem_pr, below_pr,
                    )
                    for rank, part in enumerate(parts):
                        if part.nnz:
                            partials[rank].append(part)
                            partial_bytes[rank] += part.nbytes
                else:
                    acc = world.map_ranks(
                        _spgemm_multiply_stream_step, a_recv, a_ptr_recv,
                        a_key_recv, b_recv, acc, finished_bytes,
                        out_block_shape, sem_pr, below_pr,
                    )
            merged_list = world.map_ranks(
                _spgemm_finalize_bulk_step if bulk else _spgemm_finalize_stream_step,
                partials if bulk else acc,
                out_block_shape,
                offsets,
                finished_bytes,
                sem_pr,
                excl_pr,
            )
            for rank, merged in enumerate(merged_list):
                finished[rank].append(merged)
                finished_bytes[rank] += merged.nbytes

        if phases == 1:
            blocks = [finished[rank][0] for rank in range(nprocs)]
        else:
            blocks = world.map_ranks(
                _spgemm_assemble_step, finished, out_block_shape, sem_pr
            )
        return DistSparseMatrix(grid, out_shape, blocks)

    def row_reduce(
        self, value_func: Callable[[np.ndarray], np.ndarray] | None = None
    ) -> DistVector:
        """Summation reduction over the row dimension -> P-way vector.

        With the default ``value_func`` (count of nonzeros) this computes
        the degree vector **d** of §4.2.  Pattern: local bincount, then an
        allreduce across each grid *row* communicator, then the diagonal
        ranks redistribute segments to the P-way vector owners.
        """
        grid, world = self.grid, self.grid.world
        n = self.shape[0]
        q = grid.q
        # 1) local per-row reduction
        local: list[np.ndarray] = []
        for rank, blk in enumerate(self.blocks):
            if value_func is None:
                contrib = blk.row_counts()
            else:
                weights = value_func(blk.vals)
                contrib = np.bincount(
                    blk.rows, weights=weights, minlength=blk.shape[0]
                ).astype(np.int64)
            local.append(contrib)
            world.charge_compute(rank, blk.nnz + blk.shape[0])
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
