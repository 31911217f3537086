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
  column pointers built once per A block and per multiplication; column
  phases shape the modeled schedule, while the host joins each stage
  once; with ``strict_upper`` (``A . A^T``, whose pairs are unordered)
  only the strict upper triangle is formed: ranks below the grid
  diagonal multiply nothing and diagonal ranks join a prefix of each A
  column;
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
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from ..errors import DistributionError
from ..mpi.comm import block_range, block_sizes
from ..mpi.grid import ProcGrid
from ..mpi.memory import MemoryBudget
from ..telemetry.metrics import get_registry
from ..util import cumsum0, sorted_lookup
from .coo import LocalCoo, fused_key
from .semiring import Semiring
from . import spgemm as _kernel
from .spgemm import (
    column_key,
    column_pointers,
    join_extents,
    spgemm_local,
    spgemm_symbolic,
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


def _concat_coo(shape: tuple[int, int], stages: list, dtype) -> LocalCoo:
    parts = [p for stage in stages for p in stage if p.nnz]
    if not parts:
        return LocalCoo.empty(shape, dtype)
    rows = np.concatenate([p.rows for p in parts])
    cols = np.concatenate([p.cols for p in parts])
    vals = np.concatenate([p.vals for p in parts])
    return LocalCoo(shape, rows, cols, vals)


@lru_cache(maxsize=64)
def _phase_lows(ncols: int, phases: int) -> np.ndarray:
    """The first column of each of ``phases`` column phases (cached, so
    read-only)."""
    lows = cumsum0(block_sizes(ncols, phases))[:-1]
    lows.flags.writeable = False
    return lows


def _slice(blk: LocalCoo, lo: int, hi: int, order: str = "row") -> LocalCoo:
    """Entries ``lo:hi`` of ``blk`` as views, promised to be in ``order``."""
    return LocalCoo(
        blk.shape, blk.rows[lo:hi], blk.cols[lo:hi], blk.vals[lo:hi], order=order
    )


def _phase_sorted(blk: LocalCoo, phases: int) -> tuple:
    """``blk`` after one stable sort by the fused (phase, row, col) key,
    where each column phase's entries start (``phases + 1`` cuts), and its
    row-sorted phase sub-panels (slices)."""
    if phases == 1:
        whole = blk.sorted_by("row")
        return whole, np.array([0, blk.nnz]), [whole]
    nrows, ncols = blk.shape
    phase = np.searchsorted(_phase_lows(ncols, phases), blk.cols, side="right") - 1
    perm = np.argsort(
        fused_key(fused_key(phase, blk.rows, nrows), blk.cols, ncols),
        kind="stable",
    )
    whole = LocalCoo(
        blk.shape, blk.rows[perm], blk.cols[perm], blk.vals[perm], order="phase"
    )
    cuts = cumsum0(np.bincount(phase, minlength=phases))
    return whole, cuts, [_slice(whole, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]


def _phase_panels(blk: LocalCoo, phases: int) -> list[LocalCoo]:
    """``blk``'s row-sorted column-phase sub-panels: slices of one stable sort
    by the fused (phase, row, col) key, equal to column masks of ``blk``."""
    return _phase_sorted(blk, phases)[2]


def _phase_counts(cols: np.ndarray, lows: np.ndarray) -> np.ndarray:
    """How many of ``cols`` each column phase holds."""
    if len(lows) == 1:
        return np.array([cols.size])
    phase = np.searchsorted(lows, cols, side="right") - 1
    return np.bincount(phase, minlength=len(lows))


# SpGEMM rank steps: module level (out-of-process backends pickle them), so
# each rank's state comes in through arguments and goes back out through
# the return value.  Charge/observe order is part of the bit-identity
# contract.


class _Ledger:
    """One rank's part in a phased product: how it joins (not at all
    ``below`` the grid diagonal, column prefixes ``on`` it) and, per
    (phase, stage), the bytes received, products formed, partial nonzeros
    and -- streamed -- distinct keys so far (the accumulator's ``keys``);
    per phase, the merged and (diagonal-masked) kept nonzeros."""

    def __init__(self, received, entry, stream, exclude_diagonal, below, on, bound):
        self.received, self.entry, self.bound = received, entry, bound
        self.stream, self.exclude_diagonal = stream, exclude_diagonal
        self.below, self.on = below, on
        self.flops, self.part, self.held = (np.zeros_like(received) for _ in range(3))
        self.merged = self.kept = np.zeros(received.shape[0], dtype=np.int64)
        self.keys = np.empty(0, dtype=np.int64)

    def charges(self, phases: int | None = None) -> Iterator[list[tuple[bool, int]]]:
        """Yield each superstep's ``(is_memory, amount)`` charges: each
        phase's q stages and finalize, then any assembly (or the first
        ``phases`` phases' only).  A stage charges its flops, then observes
        finished phases, received panels and the phase's partials -- bulk:
        every stage's so far; streamed: the accumulator and this partial,
        which a stage that formed any (and stage 0) merges, charging the
        new size.  A finalize charges its merge (bulk) and diagonal mask,
        and observes its output.  Phase 0's stage ``s`` reads stages
        ``<= s`` only."""
        counts = (
            self.received, self.flops, self.part, self.held, self.merged, self.kept
        )
        finished, entry = 0, self.entry
        for received, flops, part, held, merged, kept in zip(
            *(c[:phases].tolist() for c in counts)
        ):
            before = 0  # the phase's nonzeros held before this stage
            for s, (r, f, n, h) in enumerate(zip(received, flops, part, held)):
                step = [(False, max(f, 1)), (True, finished + r + (before + n) * entry)]
                if self.stream and (n or not s):
                    step.append((False, h))
                yield step
                before = h if self.stream else before + n
            # a bulk merge and the diagonal mask both charge the merged size
            times = (not self.stream) + self.exclude_diagonal
            finished += kept * entry
            yield [(False, merged)] * times + [(True, finished)]
        if phases is None and self.kept.size > 1:  # one phase assembles nothing
            yield [(False, finished // entry), (True, finished)]


def _spgemm_join_step(ctx, a_op, b_op, ledger, s, semiring):
    """Phase 0, stage ``s`` on one rank: join the A panel against the
    rank's whole phase-sorted B block in runs of whole phases of at most
    ``ledger.bound`` products (a larger phase is a run of its own), count
    every phase's products into the ledger and charge the stage as phase
    0's.  Returns the runs' products (the phases' partials side by side)
    and the ledger."""
    (a_blk, a_ptr, a_key), (whole, cuts) = a_op, b_op
    a_key = a_key if ledger.on else None
    phases, ncols = cuts.size - 1, whole.shape[1]
    lows = _phase_lows(ncols, phases)
    parts, lo = [], phases if ledger.below else 0
    if phases > 1 and not ledger.below:  # one phase's join counts its flops
        ends = cumsum0(join_extents(a_blk, whole, a_ptr, a_key)[1])[cuts]
        ledger.flops[:, s] = np.diff(ends)
    while lo < phases:
        hi = lo + 1 if phases == 1 else max(
            lo + 1, np.searchsorted(ends, ends[lo] + ledger.bound, "right") - 1
        )
        run = whole if hi - lo == phases else _slice(
            whole, cuts[lo], cuts[hi], "row" if hi == lo + 1 else "phase"
        )
        part, formed = spgemm_local(
            a_blk, run, semiring, a_ptr=a_ptr, strict_upper=a_key is not None,
            a_key=a_key,
        )
        if phases == 1:
            ledger.flops[0, s] = formed
        ledger.part[:, s] += _phase_counts(part.cols, lows)
        parts.append(part)
        lo = hi
    if ledger.stream:  # the accumulator's keys, of every phase
        keys = [fused_key(part.rows, part.cols, ncols) for part in parts]
        ledger.keys = np.unique(np.concatenate([ledger.keys, *keys]))
        ledger.held[:, s] = _phase_counts(ledger.keys % ncols, lows)
    _charge_step([ctx], [next(islice(ledger.charges(1), s, None))])
    return parts, ledger


def _spgemm_merge_step(ctx, stage_parts, ledger, shape, offset, semiring):
    """Phase 0's finalize on one rank: merge the stage partials of every
    phase at once (one stable sort, the semiring add first on ties, so in
    stage order; then the diagonal mask), count each phase's merged and
    kept nonzeros and charge phase 0's finalize.  Returns the rank's
    output block and the ledger."""
    merged = _concat_coo(shape, stage_parts, semiring.out_dtype)
    merged = merged.deduped(semiring.add_reduce)
    phases, q = ledger.part.shape
    lows = _phase_lows(shape[1], phases)
    ledger.merged = _phase_counts(merged.cols, lows)
    if ledger.exclude_diagonal and merged.nnz:
        merged = merged.select(merged.rows + offset[0] != merged.cols + offset[1])
    ledger.kept = _phase_counts(merged.cols, lows)
    _charge_step([ctx], [next(islice(ledger.charges(), q, None))])
    return merged, ledger


def _charge_step(ctxs, charges):
    """Charge each rank of a segment its ``(is_memory, amount)`` charges --
    all that a superstep of a phased product after phase 0 does."""
    for ctx, rank_charges in zip(ctxs, charges):
        for is_memory, amount in rank_charges:
            (ctx.observe_memory if is_memory else ctx.charge_compute)(amount)
    return [None] * len(ctxs)


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
        phase 0's stages join each rank's A panel (sorted by column, with
        its column pointers) against its whole B block (sorted by (phase,
        row, col), so a phase is a slice) in runs of whole phases of at
        most ``spgemm._PRODUCTS_PER_JOIN`` products; its finalize merges
        them.  Later supersteps charge what those counts derive
        (:class:`_Ledger`); every broadcast sends its payload.

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

        # Operands are derived once, not per phase x stage x rank, and read
        # off the broadcast panels (so uncharged).  Ranks share them by
        # object, so the process backend exports each array once.
        a_blocks = [blk.sorted_by("col") for blk in self.blocks]
        a_ops = [
            (blk, column_pointers(blk), column_key(blk) if strict_upper else None)
            for blk in a_blocks
        ]
        b_ops = [_phase_sorted(blk, phases) for blk in other.blocks]
        b_panels = [panels for _whole, _cuts, panels in b_ops]
        a_bytes = np.array([blk.nbytes for blk in a_blocks]).reshape(q, q)
        b_bytes = np.array([[pnl.nbytes for pnl in pnls] for pnls in b_panels])
        ledgers = [
            _Ledger(
                a_bytes[i] + b_bytes.reshape(q, q, phases)[:, j].T,
                _entry_nbytes(semiring.out_dtype),
                merge_mode == "stream", exclude_diagonal,
                below=strict_upper and i > j, on=strict_upper and i == j,
                bound=_kernel._PRODUCTS_PER_JOIN,
            )
            for i, j in coords
        ]
        stage_parts = [[] for _ in range(nprocs)]

        def broadcast(p: int, s: int) -> None:
            for i in range(q):  # A(:, s) along grid rows, every phase
                grid.row_comms[i].bcast(a_blocks[grid.rank_of(i, s)], root=s)
            for j in range(q):  # B(s, :)'s phase sub-panel along columns
                grid.col_comms[j].bcast(b_panels[grid.rank_of(s, j)][p], root=s)

        # phase 0 forms every phase's products and merges them
        for s in range(q):
            broadcast(0, s)
            results = world.map_ranks(
                _spgemm_join_step,
                [a_ops[grid.rank_of(i, s)] for i, _j in coords],
                [b_ops[grid.rank_of(s, j)][:2] for _i, j in coords],
                ledgers,
                [s] * nprocs,
                [semiring] * nprocs,
            )
            for rank, (parts, ledgers[rank]) in enumerate(results):
                stage_parts[rank].append(parts)
        joins = sum(len(parts) for stages in stage_parts for parts in stages)
        get_registry().counter("sparse.local_joins").inc(joins)
        offsets = [bounds[::2] for bounds in grid.block_bounds(out_shape)]
        blocks, ledgers = zip(*world.map_ranks(
            _spgemm_merge_step, stage_parts, ledgers,
            _block_shapes(grid, out_shape), offsets, [semiring] * nprocs,
        ))
        # every later superstep -- each later phase's stages and finalize,
        # then the assembly -- only charges what phase 0 counted
        later = zip(*(islice(ledger.charges(), q + 1, None) for ledger in ledgers))
        for k, charges in enumerate(later):
            p, s = divmod(k, q + 1)
            if s < q and p + 1 < phases:
                broadcast(p + 1, s)
            world.map_segments(_charge_step, charges)
        return DistSparseMatrix(grid, out_shape, list(blocks))

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
