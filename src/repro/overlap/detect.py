"""Candidate overlap detection: ``C = A . A^T`` (Algorithm 1, line 6).

The distributed SpGEMM contracts over the k-mer dimension with the *seed
semiring*: every k-mer shared by two reads contributes one seed (position
pair + strand agreement), duplicates are combined by counting and keeping a
deterministic representative seed.  ``A . A^T`` is symmetric and a read
trivially overlaps itself, so only the strict upper triangle (row < col) is
formed -- each unordered candidate pair once, which is all the alignment
stage needs -- and pairs sharing fewer than ``min_shared`` k-mers are
pruned: BELLA's defense against chance collisions.
"""

from __future__ import annotations

from ..mpi.memory import MemoryBudget
from ..sparse.distmat import DistSparseMatrix, SpgemmPlan
from ..sparse.semiring import seed_semiring

__all__ = ["detect_overlaps"]


def detect_overlaps(
    A: DistSparseMatrix,
    min_shared: int = 1,
    merge_mode: str = "bulk",
    phases: int | None = None,
    budget: MemoryBudget | None = None,
) -> tuple[DistSparseMatrix, SpgemmPlan | None]:
    """Build the candidate overlap matrix C from the k-mer matrix A.

    Returns ``(C, plan)``: a |reads| x |reads| matrix of
    :data:`SEED_DTYPE` entries holding the strict upper triangle (global
    row < col: one entry per unordered candidate pair, its seed as seen
    from the lower read id), plus the :class:`SpgemmPlan` the memory
    budget produced (``None`` without a budget).  ``merge_mode="stream"``
    selects the low-memory SUMMA accumulation and ``phases``/``budget``
    column-block the product -- C = A.A^T is the pipeline's peak-memory
    kernel, so this is where the paper's §7 memory-reduction plan bites.
    """
    semiring = seed_semiring()
    # sorted by column (as ``build_kmer_matrix`` assembles it) before the
    # transpose: A^T then arrives row-sorted, so neither operand is sorted
    # again inside the SpGEMM
    A = DistSparseMatrix(
        A.grid, A.shape, [blk.sorted_by("col") for blk in A.blocks]
    )
    At = A.transpose()
    plan = None
    if phases is None:
        phases = 1
        if budget is not None and not budget.unlimited:
            plan = SpgemmPlan.choose(A, At, semiring, budget, strict_upper=True)
            phases = plan.phases
    C = A.spgemm(
        At, semiring, merge_mode=merge_mode, phases=phases, strict_upper=True
    )
    if min_shared > 1:
        C = C.prune(lambda v, r, c: v["count"] < min_shared)
    return C, plan
