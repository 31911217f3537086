"""Distributed sparse linear algebra with semirings (CombBLAS equivalent).

The one local format, :class:`LocalCoo`, carries arbitrary structured
payloads; its column-sorted view plus :func:`column_pointers` is the CSC
that the SUMMA join and the §4.4 local assembly walk.
:class:`DistSparseMatrix` and :class:`DistVector` distribute blocks over
the sqrt(P) x sqrt(P) grid with SUMMA SpGEMM, apply/prune, reductions and
owner-computes vector gathers.
"""

from .coo import LocalCoo, segment_starts
from .distmat import DistSparseMatrix, SpgemmPlan
from .distvec import DistVector
from .semiring import (
    Semiring,
    arithmetic_semiring,
    boolean_semiring,
    count_semiring,
    dirmin_semiring,
    minplus_semiring,
    seed_semiring,
)
from .spgemm import column_pointers, spgemm_local, spgemm_symbolic
from .types import (
    DIRMIN_DTYPE,
    KMER_POS_DTYPE,
    OVERLAP_DTYPE,
    SEED_DTYPE,
    SUFFIX_INF,
)

__all__ = [
    "LocalCoo",
    "DistSparseMatrix",
    "SpgemmPlan",
    "DistVector",
    "Semiring",
    "arithmetic_semiring",
    "boolean_semiring",
    "count_semiring",
    "minplus_semiring",
    "seed_semiring",
    "dirmin_semiring",
    "spgemm_local",
    "spgemm_symbolic",
    "column_pointers",
    "segment_starts",
    "KMER_POS_DTYPE",
    "SEED_DTYPE",
    "OVERLAP_DTYPE",
    "DIRMIN_DTYPE",
    "SUFFIX_INF",
]
