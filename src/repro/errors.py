"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
genuine programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CommunicatorError(ReproError):
    """Invalid use of the simulated MPI layer (bad rank, mismatched sizes)."""


class GridError(ReproError):
    """Process-grid construction failed (e.g. rank count is not a square)."""


class SparseFormatError(ReproError):
    """A sparse matrix was built from or converted into an invalid state."""


class DistributionError(ReproError):
    """Distributed object invariants violated (block sizes, alignment)."""


class SequenceError(ReproError):
    """Invalid DNA sequence content or malformed FASTA input."""


class KmerError(ReproError):
    """k-mer codec misuse (k out of range, invalid symbol)."""


class AlignmentError(ReproError):
    """Pairwise alignment preconditions violated."""


class KernelError(ReproError):
    """Kernel-tier registry misuse (unknown tier, unavailable native tier)."""


class AssemblyError(ReproError):
    """Contig generation invariants violated (e.g. non-linear local graph)."""


class PipelineError(ReproError):
    """End-to-end pipeline configuration or stage-ordering error."""


class RankFailure(ReproError):
    """One simulated rank died mid-superstep (injected or detected).

    Carries enough provenance (``rank``, ``stage``, ``superstep``) for the
    engine's recovery path to record what it survived.  The superstep that
    raised charges nothing -- accounting is transactional -- so a stage
    re-executed after a :class:`RankFailure` is bit-identical to one that
    never failed.
    """

    def __init__(
        self,
        message: str,
        rank: int | None = None,
        stage: str | None = None,
        superstep: int | None = None,
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.stage = stage
        self.superstep = superstep


class FaultPlanError(ReproError):
    """A fault plan or retry policy is malformed (bad rule, bad JSON)."""
