"""Scaffolding and polishing: the paper's named future work (§7).

The paper closes with: *"Future work includes developing a polishing or
scaffolding phase to further improve the quality of ELBA assembly.  One
possibility is to once again use the sparse matrix abstraction to find
similarities within the contig set and obtain even longer sequences."*

This package implements exactly that extension.  Its functions
post-process a finished result's ``result.contigs.contigs``:

* :mod:`repro.scaffold.merge` -- **scaffolding**: each round is one
  ``Pipeline.default().run`` with the contig set as its read set (k-mer
  seeding, SpGEMM candidate detection, x-drop alignment, transitive
  reduction, Algorithm 2 chain extraction), iterating until no two contigs
  merge; :func:`gap_fill` first adds one round over the contigs plus the
  reads that can bridge their gaps.  Branch masking removes string-graph
  edges whose parallel paths are later cut, so adjacent contigs frequently
  still overlap in sequence; re-overlapping the contig ends rediscovers
  those joins.
* :mod:`repro.scaffold.polish` -- **polishing**: map each contig's
  constituent reads back onto the contig with unique k-mer anchors and take
  a per-column majority vote, correcting residual single-read errors that
  the verbatim concatenation of §4.4 inherits.  The same vote runs inside a
  run, per rank, under ``PipelineConfig(polish=True)``.
"""

from .merge import (
    ScaffoldConfig,
    ScaffoldResult,
    ScaffoldRoundStats,
    gap_fill,
    scaffold_contigs,
)
from .polish import PolishConfig, PolishResult, polish_contigs

__all__ = [
    "ScaffoldConfig",
    "ScaffoldResult",
    "ScaffoldRoundStats",
    "scaffold_contigs",
    "gap_fill",
    "PolishConfig",
    "PolishResult",
    "polish_contigs",
]
