"""Contig scaffolding by recursive sparse-matrix OLC (paper §7 future work).

Each scaffold **round** is one run of the main pipeline with the current
contig set as its read set (:meth:`ScaffoldConfig.pipeline_config` maps the
scaffold knobs onto a :class:`~repro.pipeline.config.PipelineConfig`):
distributed k-mer counting over the contigs, ``C = A . A^T`` candidate
detection, x-drop alignment with containment pruning, transitive reduction
and the Algorithm 2 chain walk.  Chains of two or more contigs become merged
sequences; contained contigs are absorbed into their container; untouched
contigs pass through unchanged.  Rounds repeat until a fixpoint (no chain
emitted and no contig absorbed) or ``max_rounds``.

Why contig ends still overlap: branch masking (§4.2) clears *all* edges of
a branching vertex, splitting its neighborhood into separate chains even
when the neighbors also overlap each other directly -- that direct edge was
either transitively reduced away earlier or pruned with the branch.  The
sequences therefore still share the overlap; a fresh overlap pass over the
contig set finds it again and joins the chains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from ..core.assembly import Contig
from ..errors import PipelineError
from ..mpi.costmodel import MachineModel
from ..pipeline import Pipeline, PipelineConfig

__all__ = [
    "ScaffoldConfig",
    "ScaffoldRoundStats",
    "ScaffoldResult",
    "scaffold_contigs",
    "gap_fill",
]


@dataclass(frozen=True)
class ScaffoldConfig:
    """Knobs of the scaffolding extension.

    ``k`` defaults higher than the read-phase k because contigs are long and
    nearly error-free after assembly, so long anchors are both reliable and
    more repeat-specific.  ``min_overlap`` guards against spurious joins on
    short shared repeats.  ``nprocs`` sizes the simulated grid of the
    scaffold rounds (a perfect square, like the main pipeline).
    """

    k: int = 25
    nprocs: int = 1
    machine: str | MachineModel = "cori-haswell"
    min_shared_kmers: int = 1
    xdrop: int = 15
    align_mode: str = "diag"
    min_score: int = 0
    min_overlap: int = 50
    end_margin: int = 25
    tr_fuzz: int = 100
    tr_max_rounds: int = 8
    max_rounds: int = 4
    min_contig_reads: int = 2

    def pipeline_config(self) -> PipelineConfig:
        """The configuration of one scaffold round's pipeline run.

        Every field but ``max_rounds`` is a :class:`PipelineConfig` field of
        the same name; the rest keep their defaults.  In particular the
        reliable filter keeps multiplicity >= 2 with no upper bound: k-mers
        unique to one contig cannot seed a contig-contig overlap (repeats
        get past it; the alignment prunes them).
        """
        return PipelineConfig(**{
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "max_rounds"
        })

    def validate(self) -> None:
        if self.max_rounds < 1:
            raise PipelineError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )
        self.pipeline_config().validate()


@dataclass
class ScaffoldRoundStats:
    """What one scaffold round did to the contig set."""

    round_index: int
    n_input: int
    n_chains: int
    n_absorbed: int
    n_passthrough: int
    n_output: int
    longest_in: int
    longest_out: int

    @property
    def merged_anything(self) -> bool:
        return self.n_chains > 0 or self.n_absorbed > 0


@dataclass
class ScaffoldResult:
    """Final scaffolded sequences plus per-round diagnostics."""

    contigs: list[np.ndarray]
    rounds: list[ScaffoldRoundStats] = field(default_factory=list)
    #: sum of the rounds' ``PipelineResult.modeled_total`` (each round runs
    #: in its own simulated world)
    modeled_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def count(self) -> int:
        return len(self.contigs)

    def lengths(self) -> np.ndarray:
        return np.array([c.size for c in self.contigs], dtype=np.int64)

    def longest(self) -> int:
        return int(self.lengths().max()) if self.contigs else 0

    def total_bases(self) -> int:
        return int(self.lengths().sum()) if self.contigs else 0


def _as_code_arrays(contigs) -> list[np.ndarray]:
    """Accept ``Contig`` objects or raw uint8 code arrays."""
    out = []
    for c in contigs:
        codes = c.codes if isinstance(c, Contig) else np.asarray(c, dtype=np.uint8)
        out.append(codes)
    return out


def _merge_round(
    result: ScaffoldResult,
    seqs: list[np.ndarray],
    cfg: ScaffoldConfig,
    n_contigs: int,
) -> ScaffoldRoundStats:
    """One merge round: one pipeline run over ``seqs``.

    The first ``n_contigs`` sequences are contigs, the rest gap-fill reads.
    A chain joins the output only when it contains a contig, and only
    untouched contigs pass through -- reads never do.  Sets
    ``result.contigs`` to the round's output and records the round.
    """
    run = Pipeline.default().run(seqs, cfg.pipeline_config())
    used: set[int] = set(int(i) for i in run.align_stats.contained_ids)
    merged: list[np.ndarray] = []
    for chain in run.contigs.contigs:
        members = [int(g) for g in chain.read_path]
        # chains of gap-fill reads alone re-do the pipeline's job, badly
        if any(m < n_contigs for m in members):
            merged.append(chain.codes)
            used.update(members)
    passthrough = [s for i, s in enumerate(seqs[:n_contigs]) if i not in used]
    result.contigs = merged + passthrough
    stats = ScaffoldRoundStats(
        round_index=result.n_rounds,
        n_input=len(seqs),
        n_chains=len(merged),
        n_absorbed=int(run.align_stats.contained_ids.size),
        n_passthrough=len(passthrough),
        n_output=len(result.contigs),
        longest_in=max((s.size for s in seqs), default=0),
        longest_out=max((s.size for s in result.contigs), default=0),
    )
    result.rounds.append(stats)
    result.modeled_seconds += run.modeled_total
    return stats


def _merge_to_fixpoint(result: ScaffoldResult, cfg: ScaffoldConfig) -> None:
    """Merge rounds until nothing merges, one sequence is left, or
    ``cfg.max_rounds`` rounds have run."""
    for _ in range(cfg.max_rounds):
        if len(result.contigs) < 2:
            return
        stats = _merge_round(result, result.contigs, cfg, len(result.contigs))
        if not stats.merged_anything:
            return


def scaffold_contigs(
    contigs,
    config: ScaffoldConfig | None = None,
) -> ScaffoldResult:
    """Iteratively merge a contig set into longer sequences.

    Parameters
    ----------
    contigs:
        The assembly to scaffold: a list of :class:`~repro.core.assembly.
        Contig` objects (e.g. ``PipelineResult.contigs.contigs``) or raw
        uint8 code arrays.
    config:
        Scaffold knobs; defaults follow :class:`ScaffoldConfig`.

    Returns
    -------
    ScaffoldResult
        The scaffolded sequences, one :class:`ScaffoldRoundStats` per round
        executed, and the modeled distributed time of all rounds combined.
    """
    cfg = config or ScaffoldConfig()
    cfg.validate()
    t0 = time.perf_counter()
    result = ScaffoldResult(contigs=_as_code_arrays(contigs))
    _merge_to_fixpoint(result, cfg)
    result.wall_seconds = time.perf_counter() - t0
    return result


def _bridge_candidates(
    contig_seqs: list[np.ndarray],
    read_list: list[np.ndarray],
    k: int,
    slack: int = 10,
    min_anchors: int = 2,
) -> list[np.ndarray]:
    """Select one gap-bridging read per contig-end slot.

    Each read is anchor-mapped (unique contig k-mers, as in polishing) to
    every contig.  Reads interior to some contig carry no new sequence.
    The rest *attach* to contig ends: jutting before a contig's start
    claims its left slot, jutting past the end claims its right slot; a
    read attaching to two ends of different contigs is a gap **bridge**.

    Exactly one read is kept per slot, bridges first (largest anchored
    support wins), then one-ended extenders for slots still free.  The
    selection matters twice over: redundant near-identical candidates
    would mark each other contained in the overlap round -- deleting their
    contig dovetails with them -- and multiple survivors on one contig end
    would create a branch vertex that masking cuts right back out.
    """
    from ..quality.metrics import _unique_anchor_index
    from .polish import _anchor_hits

    indexes = [_unique_anchor_index(c, k) for c in contig_seqs]
    bridges: list[tuple[int, tuple, np.ndarray]] = []
    extenders: list[tuple[int, tuple, np.ndarray]] = []
    for read in read_list:
        attachments: list[tuple[int, str]] = []
        support = 0
        interior = False
        for ci, (ctg, (vals, pos)) in enumerate(zip(contig_seqs, indexes)):
            read_pos, contig_pos, _strand = _anchor_hits(read, k, vals, pos)
            if read_pos.size < min_anchors:
                continue
            est_start = int((contig_pos - read_pos).min())
            est_end = int((contig_pos + (read.size - read_pos)).max())
            juts_left = est_start < -slack
            juts_right = est_end > ctg.size + slack
            if not (juts_left or juts_right):
                interior = True
                break
            if juts_left:
                attachments.append((ci, "L"))
            if juts_right:
                attachments.append((ci, "R"))
            support += int(read_pos.size)
        if interior or not attachments:
            continue
        slots = tuple(sorted(set(attachments)))
        entry = (support, slots, read)
        if len(slots) >= 2:
            bridges.append(entry)
        else:
            extenders.append(entry)

    taken: set[tuple[int, str]] = set()
    selected: list[np.ndarray] = []
    for support, slots, read in sorted(
        bridges, key=lambda e: -e[0]
    ) + sorted(extenders, key=lambda e: -e[0]):
        if any(s in taken for s in slots):
            continue
        taken.update(slots)
        selected.append(read)
    return selected


def gap_fill(
    contigs,
    reads,
    config: ScaffoldConfig | None = None,
) -> ScaffoldResult:
    """Bridge contig gaps with unplaced reads, then scaffold to a fixpoint.

    Branch masking (§4.2) clears every edge of a branching vertex, so the
    masked read's bases end up in *no* contig: adjacent contigs are
    separated by exactly the gap that read covered.  This extension first
    selects the **bridge candidates** -- reads that are not interior to
    any contig -- then feeds contigs plus candidates through one overlap
    round: a read that dovetails two contig ends forms a
    contig-read-contig chain that closes the gap; candidates contained in
    other candidates are absorbed.  Chains made purely of reads are
    discarded (the pipeline, not the gap filler, does primary assembly).
    The bridged output is then scaffolded to a fixpoint.

    Parameters
    ----------
    contigs:
        Assembled contigs (:class:`~repro.core.assembly.Contig` or raw
        uint8 arrays).
    reads:
        The full read collection (list of code arrays, or an object with a
        ``reads`` attribute such as a ReadSet); no provenance is required.
    config:
        Scaffold knobs shared with :func:`scaffold_contigs`.
    """
    cfg = config or ScaffoldConfig()
    cfg.validate()
    t0 = time.perf_counter()
    contig_seqs = _as_code_arrays(contigs)
    read_list = [
        np.asarray(r, dtype=np.uint8) for r in getattr(reads, "reads", reads)
    ]
    result = ScaffoldResult(contigs=contig_seqs)
    if contig_seqs and read_list:
        bridges = _bridge_candidates(contig_seqs, read_list, min(cfg.k, 15))
        _merge_round(result, contig_seqs + bridges, cfg, len(contig_seqs))
    _merge_to_fixpoint(result, cfg)
    result.wall_seconds = time.perf_counter() - t0
    return result
