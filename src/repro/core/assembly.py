"""Local contig assembly: the depth-first linear walk of §4.4.

Each rank holds one or more linear components in a local matrix plus the
read sequences behind them.  ELBA uncompresses its DCSC blocks into CSC for
this walk; here the induced block is a :class:`~repro.sparse.LocalCoo`, so
its CSC is the column-sorted view (``IR`` / ``VAL``) plus the column
pointers ``JC`` of :func:`~repro.sparse.spgemm.column_pointers`
(:func:`local_csc`, shared with the batch engine).  Then:

* scan all vertices for unvisited **root vertices** (degree 1, via
  ``JC[i+1] - JC[i]``);
* from each root, walk the chain -- the frontier is always a single vertex
  because degrees are <= 2 by construction -- collecting the edges;
* concatenate the reads' non-overlapping pieces using each edge's
  ``pre``/``post`` cut points, honouring traversal orientation: a read
  entered through its suffix end contributes reverse-complemented bases
  (the generalized ``l[i:j]``, ``i > j`` slice of the paper);
* mark the far root visited so no contig is emitted twice.

Cyclic components (every vertex degree 2) have no root; the paper's
algorithm ignores them, and by default so does this one -- pass
``emit_cycles=True`` to break each cycle at its smallest vertex and emit a
(flagged) circular contig, an extension useful for plasmid-like inputs.

This per-vertex walk is the readable oracle: the pipeline runs the batch
engine of :mod:`~repro.core.batch`, whose property corpus compares
against it (``local_assembly(..., engine="scalar")``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import AssemblyError
from ..kernels import resolve_kernel_tier
from ..seq import dna
from ..seq.readstore import PackedReads
from ..sparse.coo import LocalCoo
from ..sparse.spgemm import column_pointers
from ..strgraph.edgecodec import dst_end_bit, src_end_bit
from .induced import InducedGraph

__all__ = ["Contig", "LocalAssemblyResult", "local_assembly", "local_csc"]


@dataclass
class Contig:
    """One assembled contig.

    ``codes`` is the concatenated sequence; ``read_path`` records the global
    read ids in walk order and ``orientations`` whether each read was
    traversed forward (+1) or reverse-complemented (-1) -- the provenance
    quality metrics need.
    """

    codes: np.ndarray
    read_path: list[int]
    orientations: list[int]
    circular: bool = False
    truncated: bool = False

    @property
    def length(self) -> int:
        return int(self.codes.size)

    @property
    def n_reads(self) -> int:
        return len(self.read_path)

    def sequence(self) -> str:
        return dna.decode(self.codes)


@dataclass
class LocalAssemblyResult:
    """Contigs assembled by one rank, plus diagnostics."""

    contigs: list[Contig] = field(default_factory=list)
    n_roots: int = 0
    n_cycles: int = 0
    n_singletons: int = 0


def _contribution(
    codes: np.ndarray, start: int, stop: int, forward: bool
) -> np.ndarray:
    """Bases a read contributes between two cut points (inclusive).

    ``start``/``stop`` are stored coordinates; ``forward`` is the traversal
    direction.  Backward traversal yields reverse-complemented bases.  An
    empty range (the next overlap swallows the whole remainder) contributes
    nothing.
    """
    if forward:
        if stop < start:
            return np.empty(0, dtype=np.uint8)
        return codes[start : stop + 1]
    if stop > start:
        return np.empty(0, dtype=np.uint8)
    return dna.revcomp(codes[stop : start + 1])


def local_csc(coo: LocalCoo) -> tuple[LocalCoo, np.ndarray, LocalCoo]:
    """The §4.4 CSC of a local block, checked for the walk.

    Returns ``(csc, jc, by_row)``: the column-sorted view, whose ``rows`` /
    ``vals`` are the paper's ``IR`` / ``VAL``; its column pointers ``JC``
    (vertex ``i``'s degree is ``jc[i + 1] - jc[i]``); and the row-sorted
    view, whose row ``u`` holds the payloads of ``u``'s out-edges.  Raises
    :class:`AssemblyError` on a vertex of degree > 2 or on a pattern that
    is not symmetric.
    """
    csc = coo.sorted_by("col")
    jc = column_pointers(csc)
    degrees = np.diff(jc)
    if degrees.size and degrees.max() > 2:
        raise AssemblyError(
            f"local graph has a vertex of degree {int(degrees.max())}; "
            "branch removal must run first"
        )
    by_row = coo.sorted_by("row")
    # the walk reads neighbors from column u but payloads from row u: both
    # views agree only on a pattern-symmetric matrix.  With matching
    # degrees, per-vertex neighbor lists (both ascending) must be equal:
    # the row-major flat cols against the col-major flat rows.
    if not (
        np.array_equal(np.bincount(by_row.rows, minlength=degrees.size), degrees)
        and np.array_equal(by_row.cols, csc.rows)
    ):
        raise AssemblyError(
            "local matrix pattern is not symmetric: every edge needs its "
            "mirror for the walk"
        )
    return csc, jc, by_row


def _edge_payload(csc: LocalCoo, jc: np.ndarray, u: int, v: int):
    """Payload of directed edge (u, v): row u within column v's slice."""
    lo, hi = jc[v], jc[v + 1]
    hit = np.flatnonzero(csc.rows[lo:hi] == u)
    if hit.size != 1:
        raise AssemblyError(f"edge ({u}, {v}) not found in local matrix")
    return csc.vals[lo + int(hit[0])]


def _walk(
    csc: LocalCoo, jc: np.ndarray, start: int, visited: np.ndarray
) -> tuple[list[int], list, bool]:
    """Follow the chain from ``start``; returns (vertices, edges, truncated).

    ``visited`` is updated in place.  The walk ends at the far root, when a
    cycle closes, or -- degenerately -- when no walk-compatible unvisited
    neighbor exists (``truncated``).
    """
    path = [start]
    edges = []
    visited[start] = True
    cur = start
    prev = -1
    entered_bit: int | None = None  # end bit through which cur was entered
    while True:
        neighbors = csc.rows[jc[cur] : jc[cur + 1]]
        nxt = -1
        payload = None
        for cand in neighbors:
            cand = int(cand)
            if cand == prev or visited[cand]:
                continue
            rec = _edge_payload(csc, jc, cur, cand)
            if entered_bit is not None and src_end_bit(int(rec["dir"])) == entered_bit:
                # would exit through the end we entered: not a valid walk
                continue
            nxt, payload = cand, rec
            break
        if nxt < 0:
            # end of chain: root reached, or truncated mid-path
            degree = jc[cur + 1] - jc[cur]
            truncated = degree == 2 and entered_bit is not None and any(
                not visited[int(c)] for c in neighbors
            )
            return path, edges, truncated
        edges.append((cur, nxt, payload))
        visited[nxt] = True
        entered_bit = dst_end_bit(int(payload["dir"]))
        prev, cur = cur, nxt
        path.append(cur)


def _concatenate(
    graph: InducedGraph,
    reads: PackedReads,
    path: list[int],
    edges: list,
    circular: bool,
    truncated: bool,
) -> Contig:
    """Join the walk's reads into one contig via pre/post cut points."""
    pieces: list[np.ndarray] = []
    read_path: list[int] = []
    orientations: list[int] = []

    if not edges:
        raise AssemblyError("a contig walk must contain at least one edge")

    # one vectorized id -> local-index resolution for the whole path (the
    # per-vertex bisect was a scalar hot-path defect)
    path_gids = graph.global_ids[np.asarray(path, dtype=np.int64)]
    path_idx = reads.indices_of(path_gids)

    def codes_of(path_pos: int) -> np.ndarray:
        return reads.codes(int(path_idx[path_pos]))

    # first read: everything up to the first overlap
    first = path[0]
    first_codes = codes_of(0)
    e0 = edges[0][2]
    fwd0 = bool(src_end_bit(int(e0["dir"])))  # exits via suffix => forward
    alpha = 0 if fwd0 else first_codes.size - 1
    pieces.append(_contribution(first_codes, alpha, int(e0["pre"]), fwd0))
    read_path.append(int(graph.global_ids[first]))
    orientations.append(1 if fwd0 else -1)

    # middle reads: from the incoming overlap start to before the outgoing
    for idx in range(1, len(path) - 1):
        vertex = path[idx]
        codes = codes_of(idx)
        e_in = edges[idx - 1][2]
        e_out = edges[idx][2]
        fwd = dst_end_bit(int(e_in["dir"])) == 0  # entered at prefix
        pieces.append(
            _contribution(codes, int(e_in["post"]), int(e_out["pre"]), fwd)
        )
        read_path.append(int(graph.global_ids[vertex]))
        orientations.append(1 if fwd else -1)

    # last read: from the incoming overlap start to its far end
    last = path[-1]
    last_codes = codes_of(len(path) - 1)
    e_last = edges[-1][2]
    fwd_last = dst_end_bit(int(e_last["dir"])) == 0
    beta = last_codes.size - 1 if fwd_last else 0
    pieces.append(
        _contribution(last_codes, int(e_last["post"]), beta, fwd_last)
    )
    read_path.append(int(graph.global_ids[last]))
    orientations.append(1 if fwd_last else -1)

    return Contig(
        codes=np.concatenate(pieces),
        read_path=read_path,
        orientations=orientations,
        circular=circular,
        truncated=truncated,
    )


def local_assembly(
    graph: InducedGraph,
    reads: PackedReads,
    emit_cycles: bool = False,
    engine: str = "batch",
    kernel_tier: str | None = None,
) -> LocalAssemblyResult:
    """Assemble every linear component of one rank's induced subgraph.

    ``engine="batch"`` (the default) routes through the vectorized chain
    extractor of :mod:`~repro.core.batch`; ``engine="scalar"`` runs this
    module's per-vertex walk.  Both produce bit-identical results -- the
    scalar walk is the oracle the batch engine's property corpus compares
    against.  ``kernel_tier`` accepts only ``None`` or ``"numpy"``
    (:func:`~repro.kernels.resolve_kernel_tier`).
    """
    resolve_kernel_tier(kernel_tier)
    if engine not in ("batch", "scalar"):
        raise AssemblyError(f"unknown assembly engine {engine!r}")
    if engine == "batch":
        from .batch import local_assembly_batch

        return local_assembly_batch(graph, reads, emit_cycles=emit_cycles)
    result = LocalAssemblyResult()
    csc, jc, _by_row = local_csc(graph.coo)
    degrees = np.diff(jc)
    visited = np.zeros(graph.n_vertices, dtype=bool)

    # pass 1: linear chains from root vertices
    roots = np.flatnonzero(degrees == 1)
    for root in roots:
        root = int(root)
        if visited[root]:
            continue
        result.n_roots += 1
        path, edges, truncated = _walk(csc, jc, root, visited)
        if edges:
            result.contigs.append(
                _concatenate(graph, reads, path, edges, False, truncated)
            )

    # isolated vertices are not contigs ("at least two sequences")
    result.n_singletons = int((degrees == 0).sum())
    visited |= degrees == 0

    # pass 2: cycles (no root vertex) -- optional extension
    remaining = np.flatnonzero(~visited)
    for vertex in remaining:
        vertex = int(vertex)
        if visited[vertex]:
            continue
        result.n_cycles += 1
        if not emit_cycles:
            # mark the whole cycle visited and skip it, as the paper does
            path, _edges, _ = _walk(csc, jc, vertex, visited)
            continue
        path, edges, _ = _walk(csc, jc, vertex, visited)
        if edges:
            contig = _concatenate(graph, reads, path, edges, True, False)
            contig.circular = True
            result.contigs.append(contig)
    return result
