"""Batched contig generation: the §4.4 traversal vectorized across chains.

The scalar :func:`~repro.core.assembly.local_assembly` walks one chain at a
time, re-scanning the CSC column with ``np.flatnonzero(rows == u)`` for every
candidate step and slicing one read piece per vertex -- the same per-element
Python shape the batched alignment engine (``repro.align.batch``) removed
from the overlap stage.  This module runs the whole stage on arrays:

* **Edge tables** -- the induced block's row-sorted view is flattened once
  into per-vertex slot tables (``nbr``/``dir``/``pre``/``post``, two slots
  per vertex, ``-1``-padded), so a walk step is a pair of gathers instead
  of a column re-scan per candidate.  The degrees and the symmetry check
  come from the same column-pointer CSC the scalar walks
  (:func:`~repro.core.assembly.local_csc`).
* **Component labels** -- a vectorized min-label hook/shortcut loop (the
  local, shared-memory analogue of the LACC rounds in
  :mod:`~repro.core.ccomp`) groups vertices into chains and cycles.
* **Lockstep chain extraction** -- every round starts at most one walk per
  component (the scalar's visited-array semantics interact only *within* a
  component, so one-walk-per-component rounds replay the sequential order
  exactly) and advances all live walks one step per iteration with pure
  array arithmetic.
* **Batched concatenation** -- cut points for every path vertex of every
  walk are derived in one pass; all read pieces are pulled out of the packed
  buffer by a single strided gather (:func:`~repro.util.gather_pieces`,
  reverse-complement folded in), and each
  contig is one slice of the result.

The output is **bit-identical** to the scalar reference -- same contigs in
the same order, same ``read_path``/``orientations``/``circular``/
``truncated`` flags, same ``n_roots``/``n_cycles``/``n_singletons``
diagnostics -- which the property corpus in ``tests/test_contig_batch.py``
enforces.  The scalar walk stays as that corpus's oracle; this module is
the one fast path, the one the ``LocalAssembly`` superstep runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..seq.readstore import PackedReads
from ..sparse.coo import LocalCoo
from ..util import cumsum0, gather_pieces
from .assembly import Contig, LocalAssemblyResult, local_csc
from .induced import InducedGraph

__all__ = [
    "VertexEdgeTable",
    "BatchWalks",
    "build_edge_table",
    "component_labels",
    "assemble_ranks",
    "local_assembly_batch",
]


@dataclass
class VertexEdgeTable:
    """Per-vertex out-edge slots of a degree-<=2 local graph.

    Slot arrays are ``(nv, 2)``; slot 0 holds the smaller neighbor (the
    scalar walk's candidate order).  Absent slots carry ``nbr == -1`` and
    zeroed payload fields.
    """

    nbr: np.ndarray
    dir: np.ndarray
    pre: np.ndarray
    post: np.ndarray
    degrees: np.ndarray


def build_edge_table(coo: LocalCoo) -> VertexEdgeTable:
    """Flatten a local degree-<=2 block into per-vertex out-edge slot tables.

    The payload of directed edge ``(u, v)`` lives at row ``u`` of column
    ``v`` (exactly what the scalar ``_edge_payload`` looks up), so the
    out-edges of ``u`` are row ``u`` of the row-sorted view, in slot
    order.  :func:`~repro.core.assembly.local_csc` checks the degrees and
    the pattern symmetry; on a symmetric pattern row ``u`` starts at
    ``jc[u]``.
    """
    _csc, jc, by_row = local_csc(coo)
    nv = jc.size - 1
    srows, svals = by_row.rows, by_row.vals
    slot = np.arange(srows.size, dtype=np.int64) - jc[srows]
    nbr = np.full((nv, 2), -1, dtype=np.int64)
    edir = np.zeros((nv, 2), dtype=np.int64)
    epre = np.zeros((nv, 2), dtype=np.int64)
    epost = np.zeros((nv, 2), dtype=np.int64)
    nbr[srows, slot] = by_row.cols
    edir[srows, slot] = svals["dir"].astype(np.int64)
    epre[srows, slot] = svals["pre"].astype(np.int64)
    epost[srows, slot] = svals["post"].astype(np.int64)
    return VertexEdgeTable(
        nbr=nbr, dir=edir, pre=epre, post=epost, degrees=np.diff(jc),
    )


def component_labels(nbr: np.ndarray, nv: int) -> np.ndarray:
    """Min-vertex component label per vertex, fully vectorized.

    Alternates a neighbor-min hook with pointer-jumping shortcuts until a
    fixpoint -- O(log n) rounds on the path/cycle components branch removal
    leaves behind.
    """
    lab = np.arange(nv, dtype=np.int64)
    if nv == 0:
        return lab
    i0 = np.flatnonzero(nbr[:, 0] >= 0)
    j0 = nbr[i0, 0]
    i1 = np.flatnonzero(nbr[:, 1] >= 0)
    j1 = nbr[i1, 1]
    while True:
        m = lab.copy()
        m[i0] = np.minimum(m[i0], lab[j0])
        m[i1] = np.minimum(m[i1], lab[j1])
        while True:
            m2 = m[m]
            if np.array_equal(m2, m):
                break
            m = m2
        if np.array_equal(m, lab):
            return lab
        lab = m


@dataclass
class BatchWalks:
    """All walks of one assembly pass, flattened walk-major.

    ``n_edges[w]`` edges of walk ``w`` occupy the slice
    ``[edge_offsets[w], edge_offsets[w+1])`` of the step arrays; the walk's
    path is ``start[w]`` followed by its ``dst`` sequence.
    """

    start: np.ndarray
    truncated: np.ndarray
    n_edges: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    dir: np.ndarray
    pre: np.ndarray
    post: np.ndarray

    @property
    def edge_offsets(self) -> np.ndarray:
        return cumsum0(self.n_edges)

    @property
    def count(self) -> int:
        return int(self.start.size)


_EMPTY = np.empty(0, dtype=np.int64)


class _WalkTables:
    """Flat per-slot views of a :class:`VertexEdgeTable` plus precomputed
    candidate masks, built once per assembly call so every lockstep step is
    a handful of 1D gathers."""

    __slots__ = (
        "n0", "n1", "c0", "c1", "has0", "has1",
        "sb0", "sb1", "d0", "d1", "pre0", "pre1", "post0", "post1", "deg",
    )

    def __init__(self, t: VertexEdgeTable) -> None:
        self.n0 = np.ascontiguousarray(t.nbr[:, 0])
        self.n1 = np.ascontiguousarray(t.nbr[:, 1])
        self.c0 = np.maximum(self.n0, 0)
        self.c1 = np.maximum(self.n1, 0)
        self.has0 = self.n0 >= 0
        self.has1 = self.n1 >= 0
        self.d0 = np.ascontiguousarray(t.dir[:, 0])
        self.d1 = np.ascontiguousarray(t.dir[:, 1])
        self.sb0 = (self.d0 >> 1) & 1
        self.sb1 = (self.d1 >> 1) & 1
        self.pre0 = np.ascontiguousarray(t.pre[:, 0])
        self.pre1 = np.ascontiguousarray(t.pre[:, 1])
        self.post0 = np.ascontiguousarray(t.post[:, 0])
        self.post1 = np.ascontiguousarray(t.post[:, 1])
        self.deg = t.degrees


def _lockstep_walk(
    t: _WalkTables, visited: np.ndarray, starts: np.ndarray,
) -> BatchWalks:
    """Advance one walk per start in lockstep until all terminate.

    ``starts`` must contain at most one vertex per component: walks then
    never contend for a vertex, and the shared ``visited`` array (updated in
    place) behaves exactly as under the scalar's sequential order.
    """
    K = starts.size
    cur = starts.astype(np.int64, copy=True)
    entered = np.full(K, -1, dtype=np.int64)
    truncated = np.zeros(K, dtype=bool)
    visited[starts] = True
    active = np.arange(K, dtype=np.int64)
    chains, srcs, dsts, dirs, pres, posts = [], [], [], [], [], []
    while active.size:
        c = cur[active]
        e = entered[active]
        no_bit = e < 0
        # candidate test in slot order: unvisited (which subsumes the
        # scalar's prev check) and walk-compatible once an end bit is known
        ok0 = t.has0[c] & ~visited[t.c0[c]] & (no_bit | (t.sb0[c] != e))
        ok1 = t.has1[c] & ~visited[t.c1[c]] & (no_bit | (t.sb1[c] != e))
        adv = ok0 | ok1
        take1 = ok1 & ~ok0
        if not adv.all():
            # ending walks: truncated iff a degree-2 vertex entered through
            # one end still has an unvisited neighbor it could not take
            endm = ~adv
            endc = c[endm]
            un0 = t.has0[endc] & ~visited[t.c0[endc]]
            un1 = t.has1[endc] & ~visited[t.c1[endc]]
            truncated[active[endm]] = (
                (t.deg[endc] == 2) & ~no_bit[endm] & (un0 | un1)
            )
            ai = active[adv]
            ca = c[adv]
            t1 = take1[adv]
        else:
            ai = active
            ca = c
            t1 = take1
        if ai.size:
            step_dst = np.where(t1, t.n1[ca], t.n0[ca])
            step_dir = np.where(t1, t.d1[ca], t.d0[ca])
            chains.append(ai)
            srcs.append(ca)
            dsts.append(step_dst)
            dirs.append(step_dir)
            pres.append(np.where(t1, t.pre1[ca], t.pre0[ca]))
            posts.append(np.where(t1, t.post1[ca], t.post0[ca]))
            visited[step_dst] = True
            entered[ai] = step_dir & 1
            cur[ai] = step_dst
        active = ai
    if chains:
        chain = np.concatenate(chains)
        # steps were appended in time order: a stable sort by walk id turns
        # them into contiguous walk-major runs with step order preserved
        order = np.argsort(chain, kind="stable")
        n_edges = np.bincount(chain, minlength=K)
        return BatchWalks(
            start=starts.astype(np.int64, copy=True),
            truncated=truncated,
            n_edges=n_edges,
            src=np.concatenate(srcs)[order],
            dst=np.concatenate(dsts)[order],
            dir=np.concatenate(dirs)[order],
            pre=np.concatenate(pres)[order],
            post=np.concatenate(posts)[order],
        )
    return BatchWalks(
        start=starts.astype(np.int64, copy=True),
        truncated=truncated,
        n_edges=np.zeros(K, dtype=np.int64),
        src=_EMPTY, dst=_EMPTY, dir=_EMPTY, pre=_EMPTY, post=_EMPTY,
    )


def _merge_walks(rounds: list[BatchWalks]) -> BatchWalks:
    """Merge per-round walks, reordered by start vertex, empties dropped.

    The scalar emits contigs in ascending start order within each pass
    (roots ascending in pass 1, the ``remaining`` scan in pass 2), so the
    merged pass must be sorted by ``start`` -- round-major order is not
    enough when a component's second walk starts below another component's
    first.
    """
    rounds = [r for r in rounds if r.count]
    if not rounds:
        return BatchWalks(
            start=_EMPTY, truncated=np.empty(0, dtype=bool),
            n_edges=_EMPTY,
            src=_EMPTY, dst=_EMPTY, dir=_EMPTY, pre=_EMPTY, post=_EMPTY,
        )
    if len(rounds) == 1 and (rounds[0].n_edges > 0).all():
        # common case: one round, starts already ascending, nothing empty
        return rounds[0]
    start = np.concatenate([r.start for r in rounds])
    truncated = np.concatenate([r.truncated for r in rounds])
    n_edges = np.concatenate([r.n_edges for r in rounds])
    src = np.concatenate([r.src for r in rounds])
    dst = np.concatenate([r.dst for r in rounds])
    edir = np.concatenate([r.dir for r in rounds])
    pre = np.concatenate([r.pre for r in rounds])
    post = np.concatenate([r.post for r in rounds])
    keep = np.flatnonzero(n_edges > 0)
    perm = keep[np.argsort(start[keep], kind="stable")]
    old_off = cumsum0(n_edges)
    kept_edges = n_edges[perm]
    new_off = cumsum0(kept_edges)
    total = int(new_off[-1])
    # segment gather: element j of the reordered flat arrays reads
    # old_off[perm[w]] + (j - new_off[w]) for its walk w
    idx = (
        np.arange(total, dtype=np.int64)
        - np.repeat(new_off[:-1], kept_edges)
        + np.repeat(old_off[perm], kept_edges)
    )
    return BatchWalks(
        start=start[perm],
        truncated=truncated[perm],
        n_edges=kept_edges,
        src=src[idx], dst=dst[idx], dir=edir[idx],
        pre=pre[idx], post=post[idx],
    )


def _concatenate_batch(
    global_ids: np.ndarray,
    read_keys: np.ndarray,
    reads: PackedReads,
    walks: BatchWalks,
    circular: bool,
):
    """Batched ``_concatenate``: every walk's contig in one strided gather.

    Vertex ``v`` is read ``global_ids[v]``, stored in ``reads`` under the
    id ``read_keys[v]``.
    """
    W = walks.count
    if W == 0:
        return []
    m = walks.n_edges
    nverts = m + 1
    voff = cumsum0(nverts)
    total_v = int(voff[-1])
    # path vertices, walk-major: start then the dst sequence
    vert = np.empty(total_v, dtype=np.int64)
    head = np.zeros(total_v, dtype=bool)
    head[voff[:-1]] = True
    vert[head] = walks.start
    vert[~head] = walks.dst
    walk_of = np.repeat(np.arange(W, dtype=np.int64), nverts)
    pos = np.arange(total_v, dtype=np.int64) - np.repeat(voff[:-1], nverts)
    is_first = pos == 0
    is_last = pos == m[walk_of]
    eoff = walks.edge_offsets
    in_edge = np.clip(eoff[walk_of] + pos - 1, 0, max(walks.src.size - 1, 0))
    out_edge = np.clip(eoff[walk_of] + pos, 0, max(walks.src.size - 1, 0))
    in_dir = walks.dir[in_edge]
    out_dir = walks.dir[out_edge]
    # traversal direction: the first read exits forward via its suffix end,
    # every later read enters forward via its prefix end
    fwd = np.where(is_first, ((out_dir >> 1) & 1) == 1, (in_dir & 1) == 0)

    # one vectorized id -> local-index resolution for every path vertex
    gids = global_ids[vert]
    lidx = reads.indices_of(read_keys[vert])
    lo = reads.offsets[lidx]
    rlen = reads.offsets[lidx + 1] - lo

    # inclusive cut points in stored coordinates (the generalized l[i:j])
    a = np.where(
        is_first,
        np.where(fwd, np.int64(0), rlen - 1),
        walks.post[in_edge],
    )
    b = np.where(
        is_last,
        np.where(fwd, rlen - 1, np.int64(0)),
        walks.pre[out_edge],
    )
    plen = np.where(fwd, b - a + 1, a - b + 1)
    np.maximum(plen, 0, out=plen)

    # strided piece gather with reverse complement folded in: backward
    # traversals read with a descending stride and complement via XOR
    # (3 - c == c ^ 3 on the 2-bit alphabet)
    sign = np.where(fwd, np.int64(1), np.int64(-1))
    codes, _coff = gather_pieces(reads.buffer, lo + a, plen, sign)
    flip = np.repeat(np.where(fwd, np.uint8(0), np.uint8(3)), plen)
    np.bitwise_xor(codes, flip, out=codes)

    # per-walk character ranges and provenance
    walk_chars = np.add.reduceat(plen, voff[:-1]) if total_v else _EMPTY
    woff = cumsum0(walk_chars).tolist()
    voff = voff.tolist()
    gids = gids.tolist()
    orient = np.where(fwd, 1, -1).tolist()
    truncated = (walks.truncated & (not circular)).tolist()
    return [
        Contig(
            codes=codes[woff[w] : woff[w + 1]].copy(),
            read_path=gids[voff[w] : voff[w + 1]],
            orientations=orient[voff[w] : voff[w + 1]],
            circular=circular,
            truncated=truncated[w],
        )
        for w in range(W)
    ]


class _Stack(NamedTuple):
    """Every rank's induced subgraph as one block-diagonal graph.

    Rank ``r``'s vertices are ``offsets[r]:offsets[r + 1]``; ``reads``
    holds every rank's shard in rank order, vertex ``v``'s read under the
    key ``read_keys[v]`` (the read id itself when there is one rank).
    """

    coo: LocalCoo
    global_ids: np.ndarray
    offsets: np.ndarray
    reads: PackedReads
    read_keys: np.ndarray


def _stack(graphs: Sequence[InducedGraph], shards: Sequence[PackedReads]) -> _Stack:
    """Stack the ranks' graphs with vertex offsets, and their shards."""
    offsets = cumsum0([g.n_vertices for g in graphs])
    if len(graphs) == 1:
        (graph,), (reads,) = graphs, shards
        return _Stack(graph.coo, graph.global_ids, offsets, reads, graph.global_ids)
    shift = np.repeat(offsets[:-1], [g.coo.nnz for g in graphs])
    n = int(offsets[-1])
    coo = LocalCoo(
        (n, n),
        np.concatenate([g.coo.rows for g in graphs]) + shift,
        np.concatenate([g.coo.cols for g in graphs]) + shift,
        np.concatenate([g.coo.vals for g in graphs]),
    )
    global_ids = np.concatenate([g.global_ids for g in graphs])
    # a read's key is (rank, id) fused: ascending over the rank-major
    # shards, since each shard is id-sorted
    span = 1 + max(
        [int(ids.max()) for ids in [global_ids] + [s.ids for s in shards] if ids.size],
        default=0,
    )
    ranks = np.arange(len(graphs), dtype=np.int64) * span
    buffers = [s.buffer for s in shards]
    reads = PackedReads(
        np.concatenate(buffers),
        np.append(
            np.concatenate([s.offsets[:-1] for s in shards])
            + np.repeat(cumsum0([b.size for b in buffers])[:-1], [s.count for s in shards]),
            sum(b.size for b in buffers),
        ),
        np.concatenate([s.ids for s in shards]) + np.repeat(ranks, [s.count for s in shards]),
    )
    read_keys = global_ids + np.repeat(ranks, np.diff(offsets))
    return _Stack(coo, global_ids, offsets, reads, read_keys)


def assemble_ranks(
    graphs: Sequence[InducedGraph],
    shards: Sequence[PackedReads],
    emit_cycles: bool = False,
) -> tuple[list[LocalAssemblyResult], list[tuple[float, np.ndarray]]]:
    """The batch traversal over every rank's induced subgraph at once.

    Rank ``r`` walks ``graphs[r]`` over the reads of ``shards[r]``; the
    graphs are stacked block-diagonally, so components never span ranks
    and each rank's contigs and diagnostics equal its own
    :func:`local_assembly_batch` (and so the scalar walk).  Returns one
    :class:`~repro.core.assembly.LocalAssemblyResult` per rank and, per
    advance round, its wall seconds and the number of walks each rank
    started in it.
    """
    P = len(graphs)
    stack = _stack(graphs, shards)
    table = build_edge_table(stack.coo)
    degrees = table.degrees
    nv = degrees.size
    rank_of = np.repeat(np.arange(P), np.diff(stack.offsets))
    labels = component_labels(table.nbr, nv)
    walk_tables = _WalkTables(table)
    visited = np.zeros(nv, dtype=bool)
    rounds: list[tuple[float, np.ndarray]] = []

    def walk(starts: np.ndarray) -> BatchWalks:
        t0 = time.perf_counter()
        walks = _lockstep_walk(walk_tables, visited, starts)
        rounds.append(
            (time.perf_counter() - t0, np.bincount(rank_of[starts], minlength=P))
        )
        return walks

    def concatenate(walks: list[BatchWalks], circular: bool) -> list[list[Contig]]:
        """Per rank, the contigs of one pass in ascending start order."""
        merged = _merge_walks(walks)
        contigs = _concatenate_batch(
            stack.global_ids, stack.read_keys, stack.reads, merged, circular
        )
        cuts = np.searchsorted(merged.start, stack.offsets).tolist()
        return [contigs[a:b] for a, b in zip(cuts[:-1], cuts[1:])]

    # pass 1: linear chains, peeled from every root at once.  Each round
    # starts at the smallest unvisited root per component (components have
    # at most two roots, so this loop runs at most twice).
    rounds1: list[BatchWalks] = []
    roots = np.flatnonzero(degrees == 1)
    while True:
        pending = roots[~visited[roots]]
        if pending.size == 0:
            break
        _, first = np.unique(labels[pending], return_index=True)
        rounds1.append(walk(np.sort(pending[first])))
    n_roots = sum((starts for _, starts in rounds), np.zeros(P, np.int64))
    chains = concatenate(rounds1, False)

    # isolated vertices are not contigs ("at least two sequences")
    n_singletons = np.bincount(rank_of[degrees == 0], minlength=P)
    visited |= degrees == 0

    # pass 2: cycles (and stranded middles of doubly-truncated chains) --
    # each round walks from the smallest unvisited vertex per component
    rounds2: list[BatchWalks] = []
    while True:
        unv = np.flatnonzero(~visited)
        if unv.size == 0:
            break
        _, first = np.unique(labels[unv], return_index=True)
        rounds2.append(walk(np.sort(unv[first])))
    n_cycles = sum((starts for _, starts in rounds[len(rounds1):]), np.zeros(P, np.int64))
    cycles = concatenate(rounds2, True) if emit_cycles else [[]] * P

    results = [
        LocalAssemblyResult(
            contigs=chains[r] + cycles[r],
            n_roots=int(n_roots[r]),
            n_cycles=int(n_cycles[r]),
            n_singletons=int(n_singletons[r]),
        )
        for r in range(P)
    ]
    return results, rounds


def local_assembly_batch(
    graph: InducedGraph,
    reads: PackedReads,
    emit_cycles: bool = False,
) -> LocalAssemblyResult:
    """Array-level :func:`~repro.core.assembly.local_assembly`: the
    one-rank case of :func:`assemble_ranks`.

    Bit-identical to the scalar walk: same contigs in the same order, same
    flags and diagnostics.
    """
    (result,), _rounds = assemble_ranks([graph], [reads], emit_cycles)
    return result
