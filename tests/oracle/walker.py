"""Serial string-graph walker of the oracle assembler.

Takes a per-read adjacency of directed edges (with
:class:`~repro.align.classify.EdgeFields` payloads), masks branch vertices,
and walks the remaining linear chains -- the single-process counterpart of
:mod:`repro.core.assembly` with the same pre/post concatenation semantics.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.align.classify import EdgeFields
from repro.seq import dna
from repro.strgraph.edgecodec import dst_end_bit, src_end_bit

__all__ = ["SerialGraph", "walk_contigs"]


class SerialGraph:
    """Directed edge map ``u -> {v: EdgeFields}`` over read ids."""

    def __init__(self) -> None:
        self.adj: dict[int, dict[int, EdgeFields]] = defaultdict(dict)

    def add_edge(self, u: int, v: int, fields: EdgeFields) -> None:
        self.adj[u][v] = fields

    def remove_vertex(self, u: int) -> None:
        for v in list(self.adj.get(u, ())):
            self.adj[v].pop(u, None)
        self.adj.pop(u, None)

    def degree(self, u: int) -> int:
        return len(self.adj.get(u, ()))

    def vertices(self) -> list[int]:
        return sorted(self.adj.keys())

    def mask_branches(self, threshold: int = 3) -> int:
        """Remove all vertices of degree >= threshold; returns how many."""
        branches = [u for u in self.vertices() if self.degree(u) >= threshold]
        for u in branches:
            self.remove_vertex(u)
        return len(branches)


def _contribution(codes: np.ndarray, start: int, stop: int, forward: bool) -> np.ndarray:
    if forward:
        if stop < start:
            return np.empty(0, dtype=np.uint8)
        return codes[start : stop + 1]
    if stop > start:
        return np.empty(0, dtype=np.uint8)
    return dna.revcomp(codes[stop : start + 1])


def walk_contigs(
    graph: SerialGraph, reads: list[np.ndarray], min_reads: int = 2
) -> list[np.ndarray]:
    """Assemble every linear chain of the graph into a contig sequence."""
    visited: set[int] = set()
    contigs: list[np.ndarray] = []
    roots = [u for u in graph.vertices() if graph.degree(u) == 1]
    for root in roots:
        if root in visited:
            continue
        path = [root]
        edges: list[EdgeFields] = []
        visited.add(root)
        cur = root
        entered: int | None = None
        while True:
            nxt = -1
            payload = None
            for cand, fields in graph.adj.get(cur, {}).items():
                if cand in visited:
                    continue
                if entered is not None and src_end_bit(fields.direction) == entered:
                    continue
                nxt, payload = cand, fields
                break
            if nxt < 0:
                break
            edges.append(payload)
            visited.add(nxt)
            entered = dst_end_bit(payload.direction)
            path.append(nxt)
            cur = nxt
        if len(path) < min_reads or not edges:
            continue
        pieces = []
        first_codes = reads[path[0]]
        fwd0 = bool(src_end_bit(edges[0].direction))
        alpha = 0 if fwd0 else first_codes.size - 1
        pieces.append(_contribution(first_codes, alpha, edges[0].pre, fwd0))
        for idx in range(1, len(path) - 1):
            codes = reads[path[idx]]
            e_in, e_out = edges[idx - 1], edges[idx]
            fwd = dst_end_bit(e_in.direction) == 0
            pieces.append(_contribution(codes, e_in.post, e_out.pre, fwd))
        last_codes = reads[path[-1]]
        fwd_last = dst_end_bit(edges[-1].direction) == 0
        beta = last_codes.size - 1 if fwd_last else 0
        pieces.append(_contribution(last_codes, edges[-1].post, beta, fwd_last))
        contigs.append(np.concatenate(pieces))
    return contigs
