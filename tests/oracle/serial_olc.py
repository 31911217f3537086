"""Serial OLC assembler ("miniasm-like"): the oracle for the contig set.

A single-process implementation of the same
overlap -> transitive-reduction -> contig paradigm, built on hash maps
instead of distributed sparse matrices.  The distributed pipeline must
produce its contig set (up to order and strand) at every grid size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.strgraph.edgecodec import compose_direction, walk_compatible
from .overlap_index import find_overlaps
from .walker import SerialGraph, walk_contigs

__all__ = ["SerialAssemblyResult", "assemble_serial_olc"]


@dataclass
class SerialAssemblyResult:
    """Contigs plus timing of one serial run."""

    contigs: list[np.ndarray]
    wall_seconds: float
    n_overlaps: int = 0
    n_contained: int = 0
    n_branches: int = 0
    stage_seconds: dict = field(default_factory=dict)


def _transitive_reduce(graph: SerialGraph, fuzz: int = 100) -> int:
    """Serial Myers-style transitive reduction over the edge dicts."""
    removed_total = 0
    changed = True
    while changed:
        changed = False
        to_remove: list[tuple[int, int]] = []
        for u, nbrs in graph.adj.items():
            for v, euv in nbrs.items():
                # look for a two-hop u -> k -> v walk no longer than (u, v)
                for k_mid, euk in nbrs.items():
                    if k_mid == v:
                        continue
                    ekv = graph.adj.get(k_mid, {}).get(v)
                    if ekv is None:
                        continue
                    if not walk_compatible(euk.direction, ekv.direction):
                        continue
                    if compose_direction(euk.direction, ekv.direction) != euv.direction:
                        continue
                    if euk.suffix + ekv.suffix <= euv.suffix + fuzz:
                        to_remove.append((u, v))
                        break
        if to_remove:
            changed = True
            removed_total += len(to_remove)
            sym = set(to_remove) | {(v, u) for (u, v) in to_remove}
            for u, v in sym:
                graph.adj.get(u, {}).pop(v, None)
    return removed_total


def assemble_serial_olc(
    reads: list[np.ndarray],
    k: int = 31,
    xdrop: int = 15,
    mode: str = "diag",
    min_shared: int = 1,
    end_margin: int = 10,
    min_overlap: int = 0,
    fuzz: int = 100,
) -> SerialAssemblyResult:
    """Assemble reads with the serial OLC pipeline; times each stage."""
    t0 = time.perf_counter()
    overlaps, contained = find_overlaps(
        reads,
        k,
        xdrop=xdrop,
        mode=mode,
        min_shared=min_shared,
        end_margin=end_margin,
        min_overlap=min_overlap,
    )
    t1 = time.perf_counter()

    graph = SerialGraph()
    for ov in overlaps:
        graph.add_edge(ov.a, ov.b, ov.forward)
        graph.add_edge(ov.b, ov.a, ov.reverse)
    _transitive_reduce(graph, fuzz=fuzz)
    t2 = time.perf_counter()

    n_branches = graph.mask_branches()
    contigs = walk_contigs(graph, reads)
    t3 = time.perf_counter()

    return SerialAssemblyResult(
        contigs=contigs,
        wall_seconds=t3 - t0,
        n_overlaps=len(overlaps),
        n_contained=len(contained),
        n_branches=n_branches,
        stage_seconds={
            "overlap": t1 - t0,
            "reduction": t2 - t1,
            "contig": t3 - t2,
        },
    )
