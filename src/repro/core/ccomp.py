"""Distributed connected components (Algorithm 2, line 3).

ELBA uses LACC, the linear-algebraic Awerbuch-Shiloach implementation of
Azad & Buluc.  This module implements the same hook-and-compress family over
the distributed edge blocks and a distributed parent vector:

* **hooking**: every edge ``(u, v)`` whose endpoints have different parents
  proposes hooking the larger *root* parent onto the smaller parent
  (min-combine scatter keeps it deterministic and acyclic);
* **shortcutting**: pointer jumping ``f[u] <- f[f[u]]`` compresses trees
  toward stars, performed with the owner-computes vector gather.

Both steps are O(nnz / P) local work plus all-to-alls, converging in
O(log n) rounds -- the same round structure as LACC.  As in LACC, every
step is written against whole vectors: the ranks' edge endpoints and the
parent vector are each one flat array (:class:`~repro.mpi.comm.RankBlocks`,
:class:`~repro.sparse.distvec.DistVector`), and a rank's share of a step --
its charge, its hook count -- is a ``bincount`` of the rows' rank ids.  A
run that does not converge within ``max_rounds`` raises
:class:`~repro.errors.AssemblyError` rather than return labels that may
not be components.  The returned vector
**v** maps every vertex to its component label (the minimum vertex id in
the component), i.e. the contig index of §4.2.

Contig *size estimation* follows the paper exactly: each rank counts its
local members per label, and an ``MPI_Reduce_scatter`` turns the per-rank
counts into a distributed map from contig index to global size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AssemblyError
from ..mpi.comm import RankBlocks
from ..sparse.distmat import DistSparseMatrix
from ..sparse.distvec import DistVector
from ..util import cumsum0

__all__ = ["connected_components", "contig_sizes_distributed", "ConnectedComponentsResult"]


@dataclass
class ConnectedComponentsResult:
    """Component labels plus convergence diagnostics."""

    labels: DistVector
    rounds: int


def _shortcut_until_stable(f: DistVector, max_rounds: int = 64) -> int:
    """Pointer-jump until every vertex points at a root. Returns rounds.

    Convergence-aware: a rank whose block survives a round unchanged points
    entirely at roots, and roots never move during shortcutting, so the rank
    is *permanently* stable for the rest of this call -- it stops gathering
    grandparents (empty request) and is charged no further compute.  Only
    ranks that actually jump pointers pay for the work.  Raises
    :class:`AssemblyError` if a pointer still moves in round ``max_rounds``.
    """
    world = f.grid.world
    P = world.nprocs
    sizes = np.diff(f.bounds)
    rank = np.repeat(np.arange(P), sizes)
    stable = np.zeros(P, dtype=bool)
    for rounds in range(1, max_rounds + 1):
        live = ~stable[rank]
        parents = f.values[live]
        requests = RankBlocks(parents, cumsum0(np.where(stable, 0, sizes)))
        grandparents = f.gather(requests).flat
        changed = np.bincount(rank[live][grandparents != parents], minlength=P)
        f.values[live] = grandparents
        # a rank that requested nothing or moved nothing is stable
        stable |= changed == 0
        world.charge_compute_all(requests.sizes())
        total_changed = world.comm.allreduce(
            changed.tolist(), lambda a, b: a + b
        ) if P > 1 else int(changed.sum())
        if total_changed == 0:
            return rounds
    raise AssemblyError(
        f"pointer jumping did not converge in {max_rounds} rounds"
    )


def connected_components(
    L: DistSparseMatrix, max_rounds: int = 64
) -> ConnectedComponentsResult:
    """Label the connected components of the (pattern-symmetric) matrix L.

    Raises :class:`AssemblyError` if hooking still finds edges to hook in
    round ``max_rounds``.
    """
    grid, world = L.grid, L.grid.world
    P = grid.nprocs
    n = L.shape[0]
    f = DistVector.arange(grid, n)

    # per-rank edge endpoints in global coordinates: fixed, so planned once
    edge_u, edge_v, _vals = zip(*L.edge_triples_per_rank())
    edge_u = RankBlocks.of(edge_u, dtype=np.int64)
    edge_v = RankBlocks.of(edge_v, dtype=np.int64)
    plan_u, plan_v = f.route(edge_u), f.route(edge_v)
    rank = edge_u.ranks()

    for rounds in range(1, max_rounds + 1):
        pu = f.gather(edge_u, plan=plan_u)
        pv = f.gather(edge_v, plan=plan_v)
        a, b = pu.flat, pv.flat
        ga, gb = f.gather(pu).flat, f.gather(pv).flat
        # hook root b onto smaller parent a, and vice versa
        onto_a = (a < b) & (gb == b)
        hook = onto_a | ((b < a) & (ga == a))
        hooks = np.bincount(rank[hook], minlength=P)
        world.charge_compute_all(pu.sizes())
        total_hooks = world.comm.allreduce(hooks.tolist(), lambda x, y: x + y)
        if total_hooks == 0:
            break
        bounds = cumsum0(hooks)
        f.scatter_update(
            RankBlocks(np.where(onto_a, b, a)[hook], bounds),
            RankBlocks(np.where(onto_a, a, b)[hook], bounds),
        )
        _shortcut_until_stable(f)
    else:
        raise AssemblyError(
            f"connected components did not converge in {max_rounds} hooking rounds"
        )

    _shortcut_until_stable(f)
    return ConnectedComponentsResult(labels=f, rounds=rounds)


def contig_sizes_distributed(labels: DistVector) -> DistVector:
    """Global component sizes via local counts + ``MPI_Reduce_scatter``.

    Returns a distributed vector aligned with the vertex space: entry ``c``
    holds the size of the component whose label (root vertex id) is ``c``
    (zero elsewhere).  This is the distributed contig-index -> size map of
    §4.2.
    """
    grid, world = labels.grid, labels.grid.world
    n = labels.n
    P = grid.nprocs

    # compact per-rank counts: distinct labels are few (one per component),
    # so a dense length-n bincount per rank -- O(P * n) memory and compute
    # for a mostly-empty map -- is replaced by unique-label counting, every
    # rank's at once under a (rank, label) key
    sizes = np.diff(labels.bounds)
    key, per_counts = np.unique(
        np.repeat(np.arange(P, dtype=np.int64) * n, sizes) + labels.values,
        return_counts=True,
    )
    uniq = RankBlocks(key % max(n, 1), np.searchsorted(key, np.arange(P + 1) * n))
    world.charge_compute_all(sizes + uniq.sizes())

    # every rank learns the union of present labels (sorted); sizes scale
    # with the number of components, never with P * n
    union = world.comm.allreduce(uniq, np.union1d)
    union = np.asarray(union, dtype=np.int64)

    # densify over the compacted union and reduce_scatter with blocks split
    # by label *owner*, so each rank receives the global totals for exactly
    # the labels it owns in the vertex space
    dense = np.zeros((P, union.size), dtype=np.int64)
    dense[uniq.ranks(), np.searchsorted(union, uniq.flat)] = per_counts
    world.charge_compute_all(uniq.sizes())
    owner_sizes = np.bincount(grid.owner_of_vec(n, union), minlength=P)
    scattered = world.comm.reduce_scatter(
        list(dense), block_sizes=[int(s) for s in owner_sizes]
    )

    # scatter the compacted totals back into the vertex-aligned vector
    out = DistVector.zeros(grid, n, dtype=np.int64)
    out.values[union] = np.concatenate(scattered)
    world.charge_compute_all(owner_sizes)
    return out
