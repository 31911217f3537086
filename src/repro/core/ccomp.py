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
O(log n) rounds -- the same round structure as LACC.  The returned vector
**v** maps every vertex to its component label (the minimum vertex id in
the component), i.e. the contig index of §4.2.

Contig *size estimation* follows the paper exactly: each rank counts its
local members per label, and an ``MPI_Reduce_scatter`` turns the per-rank
counts into a distributed map from contig index to global size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    ranks that actually jump pointers pay for the work.
    """
    world = f.grid.world
    stable = np.zeros(world.nprocs, dtype=bool)
    empty = np.empty(0, dtype=np.int64)
    for rounds in range(1, max_rounds + 1):
        requests = [
            empty if stable[rank] else blk for rank, blk in enumerate(f.blocks)
        ]
        grandparents = f.gather(requests)
        changed = 0
        for rank, gp in enumerate(grandparents):
            if stable[rank]:
                continue
            if gp.size and not np.array_equal(gp, f.blocks[rank]):
                changed += int((gp != f.blocks[rank]).sum())
                f.blocks[rank] = gp
            else:
                stable[rank] = True
        # a stable rank requested nothing, so its count is zero
        world.charge_compute_all([gp.size for gp in grandparents])
        total_changed = world.comm.allreduce(
            [changed if r == 0 else 0 for r in range(world.nprocs)],
            lambda a, b: a + b,
        ) if world.nprocs > 1 else changed
        if total_changed == 0:
            return rounds
    return max_rounds


def connected_components(
    L: DistSparseMatrix, max_rounds: int = 64
) -> ConnectedComponentsResult:
    """Label the connected components of the (pattern-symmetric) matrix L."""
    grid, world = L.grid, L.grid.world
    P = grid.nprocs
    n = L.shape[0]
    f = DistVector.arange(grid, n)

    # per-rank edge endpoints in global coordinates: fixed, so planned once
    edge_u, edge_v, _vals = zip(*L.edge_triples_per_rank())
    plan_u, plan_v = f.route(edge_u), f.route(edge_v)

    rounds = 0
    for rounds in range(1, max_rounds + 1):
        pu = f.gather(edge_u, plan=plan_u)
        pv = f.gather(edge_v, plan=plan_v)
        gpu = f.gather(pu)
        gpv = f.gather(pv)
        hook_idx: list[np.ndarray] = []
        hook_val: list[np.ndarray] = []
        n_hooks = 0
        for rank in range(P):
            a, b = pu[rank], pv[rank]
            ga, gb = gpu[rank], gpv[rank]
            # hook root b onto smaller parent a, and vice versa
            cond1 = (a < b) & (gb == b)
            cond2 = (b < a) & (ga == a)
            idx = np.concatenate([b[cond1], a[cond2]])
            val = np.concatenate([a[cond1], b[cond2]])
            hook_idx.append(idx)
            hook_val.append(val)
            n_hooks += int(idx.size)
        world.charge_compute_all([a.size for a in pu])
        total_hooks = world.comm.allreduce(
            [int(i.size) for i in hook_idx], lambda x, y: x + y
        )
        if total_hooks == 0:
            break
        f.scatter_update(hook_idx, hook_val, combine="min")
        _shortcut_until_stable(f)
    else:  # pragma: no cover - defensive; log-n rounds suffice
        pass

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
    # for a mostly-empty map -- is replaced by unique-label counting
    uniq: list[np.ndarray] = []
    per_counts: list[np.ndarray] = []
    for blk in labels.blocks:
        u, c = np.unique(blk, return_counts=True)
        uniq.append(u.astype(np.int64))
        per_counts.append(c.astype(np.int64))
    world.charge_compute_all(
        [blk.size + u.size for blk, u in zip(labels.blocks, uniq)]
    )

    # every rank learns the union of present labels (sorted); sizes scale
    # with the number of components, never with P * n
    union = world.comm.allreduce(uniq, np.union1d)
    union = np.asarray(union, dtype=np.int64)

    # densify over the compacted union and reduce_scatter with blocks split
    # by label *owner*, so each rank receives the global totals for exactly
    # the labels it owns in the vertex space
    dense: list[np.ndarray] = []
    for rank in range(P):
        d = np.zeros(union.size, dtype=np.int64)
        d[np.searchsorted(union, uniq[rank])] = per_counts[rank]
        dense.append(d)
    world.charge_compute_all([u.size for u in uniq])
    owner_sizes = np.bincount(grid.owner_of_vec(n, union), minlength=P)
    scattered = world.comm.reduce_scatter(
        dense, block_sizes=[int(s) for s in owner_sizes]
    )

    # scatter the compacted totals back into the vertex-aligned vector
    out = DistVector.zeros(grid, n, dtype=np.int64)
    bounds = cumsum0(owner_sizes)
    lows = grid.vec_bounds(n)
    for rank in range(P):
        owned = union[bounds[rank] : bounds[rank + 1]]
        out.blocks[rank][owned - lows[rank]] = scattered[rank]
    world.charge_compute_all(owner_sizes)
    return out
