"""Rank steps share nothing but their arguments and results.

The paper's ranks are MPI processes with private memory; here they run
one after another in one process.  What keeps the simulation honest is
that a rank step is a module-level function (or a ``functools.partial``
of one) whose only inputs are its per-rank arguments and whose only
output is its result, with every charge going through its context.  This
check reruns the identity-pin runs with each superstep's step, each
rank's arguments and each rank's result round-tripped through plain
``pickle`` -- the contexts stay in process -- and asserts the pinned
digests, clocks, log lengths and peaks.  A step that closes over state,
or reads another rank's objects by identity, fails here.

The simulator's accounting (clocks, comm log, stage stack, metrics) has
no locks because every superstep runs on the calling thread; the last
check pins that premise.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.mpi import SimWorld
from test_identity_pins import PINS, RUNS, run


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


@pytest.fixture
def pickled_supersteps(monkeypatch):
    """Every superstep's step, per-rank arguments and results cross a
    plain pickle, one rank at a time."""
    superstep = SimWorld._superstep

    def isolated(world, fn, per_rank_args, segmented):
        per_rank = [
            _round_trip(tuple(seq[r] for seq in per_rank_args))
            for r in range(world.nprocs)
        ]
        # per-rank tuples back to per-argument columns
        columns = [[args[i] for args in per_rank] for i in range(len(per_rank_args))]
        results = superstep(world, _round_trip(fn), columns, segmented)
        return [_round_trip(result) for result in results]

    monkeypatch.setattr(SimWorld, "_superstep", isolated)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_pinned_run_survives_pickled_supersteps(name, pickled_supersteps):
    result, tracer = run(name)
    world = result.world
    got = (
        result.contig_digest(),
        tracer.digest(),
        repr(result.modeled_total),
        len(world.log),
        world.memory.peak_overall(),
    )
    assert got == PINS[name]


def test_closure_step_fails_the_check(pickled_supersteps):
    world = SimWorld(4)
    offset = 10

    def step(ctx, x):
        return x + offset

    with pytest.raises((pickle.PicklingError, AttributeError), match="local"):
        world.map_ranks(step, [1, 2, 3, 4])


def test_budgeted_traced_run_starts_no_thread(monkeypatch):
    """A budgeted, traced run at P = 16 runs every rank step on the
    calling thread, starts no thread, and leaves none behind."""
    before = threading.enumerate()
    caller = threading.current_thread()
    seen = []
    superstep = SimWorld._superstep

    def watched(world, fn, per_rank_args, segmented):
        def probed(*args):
            seen.append((threading.current_thread(), threading.enumerate()))
            return fn(*args)

        return superstep(world, probed, per_rank_args, segmented)

    monkeypatch.setattr(SimWorld, "_superstep", watched)
    result, _tracer = run("budget_p16")
    assert result.counts["overlap_spgemm_phases"] > 1
    assert seen
    assert all(thread is caller and now == before for thread, now in seen)
    assert threading.enumerate() == before
