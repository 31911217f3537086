"""Bench: serial vs process executor backends on supersteps.

The executor API (:mod:`repro.mpi.executor`) decouples a superstep's
per-rank compute from the loop that runs it.  This bench drives a
pipeline-shaped superstep -- each rank sorts, joins and reduces NumPy
arrays, the kind of kernel every stage bottoms out in -- through the
serial and process backends at P in {4, 16, 64} and records
supersteps/sec into ``BENCH_executor.json``.

Modeled seconds are identical across backends by construction (asserted
here and property-tested in ``tests/test_executor_parallel.py``); what
the process backend changes is *wall-clock* on multi-core hosts: it
parallelizes whole rank steps across cores, amortizing IPC by shipping
each payload array through shared memory once (the registry's id-keyed
cache keeps segments warm across repeated supersteps).  On a single-core
runner it only pays its overhead, so the trajectory records throughput
without asserting a speedup -- the ``smoke`` tests assert the
equivalence contract instead, and run in CI.  This is a microbenchmark
of one fat superstep; which backend wins on a whole assembly is measured
by ``benchmarks/e2e`` (see README, *Executor backends*).
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.bench import machine_stamp, render_matrix
from repro.mpi import SimWorld, cori_haswell

BENCH_JSON = Path(__file__).parent / "BENCH_executor.json"


def make_rank_payloads(nprocs, elems_per_rank, seed=29):
    """Per-rank arrays shaped like a superstep's local blocks."""
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 1 << 20, size=elems_per_rank).astype(np.int64)
        for _ in range(nprocs)
    ]


def superstep(ctx, arr):
    """One rank's local work: sort + self-join + reduction (NumPy-bound)."""
    s = np.sort(arr)
    hits = np.searchsorted(s, arr)
    total = int(np.take(s, np.clip(hits, 0, s.size - 1)).sum())
    ctx.charge_compute(arr.size)
    ctx.observe_memory(float(arr.nbytes * 2))
    return total


def _supersteps_per_sec(world, payloads, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        world.map_ranks(superstep, payloads)
        times.append(time.perf_counter() - t0)
    return 1.0 / min(times)


BACKENDS = ("serial", "process")


def measure_backends(nprocs, elems_per_rank=200_000, repeats=5):
    """Supersteps/sec for each backend on identical per-rank payloads."""
    payloads = make_rank_payloads(nprocs, elems_per_rank)
    out = {"nprocs": nprocs, "elems_per_rank": elems_per_rank}
    results = {}
    for backend in BACKENDS:
        world = SimWorld(nprocs, cori_haswell(), executor=backend)
        # warm pool + page cache; for the process backend this also
        # spawns workers and exports the payloads to shared memory, so
        # the measured loop sees steady-state (segments reused by id)
        world.map_ranks(superstep, payloads)
        out[f"{backend}_supersteps_per_sec"] = round(
            _supersteps_per_sec(world, payloads, repeats), 2
        )
        results[backend] = world.map_ranks(superstep, payloads)
    # the backends must agree on every rank's result
    assert results["serial"] == results["process"]
    out["process_vs_serial"] = round(
        out["process_supersteps_per_sec"] / out["serial_supersteps_per_sec"], 2
    )
    return out


def append_trajectory(datapoints):
    history = []
    if BENCH_JSON.exists():
        history = json.loads(BENCH_JSON.read_text()).get("history", [])
    history.append(
        {
            "date": time.strftime("%Y-%m-%d"),
            "machine": machine_stamp(),
            "results": datapoints,
        }
    )
    BENCH_JSON.write_text(
        json.dumps(
            {"bench": "executor_supersteps_per_sec", "history": history},
            indent=2,
        )
        + "\n"
    )


def test_bench_executor_scaling(write_artifact):
    """Backend supersteps/sec at P in {4, 16, 64}, recorded over time."""
    results = [measure_backends(P) for P in (4, 16, 64)]
    rows = [
        (
            f"P={r['nprocs']}",
            [
                r["serial_supersteps_per_sec"],
                r["process_supersteps_per_sec"],
                r["process_vs_serial"],
            ],
        )
        for r in results
    ]
    text = render_matrix(
        "Executor backends -- supersteps/sec (wall-clock vs serial)",
        ["serial ss/s", "process ss/s", "proc/ser"],
        rows,
    )
    write_artifact("bench_executor_scaling", text)
    append_trajectory(results)
    for r in results:
        for backend in BACKENDS:
            assert r[f"{backend}_supersteps_per_sec"] > 0


# -- CI smoke: backends must be observationally identical -----------------


def _run_superstep_world(backend, nprocs=16):
    payloads = make_rank_payloads(nprocs, elems_per_rank=2_000)
    world = SimWorld(nprocs, cori_haswell(), executor=backend)
    with world.stage_scope("Bench"):
        results = world.map_ranks(superstep, payloads)
    return world, results


def test_smoke_map_ranks_backends_identical():
    """Results, clocks and memory peaks match across both backends."""
    ws, rs = _run_superstep_world("serial")
    wb, rb = _run_superstep_world("process")
    assert rs == rb
    assert ws.clock.stages() == wb.clock.stages()
    assert np.array_equal(
        ws.clock.per_rank_seconds("Bench"),
        wb.clock.per_rank_seconds("Bench"),
    )
    assert ws.memory.by_stage() == wb.memory.by_stage()


def test_smoke_trace_digest_identical_across_backends(out_dir):
    """The modeled-clock span tree is bit-identical on both backends.

    Each backend runs the same traced superstep workload; the digest
    hashes the canonical tree with wall time excluded, so it must agree
    exactly.  The serial run's Chrome trace is schema-validated and
    written to ``benchmarks/out/trace_executor_smoke.json`` -- the CI
    trace artifact, loadable at chrome://tracing or ui.perfetto.dev.
    """
    import json

    from repro.telemetry import Tracer, to_chrome_trace, validate_trace

    digests = {}
    serial_tracer = None
    for backend in BACKENDS:
        payloads = make_rank_payloads(8, elems_per_rank=2_000)
        world = SimWorld(8, cori_haswell(), executor=backend)
        tracer = Tracer()
        tracer.attach(world)
        tracer.begin_run(nprocs=8)
        with world.stage_scope("Bench"):
            world.map_ranks(superstep, payloads)
        tracer.end_run()
        tracer.detach()
        digests[backend] = tracer.digest()
        if backend == "serial":
            serial_tracer = tracer
    assert len(set(digests.values())) == 1, digests

    trace = to_chrome_trace(serial_tracer, include_wall=True)
    assert validate_trace(trace) == []
    (out_dir / "trace_executor_smoke.json").write_text(
        json.dumps(trace) + "\n"
    )


def _staggered(ctx):
    time.sleep(0.001 * (8 - int(ctx)))
    return int(ctx)


def test_smoke_map_ranks_rank_order():
    """Process-backend results arrive in rank order even when ranks finish
    out of order."""
    world = SimWorld(8, executor="process")
    assert world.map_ranks(_staggered) == list(range(8))
