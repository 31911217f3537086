#!/usr/bin/env python3
"""The paper's rank counts as a gate: the C. elegans bench preset at P = 1 024.

Runs the ``c_elegans`` bench preset on the ``cori-haswell`` model (scaled
to paper volumes, as Fig. 4 does) at P = 1, 256 and 1 024, and once more
at P = 256 under ``memory_budget_mb=400`` (the phased row: the planner
cuts A . A^T into 64 column phases), then

* fails if the P = 1 024 run or the phased row takes longer than
  ``WALL_BOUND_S`` seconds of wall time, or if the P = 1 024 run's
  distributed SpGEMMs make more than ``JOIN_BOUND`` local joins (the
  ``sparse.local_joins`` counter, printed for it and the phased row);
* fails unless the contig digest, ``repr(modeled_total)`` and the length of
  the communication log at P = 256 and P = 1 024 -- and of the phased
  row, with its modeled memory peak -- equal the pinned values (what a
  run computes, charges, sends and holds must not depend on how fast the
  simulator is);
* prints, report-only, the strong-scaling table (modeled efficiency at
  P = 256 / 1 024 against P = 1) and the main stage whose modeled time
  grows the most between them.  The paper's 64-80 % band is asserted at
  P = 16 by ``bench_fig4``, not here: 1 070 reads over 1 024 ranks leave
  most ranks with one read.

Beside the local joins it bounds the route plans and their non-empty
cells (``mpi.route_plans`` / ``mpi.route_cells``) of both rows.
``--probe P`` instead runs the preset once at P ranks and reports its
wall, peak RSS, counters and whether its digest equals the gate's; it
gates nothing.

Run from the repository root::

    PYTHONPATH=src python benchmarks/paper_scale_gate.py
    PYTHONPATH=src python benchmarks/paper_scale_gate.py --probe 4096
"""

from __future__ import annotations

import resource
import sys
from dataclasses import replace

from repro import Pipeline
from repro.bench import build_bench_dataset, sweep_pipeline
from repro.mpi.costmodel import MACHINE_PRESETS
from repro.pipeline import scaling_table
from repro.pipeline.engine import MAIN_STAGES
from repro.telemetry import get_registry

#: P -> (contig digest, repr(modeled_total), len(world.log))
DIGEST = "5fbf2a6105b467a367e3608fbe940c1d6e413dd3a5c9b96ab6f1bbee3c6900e2"
PINS = {
    256: (DIGEST, "1.968282388888889", 1664),
    1024: (DIGEST, "1.7803972890625", 6304),
}
#: the phased row: (P, memory_budget_mb) -> (contig digest,
#: repr(modeled_total), len(world.log), memory.peak_overall())
PHASED = (256, 400.0)
PHASED_PINS = (DIGEST, "2.407103201388892", 33923, 627725000.0)
#: seconds of wall time the P = 1 024 run and the phased row may take
WALL_BOUND_S = 30.0
#: local joins the P = 1 024 run may make: about one per rank per product
JOIN_BOUND = 3 * 1024


#: route plans and their non-empty (sender, receiver) cells the P = 1 024
#: run and the phased row may build (ROADMAP 10(a); a bound only goes
#: down).  Measured when set: 33 plans each, 452 598 and 243 293 cells
ROUTE_PLAN_BOUND = {1024: 36, PHASED: 36}
ROUTE_CELL_BOUND = {1024: 480_000, PHASED: 260_000}
COUNTERS = ("sparse.local_joins", "mpi.route_plans", "mpi.route_cells")


def counted_run(run):
    """``run()``'s result and what it added to each of ``COUNTERS``."""
    counters = [get_registry().counter(name) for name in COUNTERS]
    before = [c.value for c in counters]
    result = run()
    return result, {
        name: int(c.value - b) for name, c, b in zip(COUNTERS, counters, before)
    }


def counter_failures(label, key, counts):
    """Print ``counts`` and return the bounds they break."""
    print(f"{label}  " + "  ".join(f"{k} {v}" for k, v in counts.items()))
    bounds = {
        "sparse.local_joins": JOIN_BOUND if key == max(PINS) else None,
        "mpi.route_plans": ROUTE_PLAN_BOUND[key],
        "mpi.route_cells": ROUTE_CELL_BOUND[key],
    }
    return [
        f"{label} made {counts[k]} {k} > bound {b}"
        for k, b in bounds.items()
        if b is not None and counts[k] > b
    ]


def probe(ds, p: int) -> int:
    """Report-only: one run at ``p`` ranks -- wall, peak RSS, the counters
    and whether its contig digest equals the gate's.  Not a gate."""
    result, counts = counted_run(lambda: sweep_pipeline(ds, "cori-haswell", [p])[0])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    same = "equals" if result.contig_digest() == DIGEST else "differs from"
    print(f"probe P={p}  wall {result.report.wall_seconds:.2f} s  "
          f"peak RSS {rss_mb:.0f} MB  "
          + "  ".join(f"{k} {v}" for k, v in counts.items())
          + f"  digest {same} the gate's")
    return 0


def main(argv: list[str]) -> int:
    ds = build_bench_dataset("c_elegans")
    if argv[:1] == ["--probe"]:
        return probe(ds, int(argv[1]))
    results, joins = zip(*(
        counted_run(lambda p=p: sweep_pipeline(ds, "cori-haswell", [p])[0])
        for p in (1, *PINS)
    ))
    print(scaling_table("C. elegans / cori-haswell", list(results)))

    failures = []
    runs = {r.config.nprocs: r for r in results}
    for p, pins in PINS.items():
        got = (runs[p].contig_digest(), repr(runs[p].modeled_total),
               len(runs[p].world.log))
        print(f"P={p:5d}  digest {got[0][:16]}  modeled_total {got[1]}  "
              f"log {got[2]}")
        if got != pins:
            failures.append(f"P={p}: got {got}, pinned {pins}")
    wall = results[-1].report.wall_seconds
    print(f"P={max(PINS):5d}  wall {wall:.2f} s")
    if wall > WALL_BOUND_S:
        failures.append(f"P={max(PINS)} took {wall:.2f} s > bound {WALL_BOUND_S:.0f} s")
    failures += counter_failures(f"P={max(PINS):5d}", max(PINS), joins[-1])

    p, budget_mb = PHASED
    machine = MACHINE_PRESETS["cori-haswell"]().scaled(ds.scale)
    phased, phased_joins = counted_run(lambda: Pipeline.default().run(
        ds.readset, replace(ds.config(p, machine), memory_budget_mb=budget_mb)
    ))
    got = (phased.contig_digest(), repr(phased.modeled_total),
           len(phased.world.log), phased.world.memory.peak_overall())
    wall = phased.report.wall_seconds
    print(f"P={p:5d}  budget {budget_mb:g} MB  "
          f"{phased.counts['overlap_spgemm_phases']} phases  digest {got[0][:16]}  "
          f"modeled_total {got[1]}  log {got[2]}  peak {got[3]:.0f}  "
          f"wall {wall:.2f} s")
    failures += counter_failures(f"P={p:5d}  phased", PHASED, phased_joins)
    if got != PHASED_PINS:
        failures.append(f"P={p} phased: got {got}, pinned {PHASED_PINS}")
    if wall > WALL_BOUND_S:
        failures.append(f"P={p} phased took {wall:.2f} s > bound {WALL_BOUND_S:.0f} s")

    lo, hi = sorted(PINS)
    growth = {}
    for s in MAIN_STAGES:
        a, b = runs[lo].stage_seconds(s), runs[hi].stage_seconds(s)
        growth[s] = b - a
        print(f"  {s:14s} P={lo}: {a:9.4f} s  P={hi}: {b:9.4f} s")
    print(f"stage that stops scaling from P={lo} to P={hi} (largest modeled "
          f"growth): {max(growth, key=growth.get)}")

    for f in failures:
        print("FAIL", f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
