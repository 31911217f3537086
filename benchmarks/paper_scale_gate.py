#!/usr/bin/env python3
"""The paper's rank counts as a gate: the C. elegans bench preset at P = 1 024.

Runs the ``c_elegans`` bench preset on the ``cori-haswell`` model (scaled
to paper volumes, as Fig. 4 does) at P = 1, 256 and 1 024, then

* fails if the P = 1 024 run takes longer than ``WALL_BOUND_S`` seconds of
  wall time;
* fails unless the contig digest, ``repr(modeled_total)`` and the length of
  the communication log at P = 256 and P = 1 024 equal the pinned values
  (what a run computes, charges and sends must not depend on how fast the
  simulator is);
* prints, report-only, the strong-scaling table (modeled efficiency at
  P = 256 / 1 024 against P = 1) and the main stage whose modeled time
  grows the most between them.  The paper's 64-80 % band is asserted at
  P = 16 by ``bench_fig4``, not here: 1 070 reads over 1 024 ranks leave
  most ranks with one read.

Run from the repository root::

    PYTHONPATH=src python benchmarks/paper_scale_gate.py
"""

from __future__ import annotations

import sys

from repro.bench import build_bench_dataset, sweep_pipeline
from repro.pipeline import scaling_table
from repro.pipeline.engine import MAIN_STAGES

#: P -> (contig digest, repr(modeled_total), len(world.log))
DIGEST = "5fbf2a6105b467a367e3608fbe940c1d6e413dd3a5c9b96ab6f1bbee3c6900e2"
PINS = {
    256: (DIGEST, "1.968282388888889", 1664),
    1024: (DIGEST, "1.7803972890625", 6304),
}
#: seconds of wall time the P = 1 024 run may take
WALL_BOUND_S = 30.0


def main() -> int:
    ds = build_bench_dataset("c_elegans")
    results = sweep_pipeline(ds, "cori-haswell", [1, *PINS])
    print(scaling_table("C. elegans / cori-haswell", results))

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
    if wall > WALL_BOUND_S:
        failures.append(f"P={max(PINS)} took {wall:.2f} s > bound {WALL_BOUND_S:.0f} s")

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
    sys.exit(main())
