#!/usr/bin/env python3
"""Compare two results of ``run.py`` at the same seed: ``compare.py A.json B.json``.

For every workload and end-to-end metric it prints both values, the
relative change from A to B, the metric's bound and a verdict:

* a measured metric (``setup_s``, ``wall_s``, ``reads_per_s``,
  ``peak_rss_mb``) is ``worse`` / ``better`` when B is beyond A by more
  than the bound ``BENCHMARK.json`` fixes for it, else ``same``;
* an exact metric (a pure function of code and seed) must be equal --
  floats such as ``modeled_s`` to 1e-12 relative, counts with ``==`` --
  and is ``worse`` or ``better`` by its direction otherwise.

Exit status 1 on any ``worse`` or any rise in the share of failed ops.
``--agree`` is for two runs of the same code: a change beyond the bound
in either direction is a disagreement and also exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_bounds(path: Path = BENCHMARK_JSON) -> dict[str, float]:
    spec = json.loads(path.read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def verdict(a: float, b: float, entry: dict, bound: float | None) -> tuple[float, str]:
    """``(relative change, same|better|worse)`` of one metric from a to b.

    ``entry`` is the metric's result record (``better`` direction and
    ``exact`` flag); ``bound`` applies to measured metrics only.
    """
    delta = (b - a) / abs(a) if a else (0.0 if b == a else math.inf)
    if entry["exact"]:
        tolerance = 1e-12 if isinstance(a, float) else 0.0
        same = abs(delta) <= tolerance
    else:
        same = abs(delta) <= bound
    if same:
        return delta, "same"
    improved = (delta < 0) == (entry["better"] == "lower")
    return delta, "better" if improved else "worse"


def compare(a: dict, b: dict, bounds: dict, agree: bool = False, out=sys.stdout) -> int:
    if a["provenance"]["seed"] != b["provenance"]["seed"]:
        print("results were made with different seeds", file=out)
        return 2
    print(f"A: {a['provenance']['git_commit'][:12]}   "
          f"B: {b['provenance']['git_commit'][:12]}   "
          f"seed {a['provenance']['seed']}", file=out)
    bad = 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"\n== {name}: missing from B", file=out)
            bad += 1
            continue
        digests = "equal" if wa["contig_digest"] == wb["contig_digest"] else "DIFFER"
        print(f"\n== {name}   contig digests {digests}", file=out)
        for metric, ea in wa["end_to_end"].items():
            eb = wb["end_to_end"][metric]
            bound = None if ea["exact"] else bounds[metric]
            delta, word = verdict(ea["value"], eb["value"], ea, bound)
            if agree and word == "better":
                word = "differs"
            bad += word in ("worse", "differs")
            print(
                f"{metric:18s} {ea['value']:<14.6g} {eb['value']:<14.6g} "
                f"{delta:+8.2%}  bound {'exact' if bound is None else bound:<6} "
                f"{word}  [{ea['unit']}]",
                file=out,
            )
        fa = wa["failed_ops"] / wa["ops"]
        fb = wb["failed_ops"] / wb["ops"]
        rose = fb > fa
        bad += rose
        print(
            f"{'failed_ops/ops':18s} {wa['failed_ops']}/{wa['ops']:<12} "
            f"{wb['failed_ops']}/{wb['ops']:<12} {'ROSE' if rose else 'ok'}",
            file=out,
        )
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    ap.add_argument("--agree", action="store_true",
                    help="same code twice: beyond the bound either way fails")
    args = ap.parse_args(argv)
    return compare(
        json.loads(args.a.read_text()),
        json.loads(args.b.read_text()),
        load_bounds(),
        agree=args.agree,
    )


if __name__ == "__main__":
    sys.exit(main())
