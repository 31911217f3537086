"""Identity pins: three small runs whose digests, log and clocks are fixed.

A perf or simplicity change must leave what a run computes, charges,
sends and holds bit-identical.  These pins make that a tier-1 check
instead of a hand-made before/after grid: the contigs
(``contig_digest``), the modeled span tree (``Tracer.digest``), the
modeled clock (``repr(modeled_total)``), the communication log length and
the modeled memory peak of three runs that cover the three SpGEMM
regimes -- the unphased diagonal-heavy multiply at P = 16, the banded DP
aligner at P = 4, and a budgeted P = 16 multiply the planner cuts into
several column phases.

A change that alters the cost model on purpose updates the pinned values
and says so in its description; any other difference is a regression.
"""

from __future__ import annotations

import pytest

from repro import Pipeline, PipelineConfig
from repro.seq import GenomeSpec, make_genome, sample_reads
from repro.telemetry import Tracer

LOWERR = dict(depth=12, mean_length=500, error_rate=0.005, error_mix=(1, 0, 0))

RUNS = {
    "diag_p16": (
        dict(length=5_000, n_repeats=1, repeat_length=300, repeat_copies=2),
        LOWERR,
        dict(nprocs=16, k=21, xdrop=15, end_margin=25),
    ),
    "dp_p4": (
        dict(length=2_500),
        dict(depth=10, mean_length=400, error_rate=0.04, error_mix=(0.4, 0.3, 0.3)),
        dict(nprocs=4, k=17, xdrop=7, align_mode="dp", end_margin=40, tr_fuzz=150),
    ),
    "budget_p16": (
        dict(length=3_000),
        LOWERR,
        dict(nprocs=16, k=21, xdrop=15, end_margin=25, memory_budget_mb=0.05),
    ),
}

#: contig digest, trace digest, repr(modeled_total), len(world.log),
#: memory.peak_overall()
PINS = {
    "diag_p16": (
        "0f616bdf0d85fe5d2044551da3f5ed3d4e11b6f4e2d19a40cdbb78801d16f66c",
        "3f544c4c96dfbcdbb6dd061b3c6e7a4d5694f0d62e5694308219e2e0ee227176",
        "0.0019518988222222227",
        194,
        173380.0,
    ),
    "dp_p4": (
        "60f5ee70f1b624eeecb059b8bb6f0316f9a65aeb4fadd07928259c6be1e505ce",
        "31982b0ce7e4494bdc001c186e45fdf873f33edf86619142d50ffff125599392",
        "0.00047219940000000027",
        101,
        151900.0,
    ),
    "budget_p16": (
        "cfcf677293b1e42a3662689ff960f23009258a2aaa9f30e589a210dad632b534",
        "9cefc8b571b6ff27368b3e9daf4d5dd52326c08d923d1c2d4bf0e93054794a88",
        "0.002012424199999999",
        663,
        50632.0,
    ),
}


def run(name: str, seed: int = 3):
    genome_spec, sampling, config = RUNS[name]
    genome = make_genome(GenomeSpec(seed=seed, **genome_spec))
    reads = sample_reads(genome, rng=seed + 1, **sampling).reads
    tracer = Tracer()
    result = Pipeline.default().run(
        reads, PipelineConfig(**config), observers=[tracer]
    )
    return result, tracer


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_its_pins(name):
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
    assert result.contigs.contigs, "a pinned run must assemble something"
    if name == "budget_p16":
        assert result.counts["overlap_spgemm_phases"] > 1


def test_pinned_runs_differ():
    """The three pins are three regimes, not one run thrice."""
    assert len({pins[:3] for pins in PINS.values()}) == len(PINS)
    assert all(pins[3] > 0 for pins in PINS.values())
