"""Smoke tests of the end-to-end benchmark's own machinery (no timed runs)."""

from __future__ import annotations

import importlib.util
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.seq import GenomeSpec, make_genome
from repro.seq.dna import revcomp

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _load(name: str):
    # by path and under a private name: ``trace`` is also a stdlib module
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


trace = _load("trace")
workloads = _load("workloads")
compare = _load("compare")
run = _load("run")


# -- span arithmetic --------------------------------------------------------


def test_self_time_is_duration_minus_child_cover():
    ticks = iter([0, 1, 4, 4, 5, 6, 8, 10])
    tracer = trace.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("root"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("b.inner"):
                pass
    root, a, b, inner = range(4)
    assert [s.duration for s in tracer.spans] == [10, 3, 4, 1]
    assert [s.parent for s in tracer.spans] == [None, root, root, b]
    assert tracer.self_time(root) == 10 - (3 + 4)
    assert tracer.self_time(b) == 4 - 1
    assert tracer.self_time(a) == 3 and tracer.self_time(inner) == 1
    # the parts sum to the total
    assert sum(tracer.self_time(i) for i in range(4)) == tracer.spans[root].duration
    assert [d["self_s"] for d in tracer.dump()] == [3, 3, 3, 1]


def test_child_cover_is_a_union_clipped_to_the_parent():
    tracer = trace.Tracer()
    tracer.spans = [
        trace.Span("parent", 0.0, 10.0),
        trace.Span("x", 1.0, 5.0, parent=0),
        trace.Span("y", 3.0, 7.0, parent=0),   # overlaps x
        trace.Span("z", 9.0, 12.0, parent=0),  # runs past the parent
    ]
    assert tracer.child_cover(0) == (7 - 1) + (10 - 9)
    assert tracer.self_time(0) == 3


# -- truth checkers ---------------------------------------------------------


@pytest.fixture(scope="module")
def genome():
    return make_genome(GenomeSpec(length=3000, seed=11))


def test_fragment_checker_accepts_exact_and_rejects_corrupted(genome):
    other = make_genome(GenomeSpec(length=3000, seed=12))
    good = workloads.check_against_fragments([revcomp(genome), other], [genome, other])
    assert good.ok and good.genome_fraction == 1.0 and good.ng50_bp == 3000
    corrupted = genome.copy()
    corrupted[1500] = (corrupted[1500] + 1) % 4
    bad = workloads.check_against_fragments([corrupted, other], [genome, other])
    assert not bad.ok
    assert bad.genome_fraction == 0.5 and bad.misassemblies == 1


def test_genome_checker_accepts_exact_and_rejects_corrupted(genome):
    good = workloads.check_against_genome([genome[:1600], revcomp(genome[1500:])], genome, 21)
    assert good.ok and good.misassemblies == 0 and good.genome_fraction > 0.98
    chimera = np.concatenate([genome[:1200], revcomp(genome[1700:2900])])
    assert workloads.check_against_genome([chimera], genome, 21).misassemblies == 1
    truncated = workloads.check_against_genome([genome[:1500]], genome, 21)
    assert truncated.misassemblies == 0 and not truncated.ok


# -- compare.py -------------------------------------------------------------


def _result(seed=1, failed=0, **values):
    defaults = dict(wall_s=10.0, reads_per_s=100.0, modeled_s=0.5, ng50_bp=4000)
    defaults.update(values)
    return {
        "provenance": {"seed": seed, "git_commit": "0" * 40},
        "workloads": {
            "w": {
                "ops": 10,
                "failed_ops": failed,
                "contig_digest": "d",
                "end_to_end": {
                    k: {
                        "value": v,
                        "unit": run.END_TO_END[k][0],
                        "better": run.END_TO_END[k][1],
                        "exact": k in run.EXACT,
                    }
                    for k, v in defaults.items()
                },
            }
        },
    }


BOUNDS = {"wall_s": 0.10, "reads_per_s": 0.10}


def _compare(a, b, **kw):
    out = io.StringIO()
    return compare.compare(a, b, BOUNDS, out=out, **kw), out.getvalue()


def test_compare_bound_edge():
    assert _compare(_result(), _result(wall_s=11.0))[0] == 0      # exactly +10 %
    code, text = _compare(_result(), _result(wall_s=11.01))
    assert code == 1 and "worse" in text
    assert _compare(_result(), _result(reads_per_s=89.0))[0] == 1  # higher is better
    code, text = _compare(_result(), _result(wall_s=8.0))
    assert code == 0 and "better" in text
    # two runs of the same code: a large swing either way is a disagreement
    code, text = _compare(_result(), _result(wall_s=8.0), agree=True)
    assert code == 1 and "differs" in text


def test_compare_exact_metrics():
    assert _compare(_result(), _result(modeled_s=0.5 * (1 + 1e-15)))[0] == 0
    assert _compare(_result(), _result(modeled_s=0.5 * (1 + 1e-9)))[0] == 1
    assert _compare(_result(), _result(ng50_bp=3999))[0] == 1
    code, text = _compare(_result(), _result(ng50_bp=4001))
    assert code == 0 and "better" in text


def test_compare_failed_share_and_seed():
    code, text = _compare(_result(), _result(failed=1))
    assert code == 1 and "ROSE" in text
    assert _compare(_result(failed=1), _result(failed=1))[0] == 0
    assert _compare(_result(seed=1), _result(seed=2))[0] == 2


# -- BENCHMARK.json against the code ----------------------------------------


def test_benchmark_json_matches_run_list(capsys):
    assert run.main(["--list"]) == 0
    listed = json.loads(capsys.readouterr().out)
    name_ok = re.compile(r"[A-Za-z0-9_.-]+")

    assert [w["name"] for w in BENCHMARK["workloads"]] == listed["workloads"]
    assert tuple(listed["workloads"]) == tuple(workloads.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert name_ok.fullmatch(w["name"])
        assert w["why"] == workloads.WORKLOADS[w["name"]].why

    registered = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert registered == listed["registered_end_to_end"]
    for m in BENCHMARK["end_to_end"]:
        assert name_ok.fullmatch(m["name"])
        assert [m["unit"], m["better"]] == listed["end_to_end"][m["name"]]
        assert 0 < m["bound"] <= 0.25
    assert compare.load_bounds().keys() >= {
        k for k in listed["end_to_end"] if k not in run.EXACT
    }

    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(listed["per_layer"])
    for m in BENCHMARK["per_layer"]:
        assert name_ok.fullmatch(m["name"])
        assert [m["unit"], m["better"]] == listed["per_layer"][m["name"]]
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
