"""Ablation: gapless vs banded-DP x-drop across error regimes.

The gapless engine is the fast path for substitution-dominated reads (HiFi
regime); the banded DP survives indels (CLR regime) at a large constant
cost.  This bench measures both the speed gap and the recovery-rate gap.
"""

import numpy as np

from figures import render_matrix
from repro.align import extend_banded, extend_gapless
from repro.seq import dna
from repro.seq.simulate import _apply_errors


def make_pair(rng, length=400, error_rate=0.0, mix=(1.0, 0.0, 0.0)):
    """Two reads sharing a full-length overlap, independently errored."""
    base = dna.random_codes(rng, length)
    a, _ = _apply_errors(base, error_rate, rng, mix)
    b, _ = _apply_errors(base, error_rate, rng, mix)
    return a, b


def recovery(mode_fn, rng, error_rate, mix, trials=30):
    """Fraction of the true overlap recovered by the aligner."""
    total = 0.0
    for _ in range(trials):
        a, b = make_pair(rng, error_rate=error_rate, mix=mix)
        # exact seed search near the middle
        k = 13
        found = None
        for off in range(0, 80):
            i = max(len(a) // 2 - off, 0)
            w = a[i : i + k]
            if w.size < k:
                continue
            for j in range(max(len(b) // 2 - 60, 0), min(len(b) // 2 + 60, len(b) - k)):
                if np.array_equal(w, b[j : j + k]):
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            continue
        res = mode_fn(a, b, found[0], found[1], k, 15)
        total += res.a_span / len(a)
    return total / trials


SUB_ONLY = (1.0, 0.0, 0.0)
WITH_INDELS = (0.4, 0.3, 0.3)


class TestAlignmentModes:
    def test_gapless_recovers_substitution_reads(self):
        rng = np.random.default_rng(10)
        rec = recovery(extend_gapless, rng, 0.01, SUB_ONLY)
        assert rec > 0.8

    def test_dp_beats_gapless_with_indels(self):
        rng1 = np.random.default_rng(11)
        rng2 = np.random.default_rng(11)
        rec_gapless = recovery(extend_gapless, rng1, 0.02, WITH_INDELS)
        rec_dp = recovery(extend_banded, rng2, 0.02, WITH_INDELS)
        assert rec_dp > rec_gapless

    def test_render(self, write_artifact):
        rows = []
        for label, fn in (("gapless", extend_gapless), ("banded-dp", extend_banded)):
            cells = []
            for err, mix in ((0.0, SUB_ONLY), (0.01, SUB_ONLY), (0.02, WITH_INDELS)):
                rng = np.random.default_rng(12)
                cells.append(float(recovery(fn, rng, err, mix, trials=15)))
            rows.append((label, cells))
        text = render_matrix(
            "Ablation -- overlap recovery by engine and error regime",
            ["clean", "1% sub", "2% indel"],
            rows,
        )
        write_artifact("ablation_alignment", text)
        assert "gapless" in text


def test_bench_ablation_alignment_full(benchmark, write_artifact):
    """Aggregated alignment-mode ablation (runs under --benchmark-only)."""

    def regenerate():
        rows = []
        table = {}
        for label, fn in (("gapless", extend_gapless), ("banded-dp", extend_banded)):
            cells = []
            for err, mix in ((0.0, SUB_ONLY), (0.01, SUB_ONLY), (0.02, WITH_INDELS)):
                rng = np.random.default_rng(12)
                cells.append(float(recovery(fn, rng, err, mix, trials=15)))
            rows.append((label, cells))
            table[label] = cells
        assert table["banded-dp"][2] >= table["gapless"][2]
        return render_matrix(
            "Ablation -- overlap recovery by engine and error regime",
            ["clean", "1% sub", "2% indel"],
            rows,
        )

    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    write_artifact("ablation_alignment", text)


def test_bench_gapless_throughput(benchmark):
    rng = np.random.default_rng(13)
    pairs = [make_pair(rng, error_rate=0.005, mix=SUB_ONLY) for _ in range(50)]

    def run():
        total = 0
        for a, b in pairs:
            res = extend_gapless(a, b, len(a) // 2, len(b) // 2, 13, 15)
            total += res.a_span
        return total

    result = benchmark(run)
    assert result > 0


def test_bench_banded_throughput(benchmark):
    rng = np.random.default_rng(14)
    pairs = [make_pair(rng, error_rate=0.02, mix=WITH_INDELS) for _ in range(5)]

    def run():
        total = 0
        for a, b in pairs:
            res = extend_banded(a, b, len(a) // 2, len(b) // 2, 13, 15)
            total += res.a_span
        return total

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result > 0
