"""Ablation: gapless vs banded-DP x-drop across error regimes.

The gapless engine is the fast path for substitution-dominated reads (HiFi
regime); the banded DP survives indels (CLR regime) at a large constant
cost.  This bench measures both the speed gap and the recovery-rate gap.
"""

import time

import numpy as np

from figures import render_matrix
from repro.align import (
    batch_xdrop_extend,
    complemented_pool,
    extend_banded,
    extend_gapless,
    pack_codes,
)
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


def gapless_corpus(rng, npairs=2000, k=21):
    """Seeded candidate pairs shaped like the low-error workloads: reads of
    300-900 bases, 70 % sharing a region at 1 % substitutions (the rest
    unrelated, so their extensions die early), strands mixed."""
    reads, tasks = [], []
    for _ in range(npairs):
        base = dna.random_codes(rng, 1800)
        oa, ob = (int(o) for o in rng.integers(0, 600, 2))
        a = base[oa : oa + int(rng.integers(300, 900))].copy()
        b = base[ob : ob + int(rng.integers(300, 900))].copy()
        lo, hi = max(oa, ob), min(oa + a.size, ob + b.size) - k
        if hi < lo or rng.random() < 0.3:
            b = dna.random_codes(rng, b.size)
            seed_a, seed_b = int(rng.integers(0, a.size - k + 1)), int(rng.integers(0, b.size - k + 1))
        else:
            seed = int(rng.integers(lo, hi + 1))
            seed_a, seed_b = seed - oa, seed - ob
            hits = rng.random(b.size) < 0.01
            b[hits] = (b[hits] + 1) % 4
        same = bool(rng.random() < 0.5)
        reads += [a, b if same else dna.revcomp(b)]
        tasks.append((seed_a, seed_b if same else b.size - k - seed_b, same))
    seed_a, pos_b, same = (np.array(col) for col in zip(*tasks))
    return reads, seed_a, pos_b, same, k


def test_bench_batch_gapless_throughput(benchmark, write_artifact):
    """``batch_xdrop_extend(mode="diag")`` in 512-pair chunks over one
    packed buffer and its pool, as the ``Alignment`` stage calls it."""
    reads, seed_a, pos_b, same, k = gapless_corpus(np.random.default_rng(15))
    buffer, offsets = pack_codes(reads)
    a_idx = np.arange(0, len(reads), 2)
    b_idx = a_idx + 1
    pool = complemented_pool(buffer)

    def run():
        out = []
        for lo in range(0, a_idx.size, 512):
            sl = slice(lo, lo + 512)
            out.append(
                batch_xdrop_extend(
                    buffer, offsets, a_idx[sl], b_idx[sl], seed_a[sl], pos_b[sl],
                    same[sl], k, 15, mode="diag", comp_pool=pool,
                )
            )
        return out

    results = run()
    # cells: the bases each gapless row may scan, both sides of every seed
    lengths = np.diff(offsets)
    la, lb = lengths[a_idx], lengths[b_idx]
    seed_b = np.where(same, pos_b, lb - k - pos_b)
    cells = int(
        (np.minimum(la - seed_a - k, lb - seed_b - k) + np.minimum(seed_a, seed_b)).sum()
    )
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    median = float(np.median(times))
    text = (
        "Batched gapless x-drop (numpy tier, x = 15, k = 21)\n"
        f"pairs {a_idx.size}  cells {cells}  median {median * 1e3:.1f} ms "
        f"over 5 runs\n"
        f"{a_idx.size / median:,.0f} pairs/s  {cells / median / 1e6:.1f} Mcells/s"
    )
    write_artifact("batch_gapless_throughput", text)
    assert sum(int((r.a_span > 2 * k).sum()) for r in results) > a_idx.size // 2
    benchmark.pedantic(run, rounds=3, iterations=1)
