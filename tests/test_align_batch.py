"""Property tests: the batched engine is bit-identical to the scalar one.

The contract of :mod:`repro.align.batch` is exact element-wise agreement
with :func:`repro.align.xdrop.xdrop_extend` and
:func:`repro.align.classify.classify_overlap` -- both strands, both modes,
edge seeds at sequence boundaries, zero-length extensions.  These tests
enforce it on randomized corpora plus handcrafted edge cases.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import (
    KIND_CONTAINED_A,
    KIND_CONTAINED_B,
    KIND_DOVETAIL,
    KIND_INTERNAL,
    OverlapClass,
    batch_xdrop_extend,
    classify_overlap,
    classify_overlaps,
    complemented_pool,
    pack_codes,
    xdrop_extend,
)
from repro.align.batch import _CHECK_EVERY, _banded_side_batch, _score_dtype
from repro.align.xdrop import _banded_one_side
from repro.errors import AlignmentError
from repro.kmer import build_kmer_matrix, count_kmers
from repro.mpi import ProcGrid, SimWorld, zero_cost
from repro.overlap import detect_overlaps
from repro.seq import DistReadStore, GenomeSpec, dna, make_genome, sample_reads
from repro.telemetry.metrics import get_registry

KIND_OF_CLASS = {
    OverlapClass.DOVETAIL: KIND_DOVETAIL,
    OverlapClass.CONTAINED_A: KIND_CONTAINED_A,
    OverlapClass.CONTAINED_B: KIND_CONTAINED_B,
    OverlapClass.INTERNAL: KIND_INTERNAL,
}


def random_corpus(rng, npairs, seed_len, min_len=None, max_len=400, related=0.7):
    """Reads plus valid random seeds: mixed strands, boundary seeds included.

    A ``related`` fraction of pairs shares a mutated overlap region (so
    extensions actually run); the rest are unrelated reads whose seeds
    anchor junk extensions that die immediately.
    """
    min_len = min_len if min_len is not None else seed_len
    reads = []
    tasks = []  # (a_idx, b_idx, seed_a, pos_b, same)
    for _ in range(npairs):
        la = int(rng.integers(min_len, max_len + 1))
        lb = int(rng.integers(min_len, max_len + 1))
        if rng.random() < related:
            base = dna.random_codes(rng, max(la, lb))
            a = base[:la].copy()
            b = base[:lb].copy()
            nmut = int(rng.integers(0, max(lb // 20, 1)))
            for _ in range(nmut):
                p = int(rng.integers(0, lb))
                b[p] = (b[p] + 1) % 4
        else:
            a = dna.random_codes(rng, la)
            b = dna.random_codes(rng, lb)
        same = bool(rng.random() < 0.5)
        # force some seeds onto the exact boundaries (zero-length sides)
        edge = rng.random()
        if edge < 0.15:
            sa = 0
        elif edge < 0.3:
            sa = la - seed_len
        else:
            sa = int(rng.integers(0, la - seed_len + 1))
        pb = int(rng.integers(0, lb - seed_len + 1))
        if not same:
            # plant the seed so the oriented extension still sees homology
            b = dna.revcomp(b)
        a_idx = len(reads)
        reads.append(a)
        reads.append(b)
        tasks.append((a_idx, a_idx + 1, sa, pb, same))
    return reads, tasks


def scalar_reference(reads, tasks, seed_len, x, mode, **kwargs):
    """Run the scalar engine the way overlap/filter.py historically did."""
    out = []
    for a_idx, b_idx, sa, pb, same in tasks:
        a = reads[a_idx]
        b = reads[b_idx]
        if same:
            b_oriented = b
            sb = pb
        else:
            b_oriented = dna.revcomp(b)
            sb = b.size - seed_len - pb
        out.append(
            xdrop_extend(a, b_oriented, sa, sb, seed_len, x, mode=mode, **kwargs)
        )
    return out


def run_batch(reads, tasks, seed_len, x, mode, **kwargs):
    buffer, offsets = pack_codes(reads)
    a_idx = np.array([t[0] for t in tasks], dtype=np.int64)
    b_idx = np.array([t[1] for t in tasks], dtype=np.int64)
    sa = np.array([t[2] for t in tasks], dtype=np.int64)
    pb = np.array([t[3] for t in tasks], dtype=np.int64)
    same = np.array([t[4] for t in tasks], dtype=bool)
    return batch_xdrop_extend(
        buffer, offsets, a_idx, b_idx, sa, pb, same, seed_len, x, mode=mode, **kwargs
    )


def assert_identical(batch, scalars):
    assert len(batch) == len(scalars)
    for p, ref in enumerate(scalars):
        got = batch.item(p)
        assert got == ref, f"pair {p}: batch {got} != scalar {ref}"


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("mode", ["diag", "dp"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_pairs(self, mode, seed):
        rng = np.random.default_rng(100 + seed)
        npairs = 60 if mode == "dp" else 150
        reads, tasks = random_corpus(rng, npairs, seed_len=13, max_len=220)
        scalars = scalar_reference(reads, tasks, 13, 15, mode)
        batch = run_batch(reads, tasks, 13, 15, mode)
        assert_identical(batch, scalars)

    @pytest.mark.parametrize("mode", ["diag", "dp"])
    def test_tight_xdrop_and_scores(self, mode):
        rng = np.random.default_rng(7)
        reads, tasks = random_corpus(rng, 50, seed_len=9, max_len=120, related=0.5)
        scalars = scalar_reference(
            reads, tasks, 9, 3, mode, match=2, mismatch=-3
        )
        batch = run_batch(reads, tasks, 9, 3, mode, match=2, mismatch=-3)
        assert_identical(batch, scalars)

    def test_dp_band_and_gap_knobs(self):
        rng = np.random.default_rng(8)
        reads, tasks = random_corpus(rng, 30, seed_len=11, max_len=150)
        scalars = scalar_reference(reads, tasks, 11, 10, "dp", gap=-2, band=4)
        batch = run_batch(reads, tasks, 11, 10, "dp", gap=-2, band=4)
        assert_identical(batch, scalars)

    @pytest.mark.parametrize("mode", ["diag", "dp"])
    def test_seed_spans_whole_read(self, mode):
        """Zero-length extensions on both sides (read length == seed length)."""
        rng = np.random.default_rng(9)
        a = dna.random_codes(rng, 15)
        reads = [a, a.copy(), dna.revcomp(a)]
        tasks = [(0, 1, 0, 0, True), (0, 2, 0, 0, False)]
        scalars = scalar_reference(reads, tasks, 15, 15, mode)
        batch = run_batch(reads, tasks, 15, 15, mode)
        assert_identical(batch, scalars)
        assert batch.a_span.tolist() == [15, 15]

    @pytest.mark.parametrize("mode", ["diag", "dp"])
    def test_boundary_seeds(self, mode):
        """Seeds flush against either end of either read."""
        rng = np.random.default_rng(10)
        genome = dna.random_codes(rng, 200)
        a = genome[:120].copy()
        b = genome[60:].copy()
        reads = [a, b, dna.revcomp(b)]
        k = 10
        tasks = [
            (0, 1, 60, 0, True),            # b prefix seed
            (0, 1, 110, 50, True),          # a suffix seed
            (0, 2, 60, b.size - k, False),  # reverse strand, stored-suffix seed
            (0, 2, 110, b.size - k - 50, False),
        ]
        scalars = scalar_reference(reads, tasks, k, 15, mode)
        batch = run_batch(reads, tasks, k, 15, mode)
        assert_identical(batch, scalars)

    def test_empty_batch(self):
        buffer, offsets = pack_codes([np.zeros(5, dtype=np.uint8)])
        empty = np.empty(0, dtype=np.int64)
        res = batch_xdrop_extend(
            buffer, offsets, empty, empty, empty, empty,
            np.empty(0, dtype=bool), 3, 15,
        )
        assert len(res) == 0

    def test_precomputed_comp_pool_matches(self):
        """A reused complemented pool gives the same results as none."""
        rng = np.random.default_rng(12)
        reads, tasks = random_corpus(rng, 40, seed_len=11, max_len=150)
        buffer, offsets = pack_codes(reads)
        pool = complemented_pool(buffer)
        n = buffer.size
        assert np.array_equal(pool[:n], buffer)
        assert np.array_equal(pool[n : 2 * n], 3 - buffer)
        assert np.array_equal(pool[2 * n : 4 * n], pool[: 2 * n][::-1])
        assert pool.size == 5 * n and not pool[4 * n :].any()
        fresh = run_batch(reads, tasks, 11, 15, "diag")
        reused = run_batch(reads, tasks, 11, 15, "diag", comp_pool=pool)
        for field in ("score", "a_begin", "a_end", "b_begin", "b_end"):
            assert np.array_equal(getattr(fresh, field), getattr(reused, field))

    def test_wrong_sized_comp_pool_raises(self):
        reads = [np.zeros(10, dtype=np.uint8), np.zeros(10, dtype=np.uint8)]
        with pytest.raises(AlignmentError):
            run_batch(
                reads, [(0, 1, 0, 0, True)], 5, 15, "diag",
                comp_pool=np.zeros(7, dtype=np.uint8),
            )

    def test_invalid_seed_raises(self):
        reads = [np.zeros(10, dtype=np.uint8), np.zeros(10, dtype=np.uint8)]
        with pytest.raises(AlignmentError):
            run_batch(reads, [(0, 1, 8, 0, True)], 5, 15, "diag")

    def test_unknown_mode_raises(self):
        reads = [np.zeros(10, dtype=np.uint8), np.zeros(10, dtype=np.uint8)]
        with pytest.raises(AlignmentError):
            run_batch(reads, [(0, 1, 0, 0, True)], 5, 15, "smith-waterman")


#: slice lengths on both sides of the gapless kernel's window buckets
#: (a window has 2**j > n columns, at least 32)
SLICE_LENGTHS = (0, 1, 2, 30, 31, 32, 33, 63, 64, 65, 127, 128, 255, 256, 511, 512, 600)


@st.composite
def gapless_batches(draw):
    """One batch of seeded pairs: flank lengths straddling the buckets,
    both strands, seeds at read ends (zero-length flanks), and flanks that
    are identical, lightly mutated, heavily mutated or unrelated."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 12))
    flank = st.one_of(st.sampled_from(SLICE_LENGTHS), st.integers(0, 600))
    reads, tasks = [], []
    for _ in range(draw(st.integers(1, 16))):
        la, ra, lb, rb = (draw(flank) for _ in range(4))
        mid = max(la, lb)
        core = dna.random_codes(rng, mid + k + max(ra, rb))
        a = core[mid - la : mid + k + ra].copy()
        b = core[mid - lb : mid + k + rb].copy()
        rate = draw(st.sampled_from([0.0, 0.01, 0.3]))
        hits = rng.random(b.size) < rate
        b[hits] = (b[hits] + rng.integers(1, 4, int(hits.sum()))) % 4
        if draw(st.booleans()):
            b = dna.random_codes(rng, b.size)
        same = draw(st.booleans())
        pos_b = lb if same else b.size - k - lb
        reads += [a, b if same else dna.revcomp(b)]
        tasks.append((len(reads) - 2, len(reads) - 1, la, pos_b, same))
    return reads, tasks, k


class TestGaplessEventKernel:
    """``mode="diag"`` against the scalar ``xdrop_extend`` on any scoring:
    equal, inverted and non-positive step scores, every x-drop from -1
    up, and scores of 2**22 per base."""

    @given(
        gapless_batches(),
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.one_of(st.integers(-1, 2), st.integers(-1, 25)),
        st.sampled_from([1, 1 << 22]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar(self, batch, match, mismatch, x, scale):
        reads, tasks, k = batch
        kwargs = dict(match=match * scale, mismatch=mismatch * scale)
        assert_identical(
            run_batch(reads, tasks, k, x * scale, "diag", **kwargs),
            scalar_reference(reads, tasks, k, x * scale, "diag", **kwargs),
        )

    @pytest.mark.parametrize("x", [-1, 0, 1, 2])
    @pytest.mark.parametrize("match,mismatch", [(1, -1), (2, -3), (1, -3), (-1, 1)])
    def test_first_step_down_then_climb(self, x, match, mismatch):
        """Both flanks open with the lower step and then climb: at x = 0
        the scan must not stop on its first position (there is no score
        before it to drop from), and x = -1 stops every scan at once."""
        rng = np.random.default_rng(35)
        a = dna.random_codes(rng, 81)
        b = a.copy()
        b[[29, 51]] = (b[[29, 51]] + 1) % 4  # first base of each flank
        if mismatch > match:
            b = (a + 1) % 4
            b[30:51] = a[30:51]
            b[[29, 51]] = a[[29, 51]]
        reads = [a, b, dna.revcomp(b)]
        tasks = [(0, 1, 30, 30, True), (0, 2, 30, 30, False)]
        assert_identical(
            run_batch(reads, tasks, 21, x, "diag", match=match, mismatch=mismatch),
            scalar_reference(reads, tasks, 21, x, "diag", match=match, mismatch=mismatch),
        )

    @pytest.mark.parametrize("shift,npairs", [(22, 40), (42, 1200)])
    def test_int64_scores(self, shift, npairs):
        """The row keys stay inside int64: at 2**42 per base the ~2000 rows
        of this batch cannot share one running max and must be split."""
        rng = np.random.default_rng(34)
        reads, tasks = random_corpus(rng, npairs, seed_len=11, max_len=600)
        big = 1 << shift
        kwargs = dict(match=big, mismatch=-big)
        got = run_batch(reads, tasks, 11, 7 * big, "diag", **kwargs)
        assert_identical(got, scalar_reference(reads, tasks, 11, 7 * big, "diag", **kwargs))
        assert (got.score > 11 * big).any()  # some extension ran


def mutate_indels(rng, seq, rate):
    """Copy ``seq`` with substitutions, insertions and deletions (1/3 each)."""
    out = []
    for code in seq.tolist():
        r = rng.random()
        if r < rate / 3:
            continue
        if r < 2 * rate / 3:
            out.append(int(rng.integers(0, 4)))
            out.append(code)
        elif r < rate:
            out.append((code + 1) % 4)
        else:
            out.append(code)
    return np.array(out, dtype=np.uint8)


def banded_lanes(pairs):
    """``(pool, start_a, start_b, na, nb)``: every side packed into one
    :func:`complemented_pool`, each lane's slices forward windows of it,
    with junk after each slice."""
    junk = np.full(7, 2, dtype=np.uint8)
    seqs = [s for pair in pairs for s in pair]
    buffer, offsets = pack_codes([np.concatenate([s, junk]) for s in seqs])
    na = np.array([a.size for a, _ in pairs], dtype=np.int64)
    nb = np.array([b.size for _, b in pairs], dtype=np.int64)
    return complemented_pool(buffer), offsets[0:-1:2], offsets[1:-1:2], na, nb


def assert_banded_matches_scalar(pairs, x, match=1, mismatch=-1, gap=-1, band=16):
    """``_banded_side_batch`` equals ``_banded_one_side`` on every lane."""
    got = _banded_side_batch(*banded_lanes(pairs), x, match, mismatch, gap, band)
    for p, (a, b) in enumerate(pairs):
        ref = _banded_one_side(a, b, x, match, mismatch, gap, band)
        assert tuple(int(v[p]) for v in got) == ref, f"lane {p} ({a.size}, {b.size})"
    return got


class TestBandedWavefront:
    """The compacting wavefront lane by lane against the scalar oracle."""

    @pytest.mark.parametrize("gap", [-1, -2])
    @pytest.mark.parametrize("x", [0, 1, 7])
    @pytest.mark.parametrize("band", [0, 1, 5, 16])
    def test_indel_corpus_with_mixed_lengths(self, band, x, gap):
        """Indels; lane lengths 10x apart in halving groups, so the working
        set compacts several times; empty sides on either sequence."""
        rng = np.random.default_rng(1000 + 10 * band + 3 * x - gap)
        pairs = []
        for length, count in ((3, 16), (30, 8), (300, 4)):
            for _ in range(count):
                a = dna.random_codes(rng, length + int(rng.integers(0, length + 1)))
                b = mutate_indels(rng, a, float(rng.choice([0.0, 0.04, 0.12])))
                pairs.append((a, b) if rng.random() < 0.5 else (b, a))
        pairs.append((dna.random_codes(rng, 200), dna.random_codes(rng, 150)))
        pairs.append((np.empty(0, dtype=np.uint8), dna.random_codes(rng, 40)))
        pairs.append((dna.random_codes(rng, 40), np.empty(0, dtype=np.uint8)))
        order = rng.permutation(len(pairs))
        assert_banded_matches_scalar([pairs[i] for i in order], x, gap=gap, band=band)

    def test_retired_lane_stays_retired(self):
        """A lane that x-drops out while its neighbours run on never comes
        back: its last live cells must not feed a later diagonal move, even
        though an identical tail follows the junk that killed it."""
        rng = np.random.default_rng(31)
        head, tail = dna.random_codes(rng, 6), dna.random_codes(rng, 150)
        junk = dna.random_codes(rng, 12)
        trap = (
            np.concatenate([head, junk, tail]),
            np.concatenate([head, (junk + 1) % 4, tail]),
        )
        runners = [(c, c.copy()) for c in (dna.random_codes(rng, 160) for _ in range(3))]
        got = assert_banded_matches_scalar([trap, *runners], x=2)
        assert got[2][0] < 10  # stopped in the junk
        assert got[2][1:].tolist() == [160] * 3
        # one dead antidiagonal is not the end: at x = 0 antidiagonal 1
        # (two gap cells) dies, antidiagonal 2 continues diagonally
        got = assert_banded_matches_scalar(runners, x=0)
        assert got[0].tolist() == [160] * 3

    def test_int64_scores(self):
        """Scores of 2**22 per base cannot fit the int32 planes."""
        rng = np.random.default_rng(32)
        same = dna.random_codes(rng, 60)
        pairs = [(same, same.copy())]
        for length in (5, 20, 60):
            a = dna.random_codes(rng, length)
            pairs.append((a, mutate_indels(rng, a, 0.1)))
        pairs.append((dna.random_codes(rng, 30), dna.random_codes(rng, 45)))
        big = 1 << 22
        got = assert_banded_matches_scalar(
            pairs, x=7 * big, match=big, mismatch=-big, gap=-big, band=5
        )
        assert got[2][0] == 60 * big

    def test_unbounded_xdrop(self):
        """``x = 2**40`` never fires: every lane runs to its last cell, and
        a 30-mismatch valley does not stop the one that climbs out of it."""
        rng = np.random.default_rng(33)
        valley = dna.random_codes(rng, 130)
        pairs = [(valley, np.concatenate([valley[:20], (valley[20:50] + 1) % 4, valley[50:]]))]
        for length in (5, 20, 60):
            a = dna.random_codes(rng, length)
            pairs.append((a, mutate_indels(rng, a, 0.1)))
        pairs.append((dna.random_codes(rng, 30), dna.random_codes(rng, 45)))
        got = assert_banded_matches_scalar(pairs, x=2**40, band=5)
        assert got[2][0] > 80  # past the valley

    def test_peak_memory_per_gathered_cell(self):
        """A 2 048-pair ``dp`` call peaks at <= 1 byte per gathered cell:
        per pair, the longest slice of each side of ``a`` and ``b``, the
        matrices a per-pair gather would materialise."""
        rng = np.random.default_rng(35)
        reads, tasks = random_corpus(rng, 2048, 17, max_len=800)
        buffer, offsets = pack_codes(reads)
        a_idx, b_idx, sa, pb = (np.array([t[c] for t in tasks]) for c in range(4))
        same = np.array([t[4] for t in tasks])
        lengths = np.diff(offsets)
        sb = np.where(same, pb, lengths[b_idx] - 17 - pb)
        sides = (sa, lengths[a_idx] - sa - 17, sb, lengths[b_idx] - sb - 17)
        cells = len(tasks) * sum(int(side.max()) for side in sides)
        pool = complemented_pool(buffer)
        tracemalloc.start()
        try:
            res = batch_xdrop_extend(
                buffer, offsets, a_idx, b_idx, sa, pb, same, 17, 7,
                mode="dp", comp_pool=pool,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.a_span > 200).sum() > 500  # long extensions ran
        assert peak <= 1.0 * cells, f"{peak / cells:.2f} bytes per cell"

    @pytest.mark.parametrize(
        "x,top,low,base",
        [(7, 1, 0, 15), (7, 2, 5, 15), (7, 1, 0, 31), (3, 4, 2, 31)],
    )
    def test_score_dtype_edges(self, x, top, low, base):
        """The tier changes exactly where the bound reaches ``2**base``:
        it stays narrow one step below (``2**base - 1`` at ``low = 0``)
        and widens at and one step above it."""
        off = 1 << ((x + 2 * top) << low).bit_length()
        assert off > (x + 2 * top) << low >= off // 2
        narrow, wide = {15: (np.int16, np.int32), 31: (np.int32, np.int64)}[base]
        peak = ((1 << base) - off >> low) - 2 * top - 1  # bound at 2**base
        for step, want in ((-1, narrow), (0, wide), (1, wide)):
            assert _score_dtype(peak + step, top, x, low) == (want, off)

    @pytest.mark.parametrize(
        "length,dtype", [(500, np.int16), (501, np.int16), (502, np.int32)]
    )
    def test_identical_pairs_at_the_int16_edge(self, length, dtype):
        """match = 2, band 16, x = 7: identical pairs of 501 bases score
        the peak 1 002 in the last int16 tier; 502 bases take int32."""
        rng = np.random.default_rng(length)
        same = dna.random_codes(rng, length)
        pairs = [(same, same.copy())]
        for n in (40, 200, length):
            a = dna.random_codes(rng, n)
            pairs.append((a, mutate_indels(rng, a, 0.08)))
        pairs.append((dna.random_codes(rng, 30), dna.random_codes(rng, 45)))
        assert _score_dtype(2 * length, 2, 7, 5)[0] is dtype
        got = assert_banded_matches_scalar(pairs, x=7, match=2)
        assert got[2][0] == 2 * length

    def test_identical_pairs_at_the_int32_edge(self):
        """The largest ``match`` whose peak fits int32 and the next one,
        with mismatch and gap -match, x = 7 match and band 5."""
        rng = np.random.default_rng(36)
        same = dna.random_codes(rng, 60)
        pairs = [(same, same.copy())]
        for n in (5, 20, 60):
            a = dna.random_codes(rng, n)
            pairs.append((a, mutate_indels(rng, a, 0.1)))

        def tier(m):
            return _score_dtype(60 * m, m, 7 * m, 3)[0]

        lo, hi = 1, 1 << 24  # int32 at lo, int64 at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if tier(mid) is np.int32 else (lo, mid)
        assert tier(lo) is np.int32 and tier(hi) is np.int64
        for m in (lo, hi):
            got = assert_banded_matches_scalar(
                pairs, x=7 * m, match=m, mismatch=-m, gap=-m, band=5
            )
            assert got[2][0] == 60 * m

    @pytest.mark.parametrize("excess", [-1, 0, 1, 1000])
    def test_xdrop_near_its_clamp(self, excess):
        """``x`` above ``2 * max_anti * top`` never fires, so it is clamped
        there; around the clamp every lane matches the oracle."""
        rng = np.random.default_rng(37)
        pairs = []
        for n in (8, 30, 90):
            a = dna.random_codes(rng, n)
            pairs.append((a, mutate_indels(rng, a, 0.2)))
        pairs.append((dna.random_codes(rng, 50), dna.random_codes(rng, 70)))
        max_anti = max(
            min(a.size + b.size, 2 * min(a.size, b.size) + 4) for a, b in pairs
        )
        x = 2 * max_anti * 2 + 1 + excess
        assert_banded_matches_scalar(pairs, x=x, match=2, mismatch=-1, gap=-2, band=4)

    def test_lanes_die_on_every_residue_of_the_check(self):
        """x = 1: an identical pair of h bases is last live on antidiagonal
        2h, one whose b has one more base on 2h + 1 (the gap cell (h, h +
        1)); h = 1 .. K covers every residue mod K while long runners keep
        the wavefront going past the checks."""
        rng = np.random.default_rng(38)
        pairs, last = [], []
        for h in range(1, _CHECK_EVERY + 1):
            a = dna.random_codes(rng, h)
            pairs.append((a, a.copy()))
            pairs.append((a, np.concatenate([a, dna.random_codes(rng, 1)])))
            last += [2 * h, 2 * h + 1]
        assert {s % _CHECK_EVERY for s in last} == set(range(_CHECK_EVERY))
        runners = [
            (c, mutate_indels(rng, c, 0.02))
            for c in (dna.random_codes(rng, 150) for _ in range(3))
        ]
        order = rng.permutation(len(pairs) + 3)
        lanes = [(pairs + runners)[i] for i in order]
        got = assert_banded_matches_scalar(lanes, x=1)
        for p, i in enumerate(order):
            if i < len(pairs):
                h = pairs[i][0].size
                assert (got[0][p], got[1][p], got[2][p]) == (h, h, h)

    def test_every_lane_dead_before_the_first_check(self):
        """Complementary pairs die on antidiagonal 2 at x = 0: the call
        stops at the first check, antidiagonal K, and counts K rounds."""
        rng = np.random.default_rng(39)
        pairs = []
        for n in (20, 60, 100):
            a = dna.random_codes(rng, n)
            pairs.append((a, (a + 1) % 4))
        rounds = get_registry().counter("align.banded_rounds")
        before = rounds.value
        got = assert_banded_matches_scalar(pairs, x=0)
        assert rounds.value - before == _CHECK_EVERY
        assert not any(v.any() for v in got)

    def test_single_lane_tail(self):
        """Many short lanes and one long runner: the working set compacts
        down to one lane, which runs on alone to its last antidiagonal."""
        rng = np.random.default_rng(40)
        pairs = []
        for _ in range(40):
            a = dna.random_codes(rng, int(rng.integers(3, 40)))
            pairs.append((a, mutate_indels(rng, a, 0.1)))
        runner = dna.random_codes(rng, 400)
        pairs.insert(17, (runner, runner.copy()))
        rounds = get_registry().counter("align.banded_rounds")
        before = rounds.value
        got = assert_banded_matches_scalar(pairs, x=3)
        assert got[2][17] == 400
        assert rounds.value - before == 800  # the runner's last antidiagonal

    @pytest.mark.parametrize(
        "match,mismatch,gap", [(1, 1, -1), (1, -1, 1), (2, 0, 0), (3, 0, -2)]
    )
    def test_steps_that_do_not_lose(self, match, mismatch, gap):
        """A positive gap or mismatch lets a cell past a sequence top the
        best, so those cells are tested and killed; zero steps tie."""
        rng = np.random.default_rng(41 + match - 3 * mismatch + 7 * gap)
        pairs = []
        for length, count in ((3, 8), (30, 8), (120, 6)):
            for _ in range(count):
                a = dna.random_codes(rng, length + int(rng.integers(0, length + 1)))
                b = mutate_indels(rng, a, float(rng.choice([0.0, 0.04, 0.12])))
                pairs.append((a, b) if rng.random() < 0.5 else (b, a))
        pairs.append((dna.random_codes(rng, 90), dna.random_codes(rng, 50)))
        for band in (0, 3, 8):
            for x in (0, 7, 30):
                assert_banded_matches_scalar(
                    pairs, x, match=match, mismatch=mismatch, gap=gap, band=band
                )

    def test_real_candidate_geometry(self):
        """4 %-error reads with indels at the paper's high-error k = 17,
        x = 7: batch ``dp`` equals scalar on every upper-triangle candidate
        of C, seeds and strands as ``detect_overlaps`` emits them."""
        genome = make_genome(GenomeSpec(length=1600, seed=17))
        reads = sample_reads(
            genome, depth=8, mean_length=200, rng=4, error_rate=0.04,
            error_mix=(0.2, 0.4, 0.4),
        ).reads
        store = DistReadStore.from_global(ProcGrid(SimWorld(1, zero_cost())), reads)
        table = count_kmers(store, 17, reliable_lo=2)
        C, _ = detect_overlaps(build_kmer_matrix(store, table))
        rows, cols, vals = C.to_global_coo()
        upper = rows < cols
        tasks = [
            (int(r), int(c), int(v["pos_a"]), int(v["pos_b"]), bool(v["same_strand"]))
            for r, c, v in zip(rows[upper], cols[upper], vals[upper])
        ]
        assert len(tasks) >= 400
        assert_identical(
            run_batch(reads, tasks, 17, 7, "dp"),
            scalar_reference(reads, tasks, 17, 7, "dp"),
        )


class TestClassifyBatch:
    @pytest.mark.parametrize("mode", ["diag", "dp"])
    @pytest.mark.parametrize("end_margin", [0, 5, 10])
    def test_matches_scalar_classifier(self, mode, end_margin):
        rng = np.random.default_rng(42)
        reads, tasks = random_corpus(rng, 120, seed_len=13, max_len=200)
        scalars = scalar_reference(reads, tasks, 13, 15, mode)
        batch = run_batch(reads, tasks, 13, 15, mode)
        alen = np.array([reads[t[0]].size for t in tasks], dtype=np.int64)
        blen = np.array([reads[t[1]].size for t in tasks], dtype=np.int64)
        same = np.array([t[4] for t in tasks], dtype=bool)
        cls = classify_overlaps(batch, alen, blen, same, end_margin=end_margin)
        ndove = 0
        for p, res in enumerate(scalars):
            info = classify_overlap(
                res, int(alen[p]), int(blen[p]), bool(same[p]),
                end_margin=end_margin,
            )
            assert int(cls.kind[p]) == KIND_OF_CLASS[info.kind], f"pair {p}"
            assert int(cls.score[p]) == info.score
            if info.kind != OverlapClass.DOVETAIL:
                continue
            ndove += 1
            for half, fields in (("forward", info.forward), ("reverse", info.reverse)):
                arrs = getattr(cls, half)
                assert int(arrs.direction[p]) == fields.direction, f"pair {p} {half}"
                assert int(arrs.suffix[p]) == fields.suffix, f"pair {p} {half}"
                assert int(arrs.pre[p]) == fields.pre, f"pair {p} {half}"
                assert int(arrs.post[p]) == fields.post, f"pair {p} {half}"
        # the corpus must actually exercise the dovetail payload path
        if end_margin == 10:
            assert ndove > 0
