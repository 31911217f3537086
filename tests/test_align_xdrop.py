"""Unit tests for the x-drop aligner (gapless and banded engines)."""

import numpy as np
import pytest

from repro.align import extend_banded, extend_gapless, xdrop_extend
from repro.errors import AlignmentError
from repro.seq import dna


def seeds_of(a, b, k):
    """Find one exact shared k-mer (testing helper)."""
    for i in range(len(a) - k + 1):
        window = a[i : i + k]
        for j in range(len(b) - k + 1):
            if np.array_equal(window, b[j : j + k]):
                return i, j
    raise AssertionError("no seed found")


class TestGapless:
    def test_perfect_overlap_extends_fully(self):
        genome = dna.encode("ACGTTGCAACGTGGCATTGCAGGATCCAGTA")
        a = genome[:20]
        b = genome[10:]
        res = extend_gapless(a, b, 10, 0, 5, x=10)
        assert res.a_begin == 10 and res.a_end == 20
        assert res.b_begin == 0 and res.b_end == 10
        assert res.score == 10

    def test_extends_left_and_right_of_seed(self):
        genome = dna.encode("ACGTTGCAACGTGGCATTGCAGGATCCAGTA")
        a = genome[:25]
        b = genome[5:]
        sa, sb = seeds_of(a, b, 7)
        res = extend_gapless(a, b, sa, sb, 7, x=10)
        assert res.a_begin == 5 and res.a_end == 25
        assert res.b_begin == 0 and res.b_end == 20

    def test_xdrop_stops_at_junk(self):
        rng = np.random.default_rng(0)
        common = dna.random_codes(rng, 30)
        junk_a = dna.random_codes(rng, 30)
        junk_b = dna.random_codes(rng, 30)
        a = np.concatenate([common, junk_a])
        b = np.concatenate([common, junk_b])
        res = extend_gapless(a, b, 0, 0, 10, x=5)
        # extension should stop near the junk boundary
        assert res.a_end <= 40
        assert res.a_end >= 28

    def test_tolerates_sparse_mismatches(self):
        rng = np.random.default_rng(1)
        common = dna.random_codes(rng, 100)
        b = common.copy()
        b[50] = (b[50] + 1) % 4  # one substitution
        res = extend_gapless(common, b, 0, 0, 10, x=10)
        assert res.a_end == 100
        assert res.score == 100 - 2  # one mismatch costs 2 vs all-match

    def test_score_includes_seed(self):
        a = dna.encode("ACGTACGT")
        res = extend_gapless(a, a.copy(), 0, 0, 8, x=5)
        assert res.score == 8

    def test_invalid_seed_rejected(self):
        a = dna.encode("ACGT")
        with pytest.raises(AlignmentError):
            extend_gapless(a, a, 3, 0, 4, x=5)

    def test_spans(self):
        a = dna.encode("ACGTACGTAC")
        res = extend_gapless(a, a.copy(), 2, 2, 4, x=5)
        assert res.a_span == res.a_end - res.a_begin
        assert res.b_span == res.b_end - res.b_begin


class TestBanded:
    def test_matches_gapless_without_indels(self):
        rng = np.random.default_rng(2)
        common = dna.random_codes(rng, 60)
        a, b = common.copy(), common.copy()
        g = extend_gapless(a, b, 20, 20, 10, x=10)
        d = extend_banded(a, b, 20, 20, 10, x=10)
        assert (g.a_begin, g.a_end, g.b_begin, g.b_end) == (
            d.a_begin, d.a_end, d.b_begin, d.b_end,
        )
        assert g.score == d.score

    def test_crosses_an_insertion(self):
        rng = np.random.default_rng(3)
        left = dna.random_codes(rng, 40)
        right = dna.random_codes(rng, 40)
        a = np.concatenate([left, right])
        b = np.concatenate([left, np.array([0], dtype=np.uint8), right])  # 1bp insert
        res = extend_banded(a, b, 0, 0, 10, x=15)
        # alignment must reach past the insertion into the right half
        assert res.a_end > 50 and res.b_end > 50

    def test_gapless_cannot_cross_insertion(self):
        rng = np.random.default_rng(3)
        left = dna.random_codes(rng, 40)
        right = dna.random_codes(rng, 40)
        a = np.concatenate([left, right])
        b = np.concatenate([left, np.array([0], dtype=np.uint8), right])
        res = extend_gapless(a, b, 0, 0, 10, x=15)
        assert res.a_end <= 55  # stuck around the frame shift

    def test_invalid_seed_rejected(self):
        a = dna.encode("ACGT")
        with pytest.raises(AlignmentError):
            extend_banded(a, a, 0, 2, 4, x=5)

    def test_one_dead_antidiagonal_is_not_the_end(self):
        """At x = 0 both cells of antidiagonal 1 (one gap each) die, but
        antidiagonal 2 is one diagonal move from the seed."""
        rng = np.random.default_rng(4)
        a = dna.random_codes(rng, 500)
        res = xdrop_extend(a, a.copy(), 200, 200, 17, 0, mode="dp")
        assert res == xdrop_extend(a, a.copy(), 200, 200, 17, 0, mode="diag")
        assert (res.a_begin, res.a_end, res.score) == (0, 500, 500)

    def test_band_zero_runs_on_the_seed_diagonal(self):
        """Band 0 leaves every odd antidiagonal empty; each is one dead
        antidiagonal, never two in a row."""
        rng = np.random.default_rng(5)
        a = dna.random_codes(rng, 80)
        res = extend_banded(a, a.copy(), 30, 30, 10, x=3, band=0)
        assert (res.a_begin, res.a_end, res.b_begin, res.b_end) == (0, 80, 0, 80)


class TestDispatch:
    def test_modes(self):
        a = dna.encode("ACGTACGTACGT")
        r1 = xdrop_extend(a, a.copy(), 0, 0, 4, 5, mode="diag")
        r2 = xdrop_extend(a, a.copy(), 0, 0, 4, 5, mode="dp")
        assert r1.a_end == r2.a_end == 12

    def test_unknown_mode(self):
        a = dna.encode("ACGT")
        with pytest.raises(AlignmentError):
            xdrop_extend(a, a, 0, 0, 4, 5, mode="magic")
