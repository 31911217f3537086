"""Unit tests for the semiring abstraction and the pipeline semirings."""

import numpy as np
import pytest

from repro.sparse import (
    DIRMIN_DTYPE,
    KMER_POS_DTYPE,
    SEED_DTYPE,
    SUFFIX_INF,
    arithmetic_semiring,
    count_semiring,
    dirmin_semiring,
    seed_semiring,
)
from repro.sparse.types import OVERLAP_DTYPE


class TestNumericSemirings:
    def test_arithmetic(self):
        sr = arithmetic_semiring()
        prod = sr.multiply(np.array([2.0, 3.0]), np.array([4.0, 5.0]))
        assert list(prod) == [8.0, 15.0]
        red = sr.add_reduce(np.array([1.0, 2.0, 3.0]), np.array([0, 2]))
        assert list(red) == [3.0, 3.0]

    def test_count(self):
        sr = count_semiring()
        prod = sr.multiply(np.zeros(3), np.zeros(3))
        assert list(prod) == [1, 1, 1]
        red = sr.add_reduce(np.ones(4, dtype=np.int64), np.array([0, 1]))
        assert list(red) == [1, 3]


class TestSeedSemiring:
    def _kv(self, pos, orient):
        out = np.zeros(len(pos), dtype=KMER_POS_DTYPE)
        out["pos"] = pos
        out["orient"] = orient
        return out

    def test_multiply_builds_seeds(self):
        sr = seed_semiring()
        a = self._kv([3, 7], [1, 1])
        b = self._kv([10, 2], [1, -1])
        seeds = sr.multiply(a, b)
        assert seeds.dtype == SEED_DTYPE
        assert list(seeds["count"]) == [1, 1]
        assert list(seeds["pos_a"]) == [3, 7]
        assert list(seeds["pos_b"]) == [10, 2]
        assert list(seeds["same_strand"]) == [1, 0]

    def test_multiply_rejects_wrong_dtype(self):
        with pytest.raises(TypeError):
            seed_semiring().multiply(np.zeros(2), np.zeros(2))

    def test_add_counts_and_keeps_min_pos_a_seed(self):
        sr = seed_semiring()
        seeds = np.zeros(4, dtype=SEED_DTYPE)
        seeds["count"] = 1
        seeds["pos_a"] = [9, 2, 5, 1]
        seeds["pos_b"] = [90, 20, 50, 10]
        # two segments: [0:3), [3:4)
        red = sr.add_reduce(seeds, np.array([0, 3]))
        assert list(red["count"]) == [3, 1]
        assert red["pos_a"][0] == 2 and red["pos_b"][0] == 20
        assert red["pos_a"][1] == 1


class TestDirminSemiring:
    def _edges(self, dirs, suffixes):
        out = np.zeros(len(dirs), dtype=OVERLAP_DTYPE)
        out["dir"] = dirs
        out["suffix"] = suffixes
        return out

    def test_compatible_walk_composes(self):
        """i->k with dir (1,0): enter k at prefix; k->j must exit via
        suffix (src bit 1)."""
        sr = dirmin_semiring()
        a = self._edges([0b10], [100])
        b = self._edges([0b10], [50])
        out = sr.multiply(a, b)
        assert out.dtype == DIRMIN_DTYPE
        composed_dir = 0b10  # (src of a, dst of b) = (1, 0)
        assert out["minsuf"][0, composed_dir] == 150
        others = [d for d in range(4) if d != composed_dir]
        assert all(out["minsuf"][0, d] == SUFFIX_INF for d in others)

    def test_incompatible_walk_records_nothing(self):
        """Enter k at prefix (dst bit 0) then exit via prefix (src bit 0):
        invalid."""
        sr = dirmin_semiring()
        a = self._edges([0b10], [100])  # dst bit 0: enter k's prefix
        b = self._edges([0b00], [50])   # src bit 0: exit k's prefix again
        out = sr.multiply(a, b)
        assert np.all(out["minsuf"] == SUFFIX_INF)

    def test_add_takes_per_direction_min(self):
        sr = dirmin_semiring()
        vals = np.zeros(2, dtype=DIRMIN_DTYPE)
        vals["minsuf"][:] = SUFFIX_INF
        vals["minsuf"][0, 2] = 100
        vals["minsuf"][1, 2] = 60
        red = sr.add_reduce(vals, np.array([0]))
        assert red["minsuf"][0, 2] == 60

    def test_valid_mask_filters_all_inf(self):
        sr = dirmin_semiring()
        vals = np.zeros(2, dtype=DIRMIN_DTYPE)
        vals["minsuf"][:] = SUFFIX_INF
        vals["minsuf"][1, 0] = 5
        assert list(sr.valid_mask(vals)) == [False, True]

    def test_all_direction_pairs(self):
        """Exhaustive: composition valid iff dst-bit(a) != src-bit(b)."""
        sr = dirmin_semiring()
        for d1 in range(4):
            for d2 in range(4):
                a = self._edges([d1], [10])
                b = self._edges([d2], [20])
                out = sr.multiply(a, b)
                valid = (d1 & 1) != ((d2 >> 1) & 1)
                if valid:
                    cd = (d1 & 2) | (d2 & 1)
                    assert out["minsuf"][0, cd] == 30, (d1, d2)
                else:
                    assert np.all(out["minsuf"] == SUFFIX_INF), (d1, d2)
