"""Graeco-Latin squares (aggregates.graeco_latin_int) and Birkhoff
decomposition (aggregates.birkhoff_int) kernel pins."""

import random

from documentai_ray.extras import (BIRKHOFF_PERMS, birkhoff_int,
                                   graeco_latin_int)


class TestGraecoLatin:
    def test_cells_and_orthogonality(self):
        out = graeco_latin_int(0, 1)
        assert len(out) == 25
        assert out["pair_code"].nunique() == 25   # orthogonal
        # latin property per row/column
        for i in range(5):
            assert out[out["i"] == i]["latin"].nunique() == 5
            assert out[out["j"] == i]["latin"].nunique() == 5
            assert out[out["i"] == i]["greek"].nunique() == 5

    def test_equal_seed_bump(self):
        out = graeco_latin_int(2, 2)   # a0 = b0 = 3 -> b bumped
        a, b = out["a"].iloc[0], out["b"].iloc[0]
        assert a != b

    def test_all_seed_pairs_orthogonal(self):
        for s1 in range(4):
            for s2 in range(4):
                out = graeco_latin_int(s1, s2)
                assert out["pair_code"].nunique() == 25


class TestBirkhoff:
    def test_perm_table(self):
        assert len(BIRKHOFF_PERMS) == 24
        assert BIRKHOFF_PERMS[0] == [0, 1, 2, 3]
        assert BIRKHOFF_PERMS[23] == [3, 2, 1, 0]

    def test_recovers_construction(self):
        # distinct weights on the four build perms: the greedy
        # extracts exactly those four (lex order) with the same
        # weights
        out = birkhoff_int([3, 5, 2, 8])   # w = 4, 6, 3, 9
        assert list(out["perm_rank"]) == [0, 9, 16, 23]
        assert list(out["weight"]) == [4, 6, 3, 9]
        assert out["remaining"].iloc[-1] == 0

    def test_weight_sum_conservation(self):
        rng = random.Random(139)
        for _ in range(8):
            seeds = [rng.randrange(100) for _ in range(4)]
            out = birkhoff_int(seeds)
            S = sum(s % 9 + 1 for s in seeds)
            assert out["weight"].sum() == S
            assert out["remaining"].iloc[-1] == 0
            assert (out["weight"] > 0).all()

    def test_reconstruction_external(self):
        seeds = [7, 1, 4, 2]
        out = birkhoff_int(seeds)
        R = [[0] * 4 for _ in range(4)]
        for r in out.itertuples():
            pm = BIRKHOFF_PERMS[int(r.perm_rank)]
            for i in range(4):
                R[i][pm[i]] += int(r.weight)
        ws = [s % 9 + 1 for s in seeds]
        build = [BIRKHOFF_PERMS[0], BIRKHOFF_PERMS[9],
                 BIRKHOFF_PERMS[16], BIRKHOFF_PERMS[23]]
        M = [[0] * 4 for _ in range(4)]
        for w, pm in zip(ws, build):
            for i in range(4):
                M[i][pm[i]] += w
        assert R == M
