"""Chung-Feller (aggregates.chung_feller_int) and the cycle lemma
(aggregates.cycle_lemma_int) kernel pins."""

import random

from documentai_ray.extras import chung_feller_int, cycle_lemma_int


class TestChungFeller:
    def test_first_bridge_is_dyck(self):
        # lexicographically first up-set {0..5}: six ups then six
        # downs — never below, k = 0
        out = chung_feller_int(0)
        assert out["k_below"].iloc[0] == 0
        assert list(out["step"]) == [1] * 6 + [-1] * 6
        assert (out["catalan_per_class"] == 132).all()

    def test_bridge_invariants(self):
        rng = random.Random(211)
        for _ in range(8):
            out = chung_feller_int(rng.randrange(10 ** 6))
            assert out["step"].sum() == 0
            assert out["prefix"].iloc[-1] == 0
            assert 0 <= out["k_below"].iloc[0] <= 6

    def test_all_down_first_is_max_k(self):
        # up-set {6..11}: six downs then six ups — always below,
        # k = 6; its rank is the last (923)
        out = chung_feller_int(923)
        assert out["k_below"].iloc[0] == 6
        assert list(out["step"]) == [-1] * 6 + [1] * 6


class TestCycleLemma:
    def test_selected_rotation_is_good(self):
        rng = random.Random(223)
        for _ in range(8):
            out = cycle_lemma_int(rng.randrange(10 ** 6))
            seq = list(out.sort_values("pos")["step"])
            g = int(out["good_rotation"].iloc[0])
            s = 0
            for t in range(13):
                s += seq[(g + t) % 13]
                assert s > 0
            assert sum(seq) == 1
            assert out["n_arrangements"].iloc[0] == 1716

    def test_first_arrangement(self):
        # ups at {0..6}: seven +1 then six -1: rotation 0 works
        out = cycle_lemma_int(0)
        assert out["good_rotation"].iloc[0] == 0
        assert list(out["step"]) == [1] * 7 + [-1] * 6

    def test_uniqueness_externally(self):
        out = cycle_lemma_int(777)
        seq = list(out.sort_values("pos")["step"])
        goods = []
        for r in range(13):
            s, ok = 0, True
            for t in range(13):
                s += seq[(r + t) % 13]
                if s <= 0:
                    ok = False
                    break
            if ok:
                goods.append(r)
        assert goods == [int(out["good_rotation"].iloc[0])]
