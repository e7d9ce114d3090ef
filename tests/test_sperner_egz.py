"""Sperner's lemma (aggregates.sperner_lemma_int) and EGZ zero-sum
(aggregates.egz_zerosum_int) kernel pins."""

import random
from itertools import combinations

from documentai_ray.extras import (SPERNER_TRIS, SPERNER_VERTS,
                                   _sperner_labeling, egz_zerosum_int,
                                   sperner_lemma_int)


class TestSperner:
    def test_structure(self):
        assert len(SPERNER_VERTS) == 10
        assert len(SPERNER_TRIS) == 9

    def test_labeling_admissible(self):
        # every decoded labeling obeys corner + edge restrictions
        for c in [0, 7, 100, 191]:
            lab = dict(zip(SPERNER_VERTS, _sperner_labeling(c)))
            assert lab[(3, 0, 0)] == 0
            assert lab[(0, 3, 0)] == 1
            assert lab[(0, 0, 3)] == 2
            assert lab[(2, 1, 0)] in (0, 1)
            assert lab[(1, 0, 2)] in (0, 2)
            assert lab[(0, 1, 2)] in (1, 2)

    def test_odd_rainbow_every_choice(self):
        # asserted in-kernel over all 192; spot-read a few
        for c in [0, 5, 63, 130, 191]:
            out = sperner_lemma_int(c)
            assert out["n_rainbow"].iloc[0] % 2 == 1
            assert out["rainbow"].sum() == out["n_rainbow"].iloc[0]
            assert out["n_even_labelings"].iloc[0] == 0

    def test_choice_mod(self):
        out = sperner_lemma_int(192 + 3)
        assert out["choice"].iloc[0] == 3


class TestEgz:
    def test_all_zeros_many_witnesses(self):
        out = egz_zerosum_int([0] * 9)
        assert out["n_zero_subsets"].iloc[0] == 126
        assert list(out[out["in_witness"] == 1]["pos"]) == \
            [0, 1, 2, 3, 4]

    def test_distinct_residues(self):
        out = egz_zerosum_int([0, 1, 2, 3, 4, 0, 1, 2, 3])
        # lex-min witness is 0+1+2+3+4 = 10
        assert list(out[out["in_witness"] == 1]["pos"]) == \
            [0, 1, 2, 3, 4]

    def test_adversarial_four_four_one(self):
        # the EGZ extremal example for n=5 uses only two values:
        # four 0s and four 1s has NO zero 5-subset... with 9
        # entries {0 x4, 1 x4, x}: verify the theorem forces one
        out = egz_zerosum_int([0, 0, 0, 0, 1, 1, 1, 1, 1])
        # 5 ones sum to 5 = 0 mod 5
        assert out["n_zero_subsets"].iloc[0] >= 1
        assert list(out[out["in_witness"] == 1]["pos"]) == \
            [4, 5, 6, 7, 8]

    def test_count_matches_brute(self):
        rng = random.Random(149)
        vals = [rng.randrange(100) for _ in range(9)]
        out = egz_zerosum_int(vals)
        res = [v % 5 for v in vals]
        brute = sum(1 for ss in combinations(range(9), 5)
                    if sum(res[i] for i in ss) % 5 == 0)
        assert out["n_zero_subsets"].iloc[0] == brute
        wit = [int(p) for p in out[out["in_witness"] == 1]["pos"]]
        assert sum(res[i] for i in wit) % 5 == 0
