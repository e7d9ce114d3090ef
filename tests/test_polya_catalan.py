"""Pólya urn exchangeability (aggregates.polya_urn_int) and Catalan
structures (aggregates.dyck_catalan_int) kernel pins."""

import math

from documentai_ray.extras import dyck_catalan_int, polya_urn_int


class TestPolyaUrn:
    def test_uniform_start_is_flat_in_k_times_binom(self):
        # r=b=1: the number of reds after n draws is UNIFORM on
        # 0..n (the classic Polya surprise): prob_num constant
        out = polya_urn_int(1, 1)
        assert out["prob_num"].nunique() == 1
        assert (out["prob_num"] * 9 == out["denom"]).all()

    def test_probabilities_sum_to_one(self):
        for r, b in [(1, 1), (2, 3), (5, 5), (1, 4)]:
            out = polya_urn_int(r, b)
            assert out["prob_num"].sum() == out["denom"].iloc[0]

    def test_rising_factorial_structure(self):
        out = polya_urn_int(2, 3)
        for r in out.itertuples():
            ris_r = math.prod(range(2, 2 + r.k))
            ris_b = math.prod(range(3, 3 + 8 - r.k))
            assert r.seq_num == ris_r * ris_b
            assert r.n_seqs == math.comb(8, r.k)

    def test_martingale_explicitly(self):
        # E[red fraction after 8] == r/(r+b), cross-multiplied
        for r, b in [(2, 3), (4, 1), (3, 3)]:
            out = polya_urn_int(r, b)
            lhs = sum(int(x.prob_num) * (r + int(x.k))
                      for x in out.itertuples()) * (r + b)
            rhs = r * (r + b + 8) * int(out["denom"].iloc[0])
            assert lhs == rhs

    def test_symmetry(self):
        # swapping colors mirrors the k axis
        a = polya_urn_int(2, 5)
        b = polya_urn_int(5, 2)
        assert list(a["prob_num"]) == list(b["prob_num"][::-1])


class TestDyckCatalan:
    def test_known_sequence(self):
        out = dyck_catalan_int([(h, h) for h in range(11)])
        assert list(out["catalan"]) == [1, 1, 2, 5, 14, 42, 132,
                                        429, 1430, 4862, 16796]

    def test_central_binom(self):
        out = dyck_catalan_int([(0, 10)])
        assert out["central_binom"].iloc[0] == 184756
        assert out["catalan"].iloc[0] == 184756 // 11

    def test_mod_11(self):
        out = dyck_catalan_int([(0, 11), (1, 15)])
        assert list(out["n"]) == [0, 4]
        assert list(out["catalan"]) == [1, 14]

    def test_reflection_identity_externally(self):
        out = dyck_catalan_int([(h, h) for h in range(11)])
        for r in out.itertuples():
            n = int(r.n)
            refl = math.comb(2 * n, n) - (math.comb(2 * n, n + 1)
                                          if n >= 1 else 0)
            assert r.catalan == refl
