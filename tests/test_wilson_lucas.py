"""Wilson's criterion (aggregates.wilson_theorem_int) and
Lucas/Kummer congruences (aggregates.lucas_binomial_int) kernel
pins."""

import math
import random

from documentai_ray.extras import lucas_binomial_int, wilson_theorem_int


class TestWilson:
    def test_primes_hit_minus_one(self):
        out = wilson_theorem_int([0, 1, 3, 5, 9, 95])
        # n = 2, 3, 5, 7, 11, 97
        for r in out.itertuples():
            assert r.is_prime == 1
            assert r.wilson_residue == r.n - 1

    def test_composites_hit_zero(self):
        out = wilson_theorem_int([4, 7, 10, 98])   # 6, 9, 12, 100
        assert (out["is_prime"] == 0).all()
        assert (out["wilson_residue"] == 0).all()

    def test_four_exception(self):
        out = wilson_theorem_int([2])              # n = 4
        assert out["wilson_residue"].iloc[0] == 2
        assert out["is_prime"].iloc[0] == 0

    def test_criterion_random(self):
        rng = random.Random(151)
        out = wilson_theorem_int([rng.randrange(10 ** 6)
                                  for _ in range(20)])
        for r in out.itertuples():
            assert (r.wilson_residue == r.n - 1) == \
                (r.is_prime == 1)


class TestLucas:
    def test_sierpinski_row(self):
        # p = 2: C(m, r) odd iff r's bits are a subset of m's
        out = lucas_binomial_int([(4, r) for r in range(5)])
        # s1 = 4 -> p = 2, m = 5 (101b); odd binomials at r in
        # {0, 1, 4, 5}
        for r in out.itertuples():
            expected = 1 if (int(r.r) & int(r.m)) == int(r.r) else 0
            assert r.binom_mod == expected

    def test_kummer_carries(self):
        out = lucas_binomial_int([(101, 55), (250, 123), (7, 3)])
        for r in out.itertuples():
            v = 0
            c = math.comb(int(r.m), int(r.r))
            while c % r.p == 0:
                c //= r.p
                v += 1
            assert r.p_valuation == v
            assert r.carries == v

    def test_routes_agree_random(self):
        rng = random.Random(157)
        pairs = [(rng.randrange(10 ** 6), rng.randrange(10 ** 6))
                 for _ in range(20)]
        out = lucas_binomial_int(pairs)
        assert (out["binom_mod"] == out["lucas_prod"]).all()
        for r in out.itertuples():
            assert r.binom_mod == math.comb(int(r.m),
                                            int(r.r)) % r.p
