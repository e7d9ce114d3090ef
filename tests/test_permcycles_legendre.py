"""Symmetric-group cycle structure (aggregates.permutation_cycles_int)
and quadratic reciprocity (aggregates.legendre_reciprocity_int)
kernel pins."""

import random

import pytest

from documentai_ray.extras import (_next_odd_prime, legendre_reciprocity_int,
                                   permutation_cycles_int)


class TestPermutationCycles:
    def test_identity(self):
        out = permutation_cycles_int(list(range(6)))
        assert (out["cycle_len"] == 1).all()
        assert out["n_cycles"].iloc[0] == 6
        assert out["perm_order"].iloc[0] == 1
        assert out["sign"].iloc[0] == 1
        assert out["n_inversions"].iloc[0] == 0

    def test_single_transposition_is_odd(self):
        out = permutation_cycles_int([1, 0, 2, 3])
        assert out["sign"].iloc[0] == -1
        assert out["perm_order"].iloc[0] == 2
        assert out["n_cycles"].iloc[0] == 3

    def test_full_cycle(self):
        # (0 1 2 ... 5): order 6, sign (-1)^(6-1) = -1
        out = permutation_cycles_int([1, 2, 3, 4, 5, 0])
        assert out["perm_order"].iloc[0] == 6
        assert (out["cycle_len"] == 6).all()
        assert (out["cycle_min"] == 0).all()
        assert out["sign"].iloc[0] == -1

    def test_lcm_order_3_and_2(self):
        out = permutation_cycles_int([1, 2, 0, 4, 3])
        assert out["perm_order"].iloc[0] == 6
        assert out["n_cycles"].iloc[0] == 2

    def test_rejects_non_bijection(self):
        with pytest.raises(AssertionError):
            permutation_cycles_int([0, 0, 1])

    def test_random_sign_and_order(self):
        # both sign theorems are asserted in-kernel per call; here
        # verify order minimality externally on random S12 draws
        rng = random.Random(71)
        for _ in range(10):
            perm = list(range(12))
            rng.shuffle(perm)
            out = permutation_cycles_int(perm)
            k = int(out["perm_order"].iloc[0])
            cur = list(range(12))
            for step in range(1, k + 1):
                cur = [perm[c] for c in cur]
                if step < k:
                    assert cur != list(range(12))
            assert cur == list(range(12))


class TestLegendre:
    def test_next_odd_prime(self):
        assert _next_odd_prime(0) == 3
        assert _next_odd_prime(4) == 5
        assert _next_odd_prime(90) == 97
        assert _next_odd_prime(97) == 97

    def test_classic_3_5(self):
        # (3|5) = -1 (QRs mod 5 are {1,4}); both primes are
        # 3 mod 4 -> law flips... 3%4=3, 5%4=1 -> product = +1
        out = legendre_reciprocity_int([(0, 2)])
        assert out["p"].iloc[0] == 3
        assert out["q"].iloc[0] == 5
        assert out["leg_pq"].iloc[0] == -1
        assert out["leg_qp"].iloc[0] == -1
        assert out["product"].iloc[0] == 1

    def test_both_3_mod_4_antisymmetric(self):
        # p=7, q=11 both = 3 (mod 4): the law forces opposite
        # symbols, product -1
        out = legendre_reciprocity_int([(4, 8)])
        assert out["p"].iloc[0] == 7
        assert out["q"].iloc[0] == 11
        assert out["product"].iloc[0] == -1
        assert out["leg_pq"].iloc[0] * out["leg_qp"].iloc[0] == -1

    def test_equal_seeds_bump(self):
        out = legendre_reciprocity_int([(40, 40)])
        assert out["p"].iloc[0] != out["q"].iloc[0]
        assert out["p"].iloc[0] == 43

    def test_law_on_random_draws(self):
        # the kernel asserts Euler == Gauss == definition AND the
        # reciprocity law per pair; exercise across random seeds
        rng = random.Random(73)
        pairs = [(rng.randrange(10 ** 6), rng.randrange(10 ** 6))
                 for _ in range(15)]
        out = legendre_reciprocity_int(pairs)
        assert (out["product"] == out["predicted"]).all()
        assert set(out["leg_pq"]).issubset({-1, 1})
