"""Discrete logarithms (aggregates.discrete_log_int) and hook
length formula (aggregates.hook_lengths_int) kernel pins."""

import random

from documentai_ray.extras import (HOOK_PARTITIONS, _partitions_of,
                                   discrete_log_int, hook_lengths_int)


class TestDiscreteLog:
    def test_small_prime_by_hand(self):
        # seed 0 -> p = 5, primitive root 2 (orders: 2^1..2^4 =
        # 2,4,3,1), a = 1 % 3 + 2 = 3, log_2(3) mod 5 = 3
        out = discrete_log_int([(0, 1)])
        assert out["p"].iloc[0] == 5
        assert out["g"].iloc[0] == 2
        assert out["a"].iloc[0] == 3
        assert out["x"].iloc[0] == 3

    def test_log_satisfies_power(self):
        rng = random.Random(127)
        pairs = [(rng.randrange(10 ** 6), rng.randrange(10 ** 6))
                 for _ in range(15)]
        out = discrete_log_int(pairs)
        for r in out.itertuples():
            assert pow(int(r.g), int(r.x), int(r.p)) == r.a % r.p
            assert 0 <= r.x < r.p - 1
            assert r.m * r.m >= r.p - 1

    def test_smallest_primitive_root_known(self):
        # p = 7 -> 3; p = 191 -> 19 (the classic large case)
        out = discrete_log_int([(2, 5), (186, 7)])
        got = {int(r.p): int(r.g) for r in out.itertuples()}
        assert got[7] == 3
        assert got[191] == 19

    def test_generator_hits_all_residues(self):
        out = discrete_log_int([(90, 3)])
        p, g = int(out["p"].iloc[0]), int(out["g"].iloc[0])
        seen = {pow(g, k, p) for k in range(p - 1)}
        assert seen == set(range(1, p))


class TestHookLengths:
    def test_partition_count(self):
        assert len(HOOK_PARTITIONS) == 15
        assert len(_partitions_of(5)) == 7

    def test_s7_dimensions(self):
        out = hook_lengths_int(0)
        assert list(out["f_lambda"]) == [1, 6, 14, 15, 14, 35, 20,
                                         21, 21, 35, 15, 14, 14,
                                         6, 1]
        assert (out["rsk_sum"] == 5040).all()

    def test_conjugate_symmetry(self):
        # f^lambda == f^lambda' (transpose invariance of hooks)
        out = hook_lengths_int(0)
        f_by_shape = {tuple(HOOK_PARTITIONS[int(r.rank)]):
                      int(r.f_lambda) for r in out.itertuples()}
        for lam, f in f_by_shape.items():
            conj = tuple(sum(1 for r in lam if r > j)
                         for j in range(lam[0]))
            assert f_by_shape[conj] == f

    def test_hook_products(self):
        out = hook_lengths_int(0)
        # single row (7): hooks 7..1 -> 5040; single column same
        assert out["hook_product"].iloc[0] == 5040
        assert out["hook_product"].iloc[-1] == 5040
        assert (out["hook_product"] * out["f_lambda"]
                == 5040).all()

    def test_selected_flag(self):
        out = hook_lengths_int(17)      # 17 % 15 = 2
        assert out["selected"].sum() == 1
        assert out[out["selected"] == 1]["rank"].iloc[0] == 2
