"""Cube colorings (aggregates.cube_colorings_int) and the
Fibonacci GCD theorem (aggregates.fibonacci_gcd_int) kernel pins."""

import math
import random

from documentai_ray.extras import (CUBE_ROTS, cube_colorings_int,
                                   fibonacci_gcd_int)


class TestCubeColorings:
    def test_group_order_and_identity(self):
        assert len(CUBE_ROTS) == 24
        assert tuple(range(6)) in CUBE_ROTS

    def test_classic_counts(self):
        out = cube_colorings_int(0)
        assert out["count_c2"].iloc[0] == 10
        assert out["count_c3"].iloc[0] == 57
        assert out["count_c4"].iloc[0] == 240

    def test_cycle_structure_census(self):
        # cube rotations: 1 identity (6 cycles), 6 face turns
        # (3 cycles... 90-degree: 4 cycles? U fixed, D fixed,
        # 4-cycle -> 3 cycles), 3 face half-turns (4 cycles),
        # 8 vertex rotations (2 cycles), 6 edge rotations (3)
        out = cube_colorings_int(0)
        from collections import Counter
        cnt = Counter(out["n_cycles"])
        assert cnt[6] == 1               # identity
        assert cnt[3] == 6 + 6           # quarter turns + edge
        assert cnt[4] == 3               # half turns
        assert cnt[2] == 8               # vertex rotations

    def test_selection(self):
        out = cube_colorings_int(2)      # c = 4
        assert out["c_sel"].iloc[0] == 4
        assert out["count_sel"].iloc[0] == 240


class TestFibonacciGcd:
    def test_classic_pair(self):
        out = fibonacci_gcd_int([(11, 17)])   # m=12, n=18
        assert out["fib_m"].iloc[0] == 144
        assert out["fib_n"].iloc[0] == 2584
        assert out["fib_g"].iloc[0] == 8      # F_6
        assert out["gcd_fib"].iloc[0] == 8

    def test_theorem_on_random(self):
        rng = random.Random(179)
        pairs = [(rng.randrange(10 ** 6), rng.randrange(10 ** 6))
                 for _ in range(20)]
        out = fibonacci_gcd_int(pairs)
        assert (out["fib_g"] == out["gcd_fib"]).all()

    def test_coprime_indices(self):
        out = fibonacci_gcd_int([(12, 16)])   # m=13, n=17 coprime
        assert out["g"].iloc[0] == 1
        assert out["gcd_fib"].iloc[0] == 1

    def test_f60_in_range(self):
        out = fibonacci_gcd_int([(59, 59)])
        assert out["fib_m"].iloc[0] == 1548008755920
        assert out["fib_m"].iloc[0] < 2 ** 63
