"""Eulerian numbers (aggregates.eulerian_numbers_int) and Ryser
permanent (aggregates.permanent_ryser_int) kernel pins."""

import random
from itertools import permutations

from documentai_ray.extras import eulerian_numbers_int, permanent_ryser_int


class TestEulerian:
    def test_row_six(self):
        out = eulerian_numbers_int(1)
        assert list(out["eulerian"]) == [1, 57, 302, 302, 57, 1]
        assert (out["row_sum"] == 720).all()

    def test_row_five(self):
        out = eulerian_numbers_int(0)
        assert list(out["eulerian"]) == [1, 26, 66, 26, 1]
        assert out["eulerian"].sum() == 120

    def test_row_eight(self):
        out = eulerian_numbers_int(3)
        assert out["n"].iloc[0] == 8
        assert out["eulerian"].sum() == 40320
        f = list(out["eulerian"])
        assert f == f[::-1]             # reversal symmetry

    def test_every_selectable_row_sums_to_factorial(self):
        import math
        for seed in range(4):
            out = eulerian_numbers_int(seed)
            n = int(out["n"].iloc[0])
            assert out["eulerian"].sum() == math.factorial(n)


class TestPermanent:
    def test_all_ones(self):
        out = permanent_ryser_int([1] * 16)
        assert out["permanent"].iloc[0] == 24
        assert out["n_ones"].iloc[0] == 16

    def test_identity(self):
        bits = [1 if i % 5 == 0 else 0 for i in range(16)]
        out = permanent_ryser_int(bits)
        assert out["permanent"].iloc[0] == 1

    def test_zero_row_kills(self):
        bits = [1] * 16
        for j in range(4):
            bits[4 * 2 + j] = 0          # row 2 all zero
        out = permanent_ryser_int(bits)
        assert out["permanent"].iloc[0] == 0

    def test_random_vs_brute(self):
        rng = random.Random(163)
        for _ in range(10):
            bits = [rng.randrange(2) for _ in range(16)]
            out = permanent_ryser_int(bits)
            a = [[bits[4 * i + j] for j in range(4)]
                 for i in range(4)]
            brute = sum(a[0][p[0]] * a[1][p[1]] * a[2][p[2]]
                        * a[3][p[3]]
                        for p in permutations(range(4)))
            assert out["permanent"].iloc[0] == brute
