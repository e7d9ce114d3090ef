"""Euler pentagonal partitions (aggregates.partition_numbers_int)
and Jacobi/Lagrange four squares (aggregates.four_squares_int)
kernel pins."""

import math
import random

from documentai_ray.extras import (FOUR_SQ_NMAX, PARTITION_NMAX,
                                   four_squares_int, partition_numbers_int)


class TestPartitions:
    def test_known_values(self):
        # OEIS A000041: p(0..10) and the classic p(40)
        out = partition_numbers_int([(i, i) for i in range(11)]
                                    + [(40, 40)])
        known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert list(out["p_n"].iloc[:11]) == known
        assert out["p_n"].iloc[11] == 37338

    def test_distinct_parts_known(self):
        # OEIS A000009: q(0..10); Euler's identity (distinct ==
        # odd) is asserted in-kernel for every n <= 40 per call
        out = partition_numbers_int([(i, i) for i in range(11)])
        known = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]
        assert list(out["p_distinct"]) == known

    def test_distinct_below_total(self):
        out = partition_numbers_int([(0, n) for n in range(2, 41)])
        assert (out["p_distinct"] < out["p_n"]).all()

    def test_input_echo_and_bounds(self):
        out = partition_numbers_int([(7, PARTITION_NMAX)])
        assert out["h"].iloc[0] == 7
        assert out["n"].iloc[0] == 40


class TestFourSquares:
    def test_known_r4(self):
        # r4: n=1 -> 8 (+-1 in 4 slots), n=2 -> 24, n=3 -> 32,
        # n=4 -> 24 (Jacobi: 8*sigma'(4) = 8*(1+2) = 24)
        out = four_squares_int([(0, 1), (1, 2), (2, 3), (3, 4)])
        assert list(out["r4"]) == [8, 24, 32, 24]

    def test_jacobi_identity_visible(self):
        rng = random.Random(61)
        ns = [rng.randrange(1, FOUR_SQ_NMAX + 1) for _ in range(12)]
        out = four_squares_int(list(enumerate(ns)))
        assert (out["r4"] == 8 * out["sigma_no4"]).all()

    def test_witness_is_valid_and_lex_min(self):
        rng = random.Random(67)
        ns = [rng.randrange(FOUR_SQ_NMAX + 1) for _ in range(15)]
        out = four_squares_int(list(enumerate(ns)))
        for r in out.itertuples():
            assert (r.wa ** 2 + r.wb ** 2 + r.wc ** 2
                    + r.wd ** 2 == r.n)
            assert r.wa <= r.wb <= r.wc <= r.wd
            # brute lex-min over ordered quadruples
            best = None
            for a in range(15):
                for b in range(a, 15):
                    for c in range(b, 15):
                        rc = r.n - a * a - b * b - c * c
                        if rc < c * c:
                            break
                        d = math.isqrt(rc)
                        if d * d == rc and d >= c:
                            cand = (a, b, c, d)
                            if best is None or cand < best:
                                best = cand
            assert (r.wa, r.wb, r.wc, r.wd) == best

    def test_zero_case(self):
        out = four_squares_int([(0, 0)])
        assert out["r4"].iloc[0] == 1
        assert out["sigma_no4"].iloc[0] == 0
        assert (out[["wa", "wb", "wc", "wd"]].iloc[0] == 0).all()

    def test_seven_needs_four_squares(self):
        # 7 = 1+1+1+4 is the minimal witness; no 3-square rep
        # exists (7 = 4^0(8*0+7), Legendre's three-square form)
        out = four_squares_int([(0, 7)])
        assert (out[["wa", "wb", "wc", "wd"]].iloc[0]
                == [1, 1, 1, 2]).all()
