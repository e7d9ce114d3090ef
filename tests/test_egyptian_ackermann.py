"""Egyptian fractions (aggregates.egyptian_fractions_int) and
Ackermann (aggregates.ackermann_int) kernel pins."""

import random
from fractions import Fraction

from documentai_ray.extras import (_ackermann, ackermann_int,
                                   egyptian_fractions_int)


class TestEgyptian:
    def test_classic_2_47(self):
        # 2/47 = 1/24 + 1/1128 (the textbook greedy example)
        out = egyptian_fractions_int(1, 44)
        assert list(out["denom"]) == [24, 1128]
        assert out["n_terms"].iloc[0] == 2

    def test_unit_fraction_is_itself(self):
        out = egyptian_fractions_int(0, 4)   # 1/7
        assert list(out["denom"]) == [7]

    def test_exactness_random(self):
        rng = random.Random(227)
        for _ in range(15):
            out = egyptian_fractions_int(rng.randrange(10 ** 6),
                                         rng.randrange(10 ** 6))
            p = int(out["p"].iloc[0])
            q = int(out["q"].iloc[0])
            total = sum(Fraction(1, int(d)) for d in out["denom"])
            assert total == Fraction(p, q)
            ds = list(out["denom"])
            assert ds == sorted(ds) and len(set(ds)) == len(ds)
            assert len(ds) <= 3


class TestAckermann:
    def test_closed_forms(self):
        assert _ackermann(0, 5) == 6
        assert _ackermann(1, 5) == 7
        assert _ackermann(2, 5) == 13
        assert _ackermann(3, 3) == 61
        assert _ackermann(3, 4) == 125

    def test_query_rows(self):
        out = ackermann_int([(0, 20), (1, 20), (2, 20), (3, 8)])
        assert list(out["value"]) == [21, 22, 43, 2045]

    def test_m3_cap(self):
        out = ackermann_int([(3, 20)])   # n = 20 % 9 = 2
        assert out["n"].iloc[0] == 2
        assert out["value"].iloc[0] == 29
