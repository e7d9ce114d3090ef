"""Negabinary (aggregates.negabinary_int) and balanced ternary
(aggregates.balanced_ternary_int) kernel pins."""

import random

from documentai_ray.extras import (_to_balanced_ternary, _to_negabinary,
                                   balanced_ternary_int, negabinary_int)


class TestNegabinary:
    def test_known_values(self):
        assert _to_negabinary(6) == [0, 1, 0, 1, 1]
        assert _to_negabinary(-6) == [0, 1, 1, 1]
        assert _to_negabinary(0) == [0]
        assert _to_negabinary(-1) == [1, 1]

    def test_roundtrip_random(self):
        rng = random.Random(257)
        for _ in range(50):
            n = rng.randrange(-500, 501)
            ds = _to_negabinary(n)
            assert sum(d * (-2) ** i
                       for i, d in enumerate(ds)) == n
            assert set(ds) <= {0, 1}

    def test_query_rows(self):
        out = negabinary_int([5, 10])
        for inst, grp in out.groupby("inst"):
            n = grp["n"].iloc[0]
            val = sum(int(r.digit) * (-2) ** int(r.pos)
                      for r in grp.itertuples())
            assert val == n


class TestBalancedTernary:
    def test_known_values(self):
        assert _to_balanced_ternary(5) == [-1, -1, 1]
        assert _to_balanced_ternary(-5) == [1, 1, -1]
        assert _to_balanced_ternary(13) == [1, 1, 1]

    def test_negation_law_random(self):
        rng = random.Random(263)
        for _ in range(40):
            n = rng.randrange(1, 1000)
            assert _to_balanced_ternary(-n) == \
                [-d for d in _to_balanced_ternary(n)]

    def test_query_rows(self):
        out = balanced_ternary_int([12, 200])
        for inst, grp in out.groupby("inst"):
            n = grp["n"].iloc[0]
            val = sum(int(r.digit) * 3 ** int(r.pos)
                      for r in grp.itertuples())
            assert val == n
            assert set(grp["digit"]).issubset({-1, 0, 1})
