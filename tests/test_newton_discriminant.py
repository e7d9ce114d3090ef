"""Newton's identities (aggregates.newton_identities_int) and
cubic discriminants (aggregates.cubic_discriminant_int) kernel
pins."""

import random

from documentai_ray.extras import cubic_discriminant_int, newton_identities_int


class TestNewton:
    def test_identities_hold(self):
        rng = random.Random(239)
        for _ in range(10):
            seeds = [rng.randrange(10 ** 6) for _ in range(4)]
            out = newton_identities_int(seeds)
            assert (out["p_k"] == out["newton_rhs"]).all()
            assert len(out) == 8

    def test_known_roots(self):
        # roots 1, 2, 3, 4 need seeds s with s % 19 - 9 = root
        seeds = [10, 11, 12, 13]
        out = newton_identities_int(seeds)
        assert out["e1"].iloc[0] == 10
        assert out["e4"].iloc[0] == 24
        assert out[out["k"] == 2]["p_k"].iloc[0] == 30
        assert out[out["k"] == 4]["p_k"].iloc[0] == 354

    def test_zero_roots(self):
        out = newton_identities_int([9, 9, 9, 9])   # all roots 0
        assert (out["p_k"] == 0).all()


class TestCubicDiscriminant:
    def test_routes_agree(self):
        rng = random.Random(241)
        seeds = [rng.randrange(10 ** 6) for _ in range(24)]
        out = cubic_discriminant_int(seeds)
        assert (out["disc_formula"] == out["disc_roots"]).all()

    def test_distinct_positive_repeated_zero(self):
        # roots -5,-4,-3 distinct; roots 2,2,-4 repeated
        out = cubic_discriminant_int([1, 2, 3, 8, 8, 2])
        assert out["disc_formula"].iloc[0] == 4
        assert out["disc_formula"].iloc[1] == 0

    def test_vieta(self):
        out = cubic_discriminant_int([7, 8, 9] + [0] * 21)
        r = out.iloc[0]
        assert r["b"] == -(r["r1"] + r["r2"] + r["r3"])
        assert r["d"] == -(r["r1"] * r["r2"] * r["r3"])
