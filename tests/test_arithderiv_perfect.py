"""Arithmetic derivative (aggregates.arith_derivative_int) and
perfect numbers (aggregates.perfect_numbers_int) kernel pins."""

from documentai_ray.extras import (_arith_deriv, arith_derivative_int,
                                   perfect_numbers_int)


class TestArithDerivative:
    def test_primes_and_units(self):
        assert _arith_deriv(0) == 0
        assert _arith_deriv(1) == 0
        for p in (2, 3, 5, 7, 11, 97):
            assert _arith_deriv(p) == 1

    def test_known_values(self):
        assert _arith_deriv(4) == 4        # 2^2 fixed point
        assert _arith_deriv(6) == 5
        assert _arith_deriv(8) == 12
        assert _arith_deriv(27) == 27      # 3^3 fixed point
        assert _arith_deriv(60) == 92

    def test_power_rule(self):
        # (p^k)' = k p^(k-1)
        for p in (2, 3, 5):
            for k in range(1, 6):
                assert _arith_deriv(p ** k) == k * p ** (k - 1)

    def test_query_rows(self):
        out = arith_derivative_int([59, 0, 6])   # 60, 1, 7
        assert list(out["deriv"]) == [92, 0, 1]
        assert list(out["is_prime"]) == [0, 0, 1]


class TestPerfectNumbers:
    def test_the_four(self):
        out = perfect_numbers_int(0)
        assert list(out["n"]) == [6, 28, 496, 8128]
        assert (out["aliquot_sum"] == out["n"]).all()

    def test_populations(self):
        out = perfect_numbers_int(0)
        na = int(out["n_abundant"].iloc[0])
        nd = int(out["n_deficient"].iloc[0])
        assert na + nd + 4 == 10000
        # smallest abundant is 12; the count is the known 2488
        assert na == 2488

    def test_selection(self):
        out = perfect_numbers_int(7)     # 7 % 4 = 3 -> 8128
        assert out[out["selected"] == 1]["n"].iloc[0] == 8128
