"""Happy numbers (aggregates.happy_numbers_int) and Armstrong
numbers (aggregates.armstrong_numbers_int) kernel pins."""

from documentai_ray.extras import (HAPPY_CYCLE, armstrong_numbers_int,
                                   happy_numbers_int)


class TestHappy:
    def test_seven_is_happy(self):
        out = happy_numbers_int([6])     # n = 7
        assert list(out["value"]) == [7, 49, 97, 130, 10, 1]
        assert (out["is_happy"] == 1).all()

    def test_unhappy_lands_in_cycle(self):
        out = happy_numbers_int([1])     # n = 2
        assert out["is_happy"].iloc[0] == 0
        assert int(out["value"].iloc[-1]) in HAPPY_CYCLE

    def test_cycle_is_cycle(self):
        def dsq(n):
            return sum(int(c) ** 2 for c in str(n))
        for i, v in enumerate(HAPPY_CYCLE):
            assert dsq(v) == HAPPY_CYCLE[(i + 1) % 8]

    def test_step_law(self):
        out = happy_numbers_int([99])    # n = 100
        vals = list(out["value"])
        for a, b in zip(vals, vals[1:]):
            assert b == sum(int(c) ** 2 for c in str(a))


class TestArmstrong:
    def test_complete_list(self):
        out = armstrong_numbers_int(0)
        assert list(out["n"]) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 153,
                                  370, 371, 407, 1634, 8208, 9474,
                                  54748, 92727, 93084]
        assert out["n_armstrong"].iloc[0] == 19

    def test_property_per_row(self):
        out = armstrong_numbers_int(5)
        for r in out.itertuples():
            ds = str(int(r.n))
            assert len(ds) == r.k
            assert sum(int(c) ** int(r.k) for c in ds) == r.n

    def test_no_two_digit(self):
        out = armstrong_numbers_int(0)
        assert not ((out["n"] >= 10) & (out["n"] <= 99)).any()
