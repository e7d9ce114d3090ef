"""Automorphic numbers (aggregates.automorphic_numbers_int) and
Harshad numbers (aggregates.harshad_numbers_int) kernel pins."""

from documentai_ray.extras import automorphic_numbers_int, harshad_numbers_int


class TestAutomorphic:
    def test_complete_list(self):
        out = automorphic_numbers_int(0)
        assert list(out["n"]) == [1, 5, 6, 25, 76, 376, 625,
                                  9376, 90625]

    def test_square_tail(self):
        out = automorphic_numbers_int(4)
        assert (out["square_tail"] == out["n"]).all()

    def test_complement_pairs(self):
        out = automorphic_numbers_int(0)
        d = {}
        for r in out.itertuples():
            if r.n > 1:
                d.setdefault(int(r.k), []).append(int(r.n))
        assert sum(d[1]) == 11
        assert sum(d[2]) == 101
        assert sum(d[3]) == 1001


class TestHarshad:
    def test_classification(self):
        out = harshad_numbers_int([0, 10, 17, 80])
        # n = 1, 11, 18, 81
        assert list(out["is_harshad"]) == [1, 0, 1, 1]
        assert list(out["digit_sum"]) == [1, 2, 9, 9]

    def test_run_globals(self):
        out = harshad_numbers_int([5])
        assert out["max_run"].iloc[0] == 10
        assert out["max_run_start"].iloc[0] == 1

    def test_divisibility_per_row(self):
        out = harshad_numbers_int(list(range(24)))
        for r in out.itertuples():
            assert (r.n % r.digit_sum == 0) == (r.is_harshad == 1)
