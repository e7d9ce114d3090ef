"""Lucky sieve (aggregates.lucky_numbers_int) and Gilbreath rows
(aggregates.gilbreath_int) kernel pins."""

from documentai_ray.extras import gilbreath_int, lucky_numbers_int


class TestLucky:
    def test_prefix_and_count(self):
        out = lucky_numbers_int(0)
        assert list(out["lucky"].iloc[:10]) == \
            [1, 3, 7, 9, 13, 15, 21, 25, 31, 33]
        assert (out["lucky"] % 2 == 1).all()   # all odd survive
        assert out["n_lucky"].iloc[0] == len(out)

    def test_eliminated_values(self):
        out = lucky_numbers_int(0)
        vals = set(out["lucky"])
        # 5 is famously killed in the second pass; 19 also dies
        assert 5 not in vals
        assert 19 not in vals
        assert 79 in vals

    def test_selection(self):
        out = lucky_numbers_int(3)
        assert out[out["selected"] == 1]["lucky"].iloc[0] == 9


class TestGilbreath:
    def test_row_zero_is_primes(self):
        out = gilbreath_int(0)
        assert list(out["value"].iloc[:10]) == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert out["row_len"].iloc[0] == 168

    def test_row_one_is_gaps(self):
        out = gilbreath_int(1)
        assert list(out["value"].iloc[:6]) == [1, 2, 2, 4, 2, 4]
        assert out["row_len"].iloc[0] == 167

    def test_leading_one_every_selectable_row(self):
        for sel in range(1, 21):
            out = gilbreath_int(sel)
            assert out["value"].iloc[0] == 1
            tail = out["value"].iloc[1:]
            assert ((tail == 0) | (tail % 2 == 0)).all()
