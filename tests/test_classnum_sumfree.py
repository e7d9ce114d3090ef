"""Class numbers (aggregates.class_numbers_int) and sum-free sets
(aggregates.sum_free_sets_int) kernel pins."""

from documentai_ray.extras import (CLASS_DISCS, class_numbers_int,
                                   sum_free_sets_int)


class TestClassNumbers:
    def test_h_minus_23(self):
        out = class_numbers_int(7)
        assert out["class_number"].iloc[0] == 3
        forms = {(int(r.a), int(r.b), int(r.c))
                 for r in out.itertuples()}
        assert forms == {(1, 1, 6), (2, -1, 3), (2, 1, 3)}

    def test_heegner(self):
        out = class_numbers_int(9)       # -163
        assert out["class_number"].iloc[0] == 1
        assert (out.iloc[0][["a", "b", "c"]] == [1, 1, 41]).all()

    def test_h_minus_47(self):
        out = class_numbers_int(8)
        assert out["class_number"].iloc[0] == 5

    def test_discriminant_identity(self):
        for sel in range(len(CLASS_DISCS)):
            out = class_numbers_int(sel)
            for r in out.itertuples():
                assert r.b ** 2 - 4 * r.a * r.c == r.disc


class TestSumFree:
    def test_globals(self):
        out = sum_free_sets_int(0)
        assert out["max_size"].iloc[0] == 5
        assert out["n_max_sets"].iloc[0] >= 2

    def test_odds_witness(self):
        odds = sum(1 << (v - 1) for v in (1, 3, 5, 7, 9))
        out = sum_free_sets_int(odds)
        assert out["census_sum_free"].iloc[0] == 1
        assert out["census_size"].iloc[0] == 5

    def test_x_equals_y_counts(self):
        # {2, 4}: 2 + 2 = 4 -> NOT sum-free (x = y allowed)
        m = (1 << 1) | (1 << 3)
        out = sum_free_sets_int(m)
        assert out["census_sum_free"].iloc[0] == 0

    def test_empty_set(self):
        out = sum_free_sets_int(1024)    # % 1024 = 0 -> empty
        assert out["census_sum_free"].iloc[0] == 1
        assert out["census_size"].iloc[0] == 0
