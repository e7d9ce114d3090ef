"""6-queens (aggregates.six_queens_int) and taxicab numbers
(aggregates.taxicab_1729_int) kernel pins."""

from documentai_ray.extras import six_queens_int, taxicab_1729_int


class TestSixQueens:
    def test_every_selection_is_valid(self):
        for sel in range(4):
            out = six_queens_int(sel)
            cols = list(out.sort_values("row_")["col"])
            assert sorted(cols) == list(range(6))
            for i in range(6):
                for j in range(i + 1, 6):
                    assert abs(cols[i] - cols[j]) != j - i

    def test_count(self):
        out = six_queens_int(0)
        assert out["n_solutions"].iloc[0] == 4

    def test_lex_first(self):
        out = six_queens_int(0)
        assert list(out.sort_values("row_")["col"]) == \
            [1, 3, 5, 0, 2, 4]


class TestTaxicab:
    def test_ramanujan(self):
        out = taxicab_1729_int(0)
        first = out.iloc[0]
        assert first["n"] == 1729
        assert (first["a1"], first["b1"]) == (1, 12)
        assert (first["a2"], first["b2"]) == (9, 10)
        assert first["selected"] == 1

    def test_known_sequence(self):
        out = taxicab_1729_int(0)
        assert list(out["n"]) == [1729, 4104, 13832]
        assert out["n_taxicabs"].iloc[0] == 3

    def test_representations_valid(self):
        out = taxicab_1729_int(1)
        for r in out.itertuples():
            assert r.a1 ** 3 + r.b1 ** 3 == r.n
            assert r.a2 ** 3 + r.b2 ** 3 == r.n
            assert (r.a1, r.b1) != (r.a2, r.b2)
            assert r.a1 <= r.b1 and r.a2 <= r.b2
