"""Magic squares (aggregates.magic_squares_int) and Pythagorean
triples (aggregates.pythagorean_triples_int) kernel pins."""

import math

from documentai_ray.extras import magic_squares_int, pythagorean_triples_int


class TestMagicSquares:
    def test_selected_is_magic(self):
        for sel in range(8):
            out = magic_squares_int(sel)
            g = list(out.sort_values("cell")["value"])
            assert sorted(g) == list(range(1, 10))
            for r in range(3):
                assert sum(g[3 * r:3 * r + 3]) == 15
            for c in range(3):
                assert g[c] + g[c + 3] + g[c + 6] == 15
            assert g[0] + g[4] + g[8] == 15
            assert g[2] + g[4] + g[6] == 15
            assert g[4] == 5

    def test_count_and_structure(self):
        out = magic_squares_int(0)
        assert out["n_squares"].iloc[0] == 8
        g = list(out.sort_values("cell")["value"])
        assert all(g[i] % 2 == 0 for i in (0, 2, 6, 8))

    def test_lex_first(self):
        out = magic_squares_int(0)
        g = list(out.sort_values("cell")["value"])
        assert g == [2, 7, 6, 9, 5, 1, 4, 3, 8]


class TestPythagorean:
    def test_count_and_smallest(self):
        out = pythagorean_triples_int(0)
        assert out["n_primitives"].iloc[0] == 16
        assert (out.iloc[0][["a", "b", "c"]] == [3, 4, 5]).all()

    def test_all_valid_primitive(self):
        out = pythagorean_triples_int(5)
        for r in out.itertuples():
            assert r.a ** 2 + r.b ** 2 == r.c ** 2
            assert math.gcd(int(r.a), int(r.b)) == 1
            assert r.a < r.b < r.c <= 100

    def test_known_members(self):
        out = pythagorean_triples_int(0)
        triples = {(int(r.a), int(r.b), int(r.c))
                   for r in out.itertuples()}
        assert (20, 21, 29) in triples
        assert (28, 45, 53) in triples
        assert (65, 72, 97) in triples
        # non-primitive multiples absent
        assert (6, 8, 10) not in triples

    def test_selection_flag(self):
        out = pythagorean_triples_int(3)
        assert out["selected"].sum() == 1
        assert out[out["selected"] == 1]["rank"].iloc[0] == 3
