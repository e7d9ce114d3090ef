"""Heronian triangles (aggregates.heronian_triangles_int) and the
Perrin test (aggregates.perrin_test_int) kernel pins."""

import math

from documentai_ray.extras import heronian_triangles_int, perrin_test_int


class TestHeronian:
    def test_classics(self):
        out = heronian_triangles_int(0)
        d = {(int(r.a), int(r.b), int(r.c)): int(r.area)
             for r in out.itertuples()}
        assert d[(3, 4, 5)] == 6
        assert d[(5, 5, 6)] == 12
        assert d[(5, 5, 8)] == 12
        assert d[(9, 10, 17)] == 36

    def test_areas_valid(self):
        out = heronian_triangles_int(5)
        for r in out.itertuples():
            q = ((r.a + r.b + r.c) * (-r.a + r.b + r.c)
                 * (r.a - r.b + r.c) * (r.a + r.b - r.c))
            assert q == (4 * r.area) ** 2
            assert r.c < r.a + r.b

    def test_scaled_pythagorean_present(self):
        out = heronian_triangles_int(0)
        keys = {(int(r.a), int(r.b), int(r.c))
                for r in out.itertuples()}
        assert (6, 8, 10) in keys
        assert (5, 12, 13) in keys


class TestPerrin:
    def test_primes_pass(self):
        out = perrin_test_int([0, 1, 3, 5, 95])
        # n = 2, 3, 5, 7, 97 all prime
        assert (out["is_prime"] == 1).all()
        assert (out["passes"] == 1).all()
        assert (out["perrin_mod_n"] == 0).all()

    def test_composites_fail(self):
        out = perrin_test_int([2, 4, 7, 98])   # 4, 6, 9, 100
        assert (out["is_prime"] == 0).all()
        assert (out["passes"] == 0).all()

    def test_criterion_equivalence_on_range(self):
        # asserted exhaustively in-kernel; check agreement on the
        # emitted rows
        out = perrin_test_int(list(range(24)))
        assert (out["passes"] == out["is_prime"]).all()
