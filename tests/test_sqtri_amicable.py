"""Square-triangular numbers (aggregates.square_triangular_int)
and amicable pairs (aggregates.amicable_pairs_int) kernel pins."""

import math

from documentai_ray.extras import amicable_pairs_int, square_triangular_int


class TestSquareTriangular:
    def test_list(self):
        out = square_triangular_int(0)
        assert list(out["n"]) == [0, 1, 36, 1225, 41616,
                                  1413721, 48024900]

    def test_both_characterizations(self):
        out = square_triangular_int(2)
        for r in out.itertuples():
            assert int(r.sqrt_n) ** 2 == r.n
            k = int(r.tri_index)
            assert k * (k + 1) // 2 == r.n

    def test_recurrence(self):
        out = square_triangular_int(0)
        v = list(out["n"])
        for i in range(2, len(v)):
            assert v[i] == 34 * v[i - 1] - v[i - 2] + 2


class TestAmicable:
    def test_classical_list(self):
        out = amicable_pairs_int(0)
        assert list(zip(out["a"], out["b"])) == \
            [(220, 284), (1184, 1210), (2620, 2924),
             (5020, 5564), (6232, 6368)]

    def test_two_cycle_property(self):
        out = amicable_pairs_int(3)

        def s(n):
            return sum(d for d in range(1, n)
                       if n % d == 0)

        for r in out.itertuples():
            assert s(int(r.a)) == r.b
            assert s(int(r.b)) == r.a
            assert r.a != r.b

    def test_crossed_columns(self):
        out = amicable_pairs_int(0)
        assert (out["s_a"] == out["b"]).all()
        assert (out["s_b"] == out["a"]).all()
