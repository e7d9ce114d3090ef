"""Turán extremal bound (aggregates.turan_extremal_int) and
Goldbach representations (aggregates.goldbach_int) kernel pins."""

import random

from documentai_ray.extras import RAMSEY_EIDX, goldbach_int, turan_extremal_int


class TestTuran:
    def test_complete_graph(self):
        out = turan_extremal_int([1] * 15)
        assert out["n_edges"].iloc[0] == 15
        assert out["n_triangles"].iloc[0] == 20
        assert (out["in_triangles"] == 4).all()
        assert out["max_trianglefree_edges"].iloc[0] == 9

    def test_k33_attains_bound(self):
        # bipartition {0,1,2} | {3,4,5}: 9 cross edges, no
        # triangle (every triangle has 2 same-side vertices)
        bits = [0] * 15
        for a in (0, 1, 2):
            for b in (3, 4, 5):
                bits[RAMSEY_EIDX[(a, b)]] = 1
        out = turan_extremal_int(bits)
        assert out["n_edges"].iloc[0] == 9
        assert out["n_triangles"].iloc[0] == 0
        assert (out["in_triangles"] == 0).all()

    def test_empty_graph(self):
        out = turan_extremal_int([0] * 15)
        assert out["n_edges"].iloc[0] == 0
        assert out["n_triangles"].iloc[0] == 0

    def test_ten_edges_force_triangle(self):
        # contrapositive asserted in-kernel; verify over random
        # 10-edge graphs externally
        rng = random.Random(131)
        for _ in range(8):
            edges = rng.sample(range(15), 10)
            bits = [1 if e in edges else 0 for e in range(15)]
            out = turan_extremal_int(bits)
            assert out["n_triangles"].iloc[0] >= 1


class TestGoldbach:
    def test_smallest_cases(self):
        out = goldbach_int([0, 1, 2])    # n = 4, 6, 8
        assert list(out["n"]) == [4, 6, 8]
        assert list(out["min_p"]) == [2, 3, 3]
        assert list(out["n_reps"]) == [1, 1, 1]

    def test_known_counts(self):
        # r(100) = 6; witnesses start at 3+97
        out = goldbach_int([48])
        assert out["n"].iloc[0] == 100
        assert out["n_reps"].iloc[0] == 6
        assert out["min_p"].iloc[0] == 3
        assert out["max_q"].iloc[0] == 97

    def test_witness_is_prime_pair(self):
        rng = random.Random(137)
        out = goldbach_int([rng.randrange(10 ** 6)
                            for _ in range(15)])

        def is_prime(v):
            return v >= 2 and all(v % f for f in range(2, v))

        for r in out.itertuples():
            assert r.min_p + r.max_q == r.n
            assert is_prime(int(r.min_p)) and is_prime(int(r.max_q))
            assert r.n_reps >= 1
