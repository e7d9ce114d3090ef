"""Convex hull (aggregates.convex_hull_int) and Josephus circle
(aggregates.josephus_int) kernel pins.  Both kernels carry their own
per-instance cross-certificates (monotone chain == extreme-point
brute; recurrence == direct simulation), so random draws exercise
the proofs, and the pins fix the conventions."""

import random

from documentai_ray.extras import convex_hull_int, josephus_int


class TestConvexHull:
    def test_square_with_inner_and_edge_points(self):
        out = convex_hull_int([(0, 0), (4, 0), (4, 4), (0, 4),
                               (2, 2), (2, 0)])
        flags = dict(zip(zip(out["x"], out["y"]), out["is_vertex"]))
        assert flags[(0, 0)] == 1 and flags[(4, 4)] == 1
        assert flags[(2, 2)] == 0      # interior
        assert flags[(2, 0)] == 0      # on an edge, not a corner
        assert out["hull_size"].iloc[0] == 4
        assert out["diam2"].iloc[0] == 32

    def test_collinear_points_keep_only_extremes(self):
        out = convex_hull_int([(0, 0), (1, 1), (2, 2), (3, 3)])
        flags = dict(zip(zip(out["x"], out["y"]), out["is_vertex"]))
        assert flags[(0, 0)] == 1 and flags[(3, 3)] == 1
        assert flags[(1, 1)] == 0 and flags[(2, 2)] == 0
        assert out["hull_size"].iloc[0] == 2

    def test_duplicates_deduped(self):
        out = convex_hull_int([(0, 0), (0, 0), (1, 0), (1, 0)])
        assert out["n_distinct"].iloc[0] == 2
        assert len(out) == 2
        assert out["hull_size"].iloc[0] == 2

    def test_single_point(self):
        out = convex_hull_int([(7, 7), (7, 7)])
        assert out["is_vertex"].iloc[0] == 1
        assert out["hull_size"].iloc[0] == 1
        assert out["diam2"].iloc[0] == 0

    def test_triangle(self):
        out = convex_hull_int([(0, 0), (6, 0), (3, 5), (3, 1)])
        assert out["hull_size"].iloc[0] == 3
        assert out["diam2"].iloc[0] == 36

    def test_random_draws_exercise_certificates(self):
        # the kernel asserts chain == extreme-point brute and the
        # diameter-at-vertices identity on every call
        rng = random.Random(95)
        for _ in range(40):
            pts = [(rng.randrange(12), rng.randrange(12))
                   for _ in range(rng.randrange(1, 14))]
            out = convex_hull_int(pts)
            assert out["hull_size"].iloc[0] == out["is_vertex"].sum()
            assert out["n_distinct"].iloc[0] == len(out)


class TestJosephus:
    def test_k2_bit_rotation_closed_form(self):
        # J_2(2^m + l) = 2l — the famous move-the-leading-bit form
        out = josephus_int(2, 40)
        sv = dict(zip(out["n"], out["survivor"]))
        for n in range(1, 41):
            m = 1
            while m * 2 <= n:
                m *= 2
            assert sv[n] == 2 * (n - m), n

    def test_k1_kills_in_order(self):
        # k = 1 eliminates 0,1,2,... so the last index survives
        out = josephus_int(1, 20)
        assert list(out["survivor"]) == list(range(20))

    def test_classic_41_3(self):
        # the original story: n = 41, k = 3 -> position 31 (1-based)
        out = josephus_int(3, 41)
        assert out[out["n"] == 41]["survivor"].iloc[0] == 30

    def test_random_k_simulation_agrees(self):
        # the kernel asserts recurrence == simulation per n already;
        # sweep a spread of k values through it
        for k in (2, 5, 7, 11, 17):
            out = josephus_int(k, 30)
            assert len(out) == 30
            assert (out["survivor"] < out["n"]).all()
            assert (out["k"] == k).all()
