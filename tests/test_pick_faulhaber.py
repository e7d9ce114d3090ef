"""Pick's theorem (aggregates.picks_theorem_int) and Faulhaber
sums (aggregates.faulhaber_int) kernel pins."""

import random

from documentai_ray.extras import faulhaber_int, picks_theorem_int


class TestPick:
    def test_rectangle(self):
        out = picks_theorem_int([(0, 0), (4, 0), (4, 3), (0, 3)])
        assert out["area2"].iloc[0] == 24
        assert out["boundary_pts"].iloc[0] == 14
        assert out["interior_pts"].iloc[0] == 6
        assert (out["pick_check"] == 1).all()

    def test_primitive_triangle(self):
        # (0,0),(1,0),(0,1): area2 = 1, B = 3, I = 0
        out = picks_theorem_int([(0, 0), (1, 0), (0, 1)])
        assert out["area2"].iloc[0] == 1
        assert out["boundary_pts"].iloc[0] == 3
        assert out["interior_pts"].iloc[0] == 0

    def test_interior_points_dropped_from_hull(self):
        out = picks_theorem_int([(0, 0), (6, 0), (0, 6), (6, 6),
                                 (3, 3), (1, 2)])
        assert out["hull_size"].iloc[0] == 4
        assert out["area2"].iloc[0] == 72

    def test_collinear_boundary_point_not_vertex(self):
        out = picks_theorem_int([(0, 0), (2, 0), (4, 0), (0, 4)])
        assert out["hull_size"].iloc[0] == 3
        # (2,0) still counts as a boundary lattice point
        assert out["boundary_pts"].iloc[0] == 4 + 4 + 1 + 3

    def test_degenerate_segment(self):
        out = picks_theorem_int([(0, 0), (3, 0)])
        assert out["area2"].iloc[0] == 0
        assert (out["pick_check"] == 1).all()

    def test_random_pick_identity(self):
        rng = random.Random(167)
        for _ in range(10):
            pts = [(rng.randrange(20), rng.randrange(20))
                   for _ in range(8)] + [(0, 0), (25, 0), (0, 25)]
            out = picks_theorem_int(pts)
            assert (out["pick_check"] == 1).all()
            assert out["area2"].iloc[0] == \
                2 * out["interior_pts"].iloc[0] \
                + out["boundary_pts"].iloc[0] - 2


class TestFaulhaber:
    def test_small_table(self):
        out = faulhaber_int([(0, 9)])    # n = 10
        got = {int(r.m): int(r.power_sum) for r in out.itertuples()}
        assert got[0] == 10
        assert got[1] == 55
        assert got[2] == 385
        assert got[3] == 3025
        assert got[6] == 1978405

    def test_nicomachus(self):
        out = faulhaber_int([(h, h * 37) for h in range(5)])
        for _, grp in out.groupby("h"):
            g = {int(r.m): int(r.power_sum)
                 for r in grp.itertuples()}
            assert g[3] == g[1] ** 2

    def test_max_n_fits_int64(self):
        out = faulhaber_int([(0, 499)])  # n = 500
        s6 = int(out[out["m"] == 6]["power_sum"].iloc[0])
        assert s6 == sum(k ** 6 for k in range(1, 501))
        assert s6 < 2 ** 63
