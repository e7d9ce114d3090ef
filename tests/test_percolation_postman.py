"""3x3 site percolation (aggregates.percolation_3x3_int) and
Chinese postman on K4 (aggregates.chinese_postman_int) kernel
pins."""

import random

from documentai_ray.extras import chinese_postman_int, percolation_3x3_int


class TestPercolation:
    def test_full_grid_percolates(self):
        out = percolation_3x3_int([1] * 9)
        assert out["percolates"].iloc[0] == 1
        assert out["n_clusters"].iloc[0] == 1
        assert (out["reach_from_top"] == 1).all()

    def test_empty_grid(self):
        out = percolation_3x3_int([0] * 9)
        assert out["percolates"].iloc[0] == 0
        assert out["n_clusters"].iloc[0] == 0
        assert (out["cluster_label"] == -1).all()

    def test_column_bridge(self):
        # single open column percolates with 1 cluster
        bits = [1, 0, 0, 1, 0, 0, 1, 0, 0]
        out = percolation_3x3_int(bits)
        assert out["percolates"].iloc[0] == 1
        assert out["n_open"].iloc[0] == 3

    def test_horizontal_wall_blocks(self):
        # open everywhere except the full middle row: blocked
        bits = [1, 1, 1, 0, 0, 0, 1, 1, 1]
        out = percolation_3x3_int(bits)
        assert out["percolates"].iloc[0] == 0
        assert out["n_clusters"].iloc[0] == 2

    def test_ensemble_count_constant(self):
        # the exhaustive count is configuration-independent
        a = percolation_3x3_int([1] * 9)["n_perc_configs"].iloc[0]
        b = percolation_3x3_int([0] * 9)["n_perc_configs"].iloc[0]
        assert a == b
        # nontrivial: some but not all configurations percolate
        assert 0 < a < 512

    def test_three_columns_three_clusters(self):
        bits = [1, 0, 1, 1, 0, 1, 1, 0, 1]
        out = percolation_3x3_int(bits)
        assert out["n_clusters"].iloc[0] == 2
        assert out["percolates"].iloc[0] == 1


class TestPostman:
    def test_uniform_weights(self):
        # all weights equal w: dist = w per pair, every pairing
        # costs 2w, tour = 6w + 2w
        out = chinese_postman_int([0] * 6)   # w = 1 each
        assert (out["cost"] == 2).all()
        assert (out["is_min"] == 1).all()
        assert out["tour_cost"].iloc[0] == 8

    def test_shortcut_path_used(self):
        # heavy direct edge (1,3): pairing (0,2)/(1,3) should
        # price (1,3) through the cheap detour
        out = chinese_postman_int([1, 5, 9, 2, 8, 3])
        # weights: 01=2, 02=6, 03=1, 12=3, 13=9, 23=4
        row = out[out["pairing"] == 1].iloc[0]
        assert row["cost"] == 5 + 3       # d(0,2)=5, d(1,3)=3
        best = out[out["is_min"] == 1]
        assert best["pairing"].iloc[0] == 2
        assert out["tour_cost"].iloc[0] == 25 + 4

    def test_tour_bounds(self):
        rng = random.Random(173)
        for _ in range(10):
            ws = [rng.randrange(100) for _ in range(6)]
            out = chinese_postman_int(ws)
            total = out["total_w"].iloc[0]
            assert out["tour_cost"].iloc[0] >= total
            assert (out["cost"] >= out[out["is_min"] == 1]
                    ["cost"].iloc[0]).all()
