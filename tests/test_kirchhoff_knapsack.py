"""Matrix-tree (aggregates.spanning_trees_int) and 0/1 knapsack DP
(aggregates.knapsack_dp_int) kernel pins."""

import random
from itertools import combinations

from documentai_ray.extras import knapsack_dp_int, spanning_trees_int


class TestSpanningTrees:
    def test_cayley_unit_weights(self):
        # zero censuses -> every edge weight 1 + 0 = 1 -> K5 with
        # unit weights -> Cayley: 5^3 = 125 for BOTH columns
        out = spanning_trees_int({}, {}).iloc[0]
        assert out["tree_weight"] == 125
        assert out["n_trees_unit"] == 125
        assert out["prufer_gap"] == 0

    def test_prufer_certificate_random_sweep(self):
        # the kernel asserts det == Prüfer brute force internally;
        # surviving 30 random censuses IS the matrix-tree sweep
        rng = random.Random(13)
        for _ in range(30):
            sup = {r: rng.randrange(500) for r in range(5)}
            cust = {r: rng.randrange(5000) for r in range(5)}
            out = spanning_trees_int(sup, cust).iloc[0]
            assert out["prufer_gap"] == 0
            assert out["n_trees_unit"] == 125
            # weighted count >= unit count iff weights >= 1: always
            assert out["tree_weight"] >= 125

    def test_census_symmetry(self):
        # swapping the two censuses leaves every w(a,b) unchanged
        # (the weight formula is symmetric in sup/cust)
        sup = {0: 7, 1: 3, 4: 11}
        cust = {0: 2, 2: 9}
        a = spanning_trees_int(sup, cust).iloc[0]["tree_weight"]
        b = spanning_trees_int(cust, sup).iloc[0]["tree_weight"]
        assert a == b

    def test_known_weighted_instance(self):
        # all-equal censuses -> all 10 edges share one weight w ->
        # weighted count = 125 * w^4 (every tree has 4 edges)
        sup = {r: 3 for r in range(5)}
        cust = {r: 4 for r in range(5)}
        w = 1 + (3 * 4 + 3 * 4) % 97
        out = spanning_trees_int(sup, cust).iloc[0]
        assert out["tree_weight"] == 125 * w ** 4


class TestKnapsackDP:
    def _brute(self, items, W):
        best = 0
        for r in range(len(items) + 1):
            for c in combinations(items, r):
                if sum(w for _, w, _ in c) <= W:
                    best = max(best, sum(v for *_, v in c))
        return best

    def test_hand_instance(self):
        items = [(0, 3, 10), (1, 4, 14), (2, 5, 16), (3, 2, 9)]
        out = knapsack_dp_int(items, 7).iloc[0]
        assert out["opt_value"] == 25          # items 1 + 3
        assert out["greedy_value"] == 23       # ratio order: 3, 1
        assert out["lp_bound_milli"] == 26333  # 23 + 10*(1/3)
        assert out["lp_slack_milli"] == 1333
        assert out["half_slack"] == 21

    def test_matches_brute_force(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randrange(1, 13)
            items = [(i, rng.randrange(1, 12), rng.randrange(0, 30))
                     for i in range(n)]
            W = rng.randrange(1, 40)
            out = knapsack_dp_int(items, W).iloc[0]
            assert out["opt_value"] == self._brute(items, W)
            # certificates
            assert out["lp_slack_milli"] >= 0
            assert out["half_slack"] >= 0
            assert out["greedy_value"] <= out["opt_value"]

    def test_all_items_fit(self):
        items = [(0, 2, 5), (1, 3, 7)]
        out = knapsack_dp_int(items, 10).iloc[0]
        assert out["opt_value"] == 12
        assert out["greedy_value"] == 12
        assert out["lp_bound_milli"] == 12000
        assert out["lp_slack_milli"] == 0

    def test_zero_capacity(self):
        out = knapsack_dp_int([(0, 1, 100)], 0).iloc[0]
        assert out["opt_value"] == 0
        assert out["best_single"] == 0
        assert out["lp_bound_milli"] == 0

    def test_weight_floor_to_one(self):
        # weight 0 is clamped to 1 (p_size guard), stated convention
        out = knapsack_dp_int([(0, 0, 4)], 1).iloc[0]
        assert out["opt_value"] == 4
