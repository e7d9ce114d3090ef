"""Buzen closed-network convolution (aggregates.buzen_network_int)
and exact TSP (aggregates.tsp_heldkarp_int) kernel pins."""

import random
from itertools import permutations

from documentai_ray.extras import buzen_network_int, tsp_heldkarp_int


class TestBuzen:
    def test_single_station_closed_form(self):
        # one station holds all N jobs: G(n) = t^n, X = 1/t,
        # util = t * t^(N-1) / t^N = 1 exactly, nbar = N
        out = buzen_network_int([7], 6).iloc[0]
        assert out["g_n"] == 7 ** 6
        assert out["g_nm1"] == 7 ** 5
        assert out["util_ppm"] == 1_000_000
        assert out["nbar_milli"] == 6000
        assert out["conservation_gap"] == 0

    def test_symmetric_stations_split_evenly(self):
        out = buzen_network_int([5, 5, 5], 6)
        # symmetry: identical loads -> identical rows
        assert len(set(out["util_ppm"])) == 1
        assert len(set(out["nbar_milli"])) == 1
        # G(n) = 5^n * C(n+2, 2) (compositions weighted equally)
        assert out["g_n"].iloc[0] == 5 ** 6 * 28
        # nbar = 2 each (6 jobs / 3 stations), exact pre-floor
        assert list(out["nbar_milli"]) == [2000, 2000, 2000]

    def test_brute_force_and_conservation_sweep(self):
        # the kernel asserts DP == composition enumeration and the
        # conservation identity internally; a 25-draw survival sweep
        rng = random.Random(31)
        for _ in range(25):
            m = rng.randrange(1, 5)
            loads = [rng.randrange(1, 21) for _ in range(m)]
            out = buzen_network_int(loads, 6)
            assert (out["conservation_gap"] == 0).all()
            assert (out["util_ppm"] <= 1_000_000).all()
            # bottleneck station has the highest utilization
            mx = max(loads)
            assert out.loc[out["t_load"] == mx, "util_ppm"].iloc[0] \
                == out["util_ppm"].max()

    def test_bottleneck_dominates_asymptotically(self):
        # loads 1 vs 19: almost all jobs queue at the slow station
        out = buzen_network_int([1, 19], 6)
        slow = out[out["t_load"] == 19].iloc[0]
        assert slow["nbar_milli"] > 5500
        assert slow["util_ppm"] == 1_000_000 * 19 * \
            out["g_nm1"].iloc[0] // out["g_n"].iloc[0]


class TestTSP:
    def _brute(self, w):
        best = None
        for perm in permutations(range(1, 5)):
            seq = (0,) + perm + (0,)
            c = sum(w[(min(a, b), max(a, b))]
                    for a, b in zip(seq, seq[1:]))
            best = c if best is None else min(best, c)
        return best

    def test_unit_weights(self):
        w = {(a, b): 1 for a in range(5) for b in range(a + 1, 5)}
        out = tsp_heldkarp_int(w).iloc[0]
        assert out["opt_cost"] == 5
        assert out["degree_slack_x2"] == 0   # degree bound tight
        assert out["onetree_lb"] == 5        # 3-edge MST + 2 edges
        assert out["onetree_slack"] == 0

    def test_matches_brute_force_sweep(self):
        # the kernel asserts DP == tour enumeration internally; also
        # re-derive here independently and check both bounds
        rng = random.Random(41)
        for _ in range(40):
            w = {(a, b): rng.randrange(1, 98)
                 for a in range(5) for b in range(a + 1, 5)}
            out = tsp_heldkarp_int(w).iloc[0]
            assert out["opt_cost"] == self._brute(w)
            assert out["degree_slack_x2"] >= 0
            assert out["onetree_slack"] >= 0

    def test_metric_path_instance(self):
        # points on a line at 0,1,2,3,4 with distance weights:
        # optimal tour = go right and come back = 8
        pos = [0, 1, 2, 3, 4]
        w = {(a, b): abs(pos[a] - pos[b])
             for a in range(5) for b in range(a + 1, 5)}
        # zero weights not allowed in the query contract but the
        # kernel itself handles them; line metric has w>=1 except
        # adjacent... abs diffs are >= 1 here for distinct points
        out = tsp_heldkarp_int(w).iloc[0]
        assert out["opt_cost"] == 8

    def test_one_expensive_vertex(self):
        # all edges 1 except those touching node 4 cost 50: any tour
        # must enter and leave node 4 -> opt = 3 + 2*50
        w = {}
        for a in range(5):
            for b in range(a + 1, 5):
                w[(a, b)] = 50 if b == 4 else 1
        out = tsp_heldkarp_int(w).iloc[0]
        assert out["opt_cost"] == 3 + 100
