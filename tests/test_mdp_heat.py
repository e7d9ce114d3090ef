"""MDP value iteration (aggregates.mdp_value_iter_int) and exact ring
heat diffusion (aggregates.heat_diffusion_int) kernel pins."""

import random

from documentai_ray.extras import heat_diffusion_int, mdp_value_iter_int


class TestMDPValueIter:
    def test_residual_always_zero(self):
        for g in range(0, 20001, 500):
            out = mdp_value_iter_int(g)
            assert list(out["bellman_residual"]) == [0] * 5

    def test_threshold_policy_theorem(self):
        # wait value strictly decreases in s while crawl value is
        # constant -> the optimal policy is a threshold: best_action
        # nondecreasing in s, for EVERY reward level
        for g in range(0, 20001, 250):
            acts = list(mdp_value_iter_int(g)["best_action"])
            assert acts == sorted(acts), (g, acts)

    def test_value_nonincreasing_in_staleness(self):
        for g in (0, 1500, 3000, 8000):
            v = list(mdp_value_iter_int(g)["v_milli"])
            assert v == sorted(v, reverse=True)

    def test_huge_reward_crawl_everywhere(self):
        out = mdp_value_iter_int(15000)
        assert list(out["best_action"]) == [1] * 5
        # all states crawl -> V identical across states, and V is the
        # exact floored fixpoint of v = G + 9v//10
        v = out["v_milli"].iloc[0]
        assert len(set(out["v_milli"])) == 1
        assert v == 15000 + 9 * v // 10

    def test_zero_reward_still_crawls_when_stale(self):
        # even at G = 0, resetting to the freshest state beats waiting
        # at the bottom (V(0) > V(4)); wait wins only near the top
        out = mdp_value_iter_int(0)
        acts = list(out["best_action"])
        assert acts[0] == 0 and acts[4] == 1

    def test_known_threshold_regime(self):
        assert list(mdp_value_iter_int(2000)["best_action"]) == \
            [0, 0, 1, 1, 1]
        assert list(mdp_value_iter_int(3000)["best_action"]) == \
            [0, 1, 1, 1, 1]


class TestHeatDiffusion:
    def test_uniform_is_fixed_point(self):
        out = heat_diffusion_int([(h, 40) for h in range(24)])
        assert list(out["u10_milli"]) == [40000] * 24
        assert list(out["mass_drift"]) == [0] * 24

    def test_mass_conserved_random(self):
        rng = random.Random(8)
        for _ in range(20):
            cen = [(h, rng.randrange(1000)) for h in range(24)]
            out = heat_diffusion_int(cen)
            assert out["mass_drift"].iloc[0] == 0
            assert out["total_mass0"].iloc[0] == sum(n for _, n in cen)

    def test_maximum_principle(self):
        # the evolved profile's range never exceeds the initial range
        rng = random.Random(15)
        for _ in range(20):
            cen = [(h, rng.randrange(500)) for h in range(24)]
            out = heat_diffusion_int(cen)
            lo, hi = out["u0"].min(), out["u0"].max()
            assert out["u10_milli"].min() >= lo * 1000 - 1000
            assert out["u10_milli"].max() <= hi * 1000

    def test_spike_spreads_symmetrically(self):
        # ring symmetry: a spike at hour 0 gives u(h) == u(24 - h)
        out = heat_diffusion_int([(0, 2400)])
        u = list(out["u10_milli"])
        for h in range(1, 12):
            assert u[h] == u[24 - h]
        assert u[0] == max(u)

    def test_rotation_equivariance(self):
        # shifting the census by k hours rotates the output by k
        rng = random.Random(21)
        cen = [(h, rng.randrange(100)) for h in range(24)]
        base = list(heat_diffusion_int(cen)["u10_milli"])
        k = 7
        rot = [((h + k) % 24, n) for h, n in cen]
        shifted = list(heat_diffusion_int(rot)["u10_milli"])
        assert shifted == [base[(h - k) % 24] for h in range(24)]
