"""Exact periodogram (aggregates.periodogram_int) and max-flow/min-cut
duality (aggregates.maxflow_mincut_int) — kernel-level pins; the
mirrors are exercised by selfcheck/driver."""

import cmath
import random

from documentai_ray.extras import maxflow_mincut_int, periodogram_int


def _census_from_series(xs):
    """Hourly series -> the 12-cell (residue, count) exchange."""
    agg = {}
    for t, x in enumerate(xs):
        agg[t % 12] = agg.get(t % 12, 0) + x
    return sorted(agg.items())


def _float_power4(xs, p):
    x = sum(v * cmath.exp(-2j * cmath.pi * t / p)
            for t, v in enumerate(xs))
    return 4 * abs(x) ** 2


class TestPeriodogram:
    def test_constant_series_zero_power(self):
        # N divisible by 12 -> every residue class equal -> all four
        # ordinates exactly zero
        out = periodogram_int(_census_from_series([7] * 48))
        assert list(out["power_x4"]) == [0, 0, 0, 0]
        # peak tie-break: smallest period
        assert list(out["is_peak"]) == [1, 0, 0, 0]

    def test_pure_period3_lights_only_p3(self):
        xs = [5, 1, 3] * 8  # N = 24, divisible by 12
        out = periodogram_int(_census_from_series(xs))
        by_p = dict(zip(out["period"], out["power_x4"]))
        # closed form: S0=40, S1=8, S2=24 -> (80-32)^2 + 3*16^2
        assert by_p[3] == 48 ** 2 + 3 * 16 ** 2
        assert by_p[2] == by_p[4] == by_p[6] == 0
        assert dict(zip(out["period"], out["is_peak"]))[3] == 1

    def test_pure_period2_lights_only_p2(self):
        xs = [9, 2] * 12
        out = periodogram_int(_census_from_series(xs))
        by_p = dict(zip(out["period"], out["power_x4"]))
        assert by_p[2] == 4 * (12 * 9 - 12 * 2) ** 2
        assert by_p[3] == by_p[4] == by_p[6] == 0

    def test_matches_complex_dft_on_random_series(self):
        rng = random.Random(7)
        for _ in range(10):
            xs = [rng.randrange(20) for _ in range(60)]
            out = periodogram_int(_census_from_series(xs))
            for p, pw in zip(out["period"], out["power_x4"]):
                assert abs(pw - _float_power4(xs, p)) < 1e-4

    def test_constant_shift_invariance(self):
        # N divisible by 12: adding c to every hour leaves every
        # ordinate unchanged (the DC shift is orthogonal to each bin)
        rng = random.Random(11)
        xs = [rng.randrange(10) for _ in range(36)]
        a = periodogram_int(_census_from_series(xs))
        b = periodogram_int(_census_from_series([x + 5 for x in xs]))
        assert list(a["power_x4"]) == list(b["power_x4"])


class TestMaxflowMincut:
    def test_textbook_instance(self):
        # s->r0:5, s->r1:3; r0->g0:4, r0->g1:2, r1->g0:1; g0->t:3, g1->t:9
        out = maxflow_mincut_int({0: 5, 1: 3},
                                 {(0, 0): 4, (0, 1): 2, (1, 0): 1},
                                 {0: 3, 1: 9})
        row = out.iloc[0]
        assert row["max_flow"] == 5
        assert row["min_cut"] == 5
        assert row["duality_gap"] == 0
        # argmin cut: regions 0,1 + segment 0 on source side
        assert row["cut_mask"] == 0b0000100011
        assert row["n_cut_edges"] == 2
        assert row["total_supply"] == 8

    def test_single_path_bottleneck(self):
        out = maxflow_mincut_int({2: 10}, {(2, 3): 4}, {3: 7})
        assert out.iloc[0]["max_flow"] == 4

    def test_empty_network(self):
        out = maxflow_mincut_int({}, {}, {})
        assert out.iloc[0]["max_flow"] == 0
        assert out.iloc[0]["duality_gap"] == 0
        assert out.iloc[0]["cut_mask"] == 0

    def test_sink_side_binds(self):
        out = maxflow_mincut_int({0: 100}, {(0, 0): 100}, {0: 6})
        row = out.iloc[0]
        assert row["max_flow"] == 6
        # min cut is the lone t-edge: region 0 + segment 0 source side
        assert row["cut_mask"] == 0b0000100001

    def test_duality_on_random_instances(self):
        # the kernel asserts max_flow == enumerated min cut internally;
        # surviving 40 random instances IS the duality sweep, and the
        # flow never exceeds either aggregate bound
        rng = random.Random(3)
        for _ in range(40):
            s = {r: rng.randrange(8) for r in range(5)}
            mid = {(r, g): rng.randrange(5)
                   for r in range(5) for g in range(5)
                   if rng.random() < 0.5}
            t = {g: rng.randrange(12) for g in range(5)}
            row = maxflow_mincut_int(s, mid, t).iloc[0]
            assert row["duality_gap"] == 0
            assert row["max_flow"] <= sum(s.values())
            assert row["max_flow"] <= sum(t.values())
