"""Kernel pins for the iv_wald / meta_fixed batch.

iv_wald: Wald LATE = ITT_y / ITT_d cleared to ONE cross-multiplied
floor; perfect compliance makes late == itt EXACTLY, one-sided 50%
compliance doubles it, a dead first stage clamps and flags weak.
meta_fixed: identical strata collapse Cochran's Q to exactly 0 (no
flooring residue), a flipped stratum blows past chi2_df, degenerate
all-or-none strata emit with w = 0 and leave the pool.
"""

from documentai_ray.extras import iv_wald_int, meta_fixed_int


class TestIVWald:
    def test_perfect_compliance_late_equals_itt(self):
        # everyone encouraged takes up (d1=n1), nobody else does
        r = iv_wald_int({1: (100, 100, 40), 0: (100, 0, 10)})
        assert r["first_stage_ppm"] == 1_000_000
        assert r["itt_y_ppm"] == 300_000
        assert r["late_ppm"] == r["itt_y_ppm"]  # EXACT, not approx
        assert not r["weak_instrument"]

    def test_half_compliance_doubles_itt(self):
        r = iv_wald_int({1: (100, 50, 25), 0: (100, 0, 10)})
        assert r["first_stage_ppm"] == 500_000
        assert r["itt_y_ppm"] == 150_000
        assert r["late_ppm"] == 300_000  # exactly 2x the ITT

    def test_dead_first_stage_clamps_and_flags(self):
        r = iv_wald_int({1: (10, 0, 5), 0: (10, 0, 2)})
        assert r["first_stage_ppm"] == 0
        assert r["late_ppm"] == 0
        assert r["weak_instrument"]

    def test_weak_threshold_at_10pp(self):
        # first stage exactly 10pp is NOT weak (strict <)
        r = iv_wald_int({1: (100, 10, 0), 0: (100, 0, 0)})
        assert r["first_stage_ppm"] == 100_000
        assert not r["weak_instrument"]
        r = iv_wald_int({1: (100, 9, 0), 0: (100, 0, 0)})
        assert r["weak_instrument"]

    def test_negative_late_sign_split(self):
        # outcome LOWER under encouragement: floor must sign-split
        r = iv_wald_int({1: (100, 50, 10), 0: (100, 0, 25)})
        assert r["itt_y_ppm"] == -150_000
        assert r["late_ppm"] == -300_000

    def test_always_takers_cancel(self):
        # same always-taker rate both arms: first stage = complier
        # share only (20 ATs each side, 30 compliers on top)
        r = iv_wald_int({1: (100, 50, 0), 0: (100, 20, 0)})
        assert r["first_stage_ppm"] == 300_000


class TestMetaFixed:
    def test_identical_strata_q_exactly_zero(self):
        m = meta_fixed_int([("a", 100, 30, 100, 20),
                            ("b", 100, 30, 100, 20),
                            ("c", 100, 30, 100, 20)])
        assert (m["q_milli"] == 0).all()
        assert (m["i2_ppm"] == 0).all()
        assert not m["heterogeneous"].any()
        # pooled equals the common d (floors agree on equal weights)
        assert (m["pooled_ppm"] == m["d_ppm"]).all()

    def test_flipped_stratum_heterogeneous(self):
        m = meta_fixed_int([("a", 100, 80, 100, 20),
                            ("b", 100, 20, 100, 80),
                            ("c", 100, 80, 100, 20)])
        assert m["heterogeneous"].all()
        assert m["i2_ppm"].iloc[0] > 500_000
        assert m["df"].iloc[0] == 2

    def test_degenerate_stratum_leaves_pool(self):
        m = meta_fixed_int([("a", 100, 0, 100, 0),   # zero variance
                            ("b", 100, 30, 100, 20),
                            ("c", 100, 30, 100, 20)])
        a = m[m["stratum"] == "a"].iloc[0]
        assert a["w_scaled"] == 0 and a["d_ppm"] == 0
        assert (m["df"] == 1).all()  # only b,c pool
        assert (m["q_milli"] == 0).all()

    def test_empty_arm_emits_but_excluded(self):
        m = meta_fixed_int([("a", 0, 0, 100, 20),
                            ("b", 100, 30, 100, 20)])
        a = m[m["stratum"] == "a"].iloc[0]
        assert a["w_scaled"] == 0
        assert (m["df"] == 0).all()
        assert not m["heterogeneous"].any()

    def test_weight_dominance(self):
        # big stratum (10x n) dominates the pool: pooled lands
        # nearer its d than the small stratum's
        m = meta_fixed_int([("big", 1000, 300, 1000, 200),
                            ("small", 10, 8, 10, 1)])
        d_big = m.loc[m.stratum == "big", "d_ppm"].iloc[0]
        d_small = m.loc[m.stratum == "small", "d_ppm"].iloc[0]
        pooled = m["pooled_ppm"].iloc[0]
        assert abs(pooled - d_big) < abs(pooled - d_small)

    def test_variance_floor_arithmetic(self):
        # nt=4, ct=1: v-term = 1e12*1*3 // 64 = 46875000000
        m = meta_fixed_int([("a", 4, 1, 4, 2)])
        # control: 1e12*2*2 // 64 = 62500000000; v = 109375000000
        # w = 1e12 // v = 9
        assert m["w_scaled"].iloc[0] == 9
