"""Van der Waerden W(3,2) (aggregates.van_der_waerden_int) and
Kaprekar's constant (aggregates.kaprekar_6174_int) kernel pins."""

import random

from documentai_ray.extras import (VDW_APS, _kaprekar_step, kaprekar_6174_int,
                                   van_der_waerden_int)


class TestVanDerWaerden:
    def test_ap_count(self):
        assert len(VDW_APS) == 16

    def test_monochrome_coloring(self):
        out = van_der_waerden_int([0] * 9)
        assert (out["mono"] == 1).all()
        assert out["n_mono"].iloc[0] == 16

    def test_alternating_has_mono_aps(self):
        # 010101010: d=2 APs are monochromatic
        out = van_der_waerden_int([0, 1, 0, 1, 0, 1, 0, 1, 0])
        assert out["n_mono"].iloc[0] >= 1
        d2 = out[(out["d"] == 2) & (out["a"] == 1)]
        assert d2["mono"].iloc[0] == 1

    def test_tightness_count_stable(self):
        a = van_der_waerden_int([0] * 9)["n_apfree_8"].iloc[0]
        b = van_der_waerden_int([1] * 9)["n_apfree_8"].iloc[0]
        assert a == b > 0

    def test_every_coloring_has_mono(self):
        # asserted exhaustively in-kernel; spot-check the classic
        # AP-free-on-[8] pattern extended to 9 must gain one
        # 01100110 extended by either color
        for last in (0, 1):
            bits = [0, 1, 1, 0, 0, 1, 1, 0, last]
            out = van_der_waerden_int(bits)
            assert out["n_mono"].iloc[0] >= 1


class TestKaprekar:
    def test_classic_trajectory(self):
        out = kaprekar_6174_int([3524])
        assert list(out["value"]) == [3524, 3087, 8352, 6174]

    def test_fixed_point(self):
        assert _kaprekar_step(6174) == 6174
        out = kaprekar_6174_int([6174])
        assert len(out) == 1

    def test_repdigit_dodge(self):
        out = kaprekar_6174_int([1111])
        assert out["value"].iloc[0] == 1112
        out2 = kaprekar_6174_int([9999])
        assert out2["value"].iloc[0] == 1

    def test_leading_zero_handling(self):
        # 0999: desc 9990 - asc 0999 = 8991
        assert _kaprekar_step(999) == 8991

    def test_all_reach_within_seven(self):
        rng = random.Random(193)
        seeds = [rng.randrange(10 ** 6) for _ in range(15)]
        out = kaprekar_6174_int(seeds)
        for inst, grp in out.groupby("inst"):
            assert grp["value"].iloc[-1] == 6174
            assert grp["step"].max() <= 7
