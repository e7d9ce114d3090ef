"""Frobenius coin problem (aggregates.frobenius_coin_int) and
Stern-Brocot descent (aggregates.stern_brocot_int) kernel pins."""

import math
import random

from documentai_ray.extras import frobenius_coin_int, stern_brocot_int


class TestFrobenius:
    def test_mcnugget_style(self):
        # a=4, b=9: g = 23, 12 non-representables
        out = frobenius_coin_int(2, 7)
        assert out["a"].iloc[0] == 4
        assert out["b"].iloc[0] == 9
        assert out["frobenius"].iloc[0] == 23
        assert out["n_count"].iloc[0] == 12
        assert out["n_nonrep"].max() == 23

    def test_classic_2_3(self):
        out = frobenius_coin_int(0, 1)
        assert (out["a"].iloc[0], out["b"].iloc[0]) == (2, 3)
        assert out["frobenius"].iloc[0] == 1
        assert list(out["n_nonrep"]) == [1]

    def test_coprime_bump(self):
        # a=6, b0=8 -> bumped past 8, 9 has gcd 3... 6,8->gcd 2,
        # 6,9->3, 6,10->2, 6,11->1
        out = frobenius_coin_int(4, 6)
        assert out["a"].iloc[0] == 6
        assert out["b"].iloc[0] == 11

    def test_sylvester_random(self):
        rng = random.Random(181)
        for _ in range(10):
            out = frobenius_coin_int(rng.randrange(10 ** 6),
                                     rng.randrange(10 ** 6))
            a, b = int(out["a"].iloc[0]), int(out["b"].iloc[0])
            assert math.gcd(a, b) == 1
            assert len(out) == (a - 1) * (b - 1) // 2
            assert out["frobenius"].iloc[0] == a * b - a - b


class TestSternBrocot:
    def test_three_sevenths(self):
        out = stern_brocot_int(2, 5)     # target 3/7
        assert (out["p"].iloc[0], out["q"].iloc[0]) == (3, 7)
        last = out.iloc[-1]
        assert (last["mp"], last["mq"]) == (3, 7)
        assert last["dir"] == 0
        # unimodularity at every step
        assert ((out["rp"] * out["lq"] - out["lp"] * out["rq"])
                == 1).all()

    def test_path_length_is_cf_sum(self):
        rng = random.Random(191)
        for _ in range(12):
            out = stern_brocot_int(rng.randrange(10 ** 6),
                                   rng.randrange(10 ** 6))
            p, q = int(out["p"].iloc[0]), int(out["q"].iloc[0])
            cf, x, y = [], p, q
            while y:
                cf.append(x // y)
                x, y = y, x % y
            assert len(out) == sum(cf) - 1
            assert math.gcd(p, q) == 1 and 0 < p < q

    def test_one_half_single_step(self):
        out = stern_brocot_int(0, 0)     # 1/2
        assert len(out) == 1
        assert (out["mp"].iloc[0], out["mq"].iloc[0]) == (1, 2)

    def test_mediant_between(self):
        out = stern_brocot_int(7, 11)
        for r in out.itertuples():
            assert r.lp * r.mq < r.mp * r.lq
            assert r.mp * r.rq < r.rp * r.mq
