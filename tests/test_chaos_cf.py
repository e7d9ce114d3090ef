"""Logistic-map + continued-fraction kernels."""
import random
from fractions import Fraction
from math import gcd

import pytest

from documentai_ray.extras import cf_convergents_int, logistic_map_int

GRID = [2500, 3200, 3500, 3900]


def test_logistic_regimes():
    out = logistic_map_int(314_159, GRID)
    by_r = {int(r.r_milli): r for _, r in out.iterrows()}
    # r = 2.5: the algebraic fixed point 1 - 1/r is floor-invariant
    assert 2500 * 600_000 * 400_000 // 10 ** 9 == 600_000
    assert by_r[2500]["period"] == 1
    assert abs(by_r[2500]["x_final_ppm"] - 600_000) <= 1
    # r = 3.2: period 2, cycle brackets the algebraic pair
    assert by_r[3200]["period"] == 2
    assert (abs(by_r[3200]["x_final_ppm"] - 513_044) <= 3
            or abs(by_r[3200]["x_final_ppm"] - 799_455) <= 3)
    # r = 3.5: period 4; r = 3.9: no short cycle
    assert by_r[3500]["period"] == 4
    assert by_r[3900]["period"] == 0


def test_logistic_sensitive_dependence():
    a = logistic_map_int(500_000, [3900])
    b = logistic_map_int(500_001, [3900])
    assert abs(int(a["x_final_ppm"].iloc[0])
               - int(b["x_final_ppm"].iloc[0])) > 100_000
    # while the contracting regime forgets the seed entirely
    a = logistic_map_int(200_000, [2500])
    b = logistic_map_int(900_000, [2500])
    assert abs(int(a["x_final_ppm"].iloc[0])
               - int(b["x_final_ppm"].iloc[0])) <= 1


def test_cf_hand_expansions():
    out = cf_convergents_int(355, 113)
    assert list(out["a_quot"]) == [3, 7, 16]
    assert list(out["num"]) == [3, 22, 355]
    assert list(out["den"]) == [1, 7, 113]
    assert list(out["side"]) == [-1, 1, 0]
    # Fibonacci ratio: canonical CF is all ones ending in 2
    out = cf_convergents_int(13, 8)
    assert list(out["a_quot"]) == [1, 1, 1, 1, 2]
    # convergents are ratios of consecutive Fibonacci numbers
    assert list(out["num"]) == [1, 2, 3, 5, 13]
    assert list(out["den"]) == [1, 1, 2, 3, 8]


def test_cf_laws_sweep():
    rng = random.Random(151)
    for _ in range(30):
        q = rng.randrange(2, 2000)
        p = rng.randrange(0, 3 * q)
        out = cf_convergents_int(p, q)
        g = gcd(p, q) or 1
        # last convergent is p/q in lowest terms, side 0
        assert int(out["num"].iloc[-1]) == p // g
        assert int(out["den"].iloc[-1]) == q // g
        assert int(out["side"].iloc[-1]) == 0
        # alternation: sides flip sign until exact
        sides = list(out["side"][:-1])
        assert all(a * b < 0 for a, b in zip(sides, sides[1:]))
        # denominators strictly increase after step 0
        dens = list(out["den"])
        assert all(x <= y for x, y in zip(dens, dens[1:]))


def test_cf_best_approximation_theorem():
    # best approximation of the SECOND kind: from step 1 on,
    # |k*x - h| beats every fraction with a smaller-or-equal
    # denominator (scaled by q: |k*p - h*q|)
    rng = random.Random(157)
    for _ in range(8):
        q = rng.randrange(50, 400)
        p = rng.randrange(1, q)
        out = cf_convergents_int(p, q)
        for _, row in out.iterrows():
            if int(row["step"]) == 0:
                continue
            h, k = int(row["num"]), int(row["den"])
            err = abs(k * p - h * q)
            for k2 in range(1, k + 1):
                lo = p * k2 // q
                best2 = min(abs(k2 * p - h2 * q)
                            for h2 in (lo, lo + 1))
                if k2 < k:
                    assert best2 >= err
                else:
                    assert best2 == err


def test_cf_guards_and_zero():
    out = cf_convergents_int(0, 7)
    assert list(out.iloc[0]) == [0, 0, 0, 1, 0]
    with pytest.raises(ValueError):
        cf_convergents_int(3, 0)
