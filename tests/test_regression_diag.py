"""Durbin-Watson + Cook's distance kernels (regression diagnostics)."""
import random
from fractions import Fraction

import pytest

from documentai_ray.extras import (_ols_centered, cooks_distance_int,
                                   durbin_watson_int)


def test_dw_expansion_identity_and_bounds():
    # the expansion that makes DW ~ 2(1-rho1): SumDelta^2 ==
    # 2*SE2 - 2*SEE' - E_0^2 - E_last^2, EXACT on the integers
    rng = random.Random(67)
    for _ in range(25):
        ys = [rng.randrange(0, 500) for _ in range(rng.randrange(3, 40))]
        n, _, es, _ = _ols_centered(ys)
        se2 = sum(e * e for e in es)
        sd2 = sum((a - b) ** 2 for a, b in zip(es[1:], es))
        sep = sum(a * b for a, b in zip(es[1:], es))
        assert sd2 == 2 * se2 - 2 * sep - es[0] ** 2 - es[-1] ** 2
        out = durbin_watson_int(ys)
        assert 0 <= int(out["dw_milli"].iloc[0]) <= 4000
        if se2:
            assert int(out["dw_milli"].iloc[0]) == 1000 * sd2 // se2


def test_dw_direction_cases_and_perfect_fit():
    # positively autocorrelated step residuals -> dw well below 2;
    # alternating residuals -> dw well above 2
    step = [10] * 15 + [100] * 15
    assert int(durbin_watson_int(step)["dw_milli"].iloc[0]) < 2000
    alt = [50 + (7 if t % 2 == 0 else -7) for t in range(30)]
    assert int(durbin_watson_int(alt)["dw_milli"].iloc[0]) > 2000
    # exact line: every residual 0 -> the stated null convention
    line = [5 + 3 * t for t in range(12)]
    out = durbin_watson_int(line)
    assert int(out["dw_milli"].iloc[0]) == 2000
    assert int(out["rho1_milli"].iloc[0]) == 0
    assert (cooks_distance_int(line)["cook_milli"] == 0).all()


def test_leverage_hat_trace_and_symmetry():
    rng = random.Random(71)
    for _ in range(15):
        n = rng.randrange(3, 35)
        ys = [rng.randrange(0, 100) for _ in range(n)]
        nn, big_l, _, hs = _ols_centered(ys)
        assert sum(hs) == 2 * big_l          # trace(H) = p = 2
        assert hs == hs[::-1]                # symmetric design
        assert max(hs) == hs[0] == hs[-1]    # end points lead
        out = cooks_distance_int(ys)
        # post-floor trace within n of 2e6
        tot = int(out["leverage_ppm"].sum())
        assert 2_000_000 - nn <= tot <= 2_000_000


def test_cook_fraction_replay():
    rng = random.Random(73)
    for _ in range(12):
        ys = [rng.randrange(0, 300) for _ in range(rng.randrange(4, 25))]
        n = len(ys)
        xs = [2 * t - (n - 1) for t in range(n)]
        sxx = sum(x * x for x in xs)
        sy = sum(ys)
        sxy = sum(x * y for x, y in zip(xs, ys))
        b = Fraction(sxy, sxx)
        a = Fraction(sy, n)
        es = [y - a - b * x for x, y in zip(xs, ys)]
        se2 = sum(e * e for e in es)
        if se2 == 0:
            continue
        s2 = se2 / (n - 2)
        out = cooks_distance_int(ys)
        for t, row in out.iterrows():
            h = Fraction(1, n) + Fraction(xs[t] * xs[t], sxx)
            d = es[t] ** 2 * h / (2 * s2 * (1 - h) ** 2)
            scaled = 1000 * d
            assert row["cook_milli"] == (scaled.numerator
                                         // scaled.denominator)
            lev = 1_000_000 * h
            assert row["leverage_ppm"] == (lev.numerator
                                           // lev.denominator)


def test_cook_spike_is_argmax_and_flagged():
    ys = [100] * 30
    ys[29] = 400                      # end-point spike: leverage x error
    out = cooks_distance_int(ys)
    assert int(out["cook_milli"].idxmax()) == 29
    assert int(out["influential"].iloc[29]) == 1
    # same-size spike at the center moves the line less
    yc = [100] * 30
    yc[15] = 400
    outc = cooks_distance_int(yc)
    assert (int(outc["cook_milli"].iloc[15])
            < int(out["cook_milli"].iloc[29]))


def test_min_points_guard():
    with pytest.raises(ValueError):
        durbin_watson_int([1, 2])
    with pytest.raises(ValueError):
        cooks_distance_int([5])
