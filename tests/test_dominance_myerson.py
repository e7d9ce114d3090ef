"""Stochastic-dominance + Myerson-reserve kernels."""
import random
from fractions import Fraction

import pytest

from documentai_ray.extras import myerson_reserve_int, stochastic_dominance_int


def _hist(vals):
    h = {}
    for v in vals:
        h[v] = h.get(v, 0) + 1
    return list(h.items())


def _brute_fsd(a, b):
    # CDF_A(x) <= CDF_B(x) for every x, cross-multiplied
    na, nb = len(a), len(b)
    return all(nb * sum(1 for v in a if v <= x)
               <= na * sum(1 for v in b if v <= x)
               for x in sorted(set(a) | set(b)))


def _brute_ssd(a, b):
    # integral of CDF_A <= integral of CDF_B at every grid point
    na, nb = len(a), len(b)
    xs = sorted(set(a) | set(b))
    ia = ib = Fraction(0)
    prev = xs[0]
    for x in xs:
        ia += Fraction(sum(1 for v in a if v <= prev), na) * (x - prev)
        ib += Fraction(sum(1 for v in b if v <= prev), nb) * (x - prev)
        if ia > ib:
            return False
        prev = x
    return True


def test_dominance_brute_force_sweep():
    rng = random.Random(109)
    for _ in range(40):
        a = [rng.randrange(0, 25) for _ in range(rng.randrange(1, 20))]
        b = [rng.randrange(0, 25) for _ in range(rng.randrange(1, 20))]
        out = stochastic_dominance_int(_hist(a), _hist(b)).iloc[0]
        assert bool(out["fsd_ab"]) == _brute_fsd(a, b)
        assert bool(out["fsd_ba"]) == _brute_fsd(b, a)
        assert bool(out["ssd_ab"]) == _brute_ssd(a, b)
        assert bool(out["ssd_ba"]) == _brute_ssd(b, a)
        # FSD implies SSD
        if out["fsd_ab"]:
            assert out["ssd_ab"]
        if out["fsd_ba"]:
            assert out["ssd_ba"]
        # FSD(A>=B) implies cross-multiplied mean ordering
        if out["fsd_ab"]:
            assert len(b) * sum(a) >= len(a) * sum(b)


def test_dominance_hand_cases():
    # downward shift is FSD-dominated
    a = [10, 20, 30]
    b = [v - 3 for v in a]
    out = stochastic_dominance_int(_hist(a), _hist(b)).iloc[0]
    assert out["fsd_ab"] == 1 and out["fsd_ba"] == 0
    # identical: mutual weak dominance, zero margins
    out = stochastic_dominance_int(_hist(a), _hist(a)).iloc[0]
    assert (out["fsd_ab"], out["fsd_ba"]) == (1, 1)
    assert out["fsd_margin_ab"] == out["ssd_margin_ab"] == 0
    # Rothschild-Stiglitz mean-preserving spread: {5,5} vs {4,6}
    out = stochastic_dominance_int([(5, 2)], [(4, 1), (6, 1)]).iloc[0]
    assert out["fsd_ab"] == 0 and out["ssd_ab"] == 1
    assert out["ssd_ba"] == 0                 # spread never SSD-wins
    with pytest.raises(ValueError):
        stochastic_dominance_int([], [(1, 1)])


def test_myerson_brute_force_over_all_prices():
    rng = random.Random(113)
    for _ in range(30):
        vals = [rng.randrange(1, 80)
                for _ in range(rng.randrange(1, 30))]
        out = myerson_reserve_int(_hist(vals))
        opt = out[out["policy"] == "optimal"].iloc[0]
        # brute force EVERY integer price 0..max+1
        best_rev, best_r = -1, 0
        for r in range(0, max(vals) + 2):
            rev = r * sum(1 for v in vals if v >= r)
            if rev > best_rev:
                best_rev, best_r = rev, r
        assert int(opt["revenue_cents"]) == best_rev
        assert int(opt["price_cents"]) == best_r
        # optimal beats the benchmark policies
        for pol in ("mean", "median"):
            assert (int(opt["revenue_cents"]) >=
                    int(out[out["policy"] == pol]
                        ["revenue_cents"].iloc[0]))


def test_myerson_uniform_hand_case_and_tie():
    out = myerson_reserve_int([(c, 1) for c in range(1, 11)])
    opt = out[out["policy"] == "optimal"].iloc[0]
    # r(11-r) peaks at 30 for r in {5,6}; tie breaks to 5
    assert int(opt["price_cents"]) == 5
    assert int(opt["revenue_cents"]) == 30
    assert int(opt["buyers_served"]) == 6
    assert int(opt["share_served_ppm"]) == 600_000
