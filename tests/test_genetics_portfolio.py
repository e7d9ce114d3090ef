"""Hardy-Weinberg + two-asset minimum-variance kernels."""
import random
from fractions import Fraction

import pytest

from documentai_ray.extras import hardy_weinberg_int, portfolio_minvar_int


def _exact_hwe(nd, nh, nr):
    """Direct Sum (O-E)^2/E with estimated allele frequencies —
    validates the closed form the kernel uses."""
    nn = nd + nh + nr
    na, nb = 2 * nd + nh, 2 * nr + nh
    p, q = Fraction(na, 2 * nn), Fraction(nb, 2 * nn)
    es = [nn * p * p, 2 * nn * p * q, nn * q * q]
    chi2 = sum((o - e) ** 2 / e for o, e in zip((nd, nh, nr), es)
               if e > 0)
    f = 1 - Fraction(nh, nn) / (2 * p * q)
    return chi2, f


def test_hwe_closed_form_equals_direct_chi2():
    rng = random.Random(17)
    for _ in range(40):
        nd = rng.randrange(1, 400)
        nh = rng.randrange(1, 400)
        nr = rng.randrange(1, 400)
        out = hardy_weinberg_int(nd, nh, nr)
        chi2, f = _exact_hwe(nd, nh, nr)
        assert int(out["chi2_milli"].iloc[0]) == int(chi2 * 1000)
        got_f = int(out["f_milli"].iloc[0])
        # f_milli = 1000 - floor(non-negative term): exact trunc of
        # the rational toward -inf on the subtracted side
        assert abs(got_f - float(f) * 1000) <= 1
        # chi2 = N * F^2 (the classical identity, exact rationals)
        assert chi2 == (nd + nh + nr) * f * f


def test_hwe_perfect_equilibrium_and_extremes():
    # p = 1/2 in exact HW proportions: 25/50/25
    out = hardy_weinberg_int(25, 50, 25)
    assert int(out["chi2_milli"].iloc[0]) == 0
    assert int(out["f_milli"].iloc[0]) == 0
    assert bool(out["hw_ok"].iloc[0])
    assert int(out["p_ppm"].iloc[0]) == 500_000
    # no heterozygotes at all: F = 1, maximal disequilibrium
    out2 = hardy_weinberg_int(50, 0, 50)
    assert int(out2["f_milli"].iloc[0]) == 1000
    assert int(out2["chi2_milli"].iloc[0]) == 100_000  # N*F^2
    assert not bool(out2["hw_ok"].iloc[0])
    # monomorphic conventions
    out3 = hardy_weinberg_int(100, 0, 0)
    assert int(out3["chi2_milli"].iloc[0]) == 0
    assert bool(out3["hw_ok"].iloc[0])
    assert int(out3["p_ppm"].iloc[0]) == 1_000_000


def _moments(x, y):
    n = len(x)
    return (n, sum(x), sum(y), sum(a * a for a in x),
            sum(b * b for b in y), sum(a * b for a, b in zip(x, y)))


def test_portfolio_symmetric_and_uncorrelated():
    # symmetric assets (mirror series): w = 1/2 exactly
    x = [10, 20, 30, 40]
    y = [40, 30, 20, 10]
    out = portfolio_minvar_int(*_moments(x, y))
    assert int(out["w_min_ppm"].iloc[0]) == 500_000
    # uncorrelated: w = Vy / (Vx + Vy)
    x2 = [1, 1, 3, 3]
    y2 = [2, 8, 2, 8]   # cov = 0 by construction
    out2 = portfolio_minvar_int(*_moments(x2, y2))
    vx = int(out2["var_x_n2"].iloc[0])
    vy = int(out2["var_y_n2"].iloc[0])
    assert int(out2["cov_xy_n2"].iloc[0]) == 0
    assert int(out2["w_min_ppm"].iloc[0]) == 1_000_000 * vy // (vx + vy)


def test_portfolio_optimality_and_diversification():
    rng = random.Random(29)

    def pvar(w, vx, vy, c):
        return (w * w * vx + (10**6 - w) ** 2 * vy
                + 2 * w * (10**6 - w) * c)

    for _ in range(30):
        n = rng.randrange(5, 30)
        x = [rng.randrange(0, 100) for _ in range(n)]
        y = [rng.randrange(0, 100) for _ in range(n)]
        out = portfolio_minvar_int(*_moments(x, y))
        vx, vy, c, w = (int(out["var_x_n2"].iloc[0]),
                        int(out["var_y_n2"].iloc[0]),
                        int(out["cov_xy_n2"].iloc[0]),
                        int(out["w_min_ppm"].iloc[0]))
        port = int(out["port_var_n2"].iloc[0])
        assert port >= 0
        # discrete optimality around the floored weight
        assert pvar(w, vx, vy, c) <= pvar(w + 1000, vx, vy, c)
        assert pvar(w, vx, vy, c) <= pvar(w - 1000, vx, vy, c)
        # diversification: never worse than the better single asset
        if 0 <= w <= 10**6:
            assert port <= min(vx, vy) + 1


def test_portfolio_constant_difference_convention():
    # x - y constant: denominator 0, the 500000 convention
    x = [5, 7, 9]
    y = [6, 8, 10]
    out = portfolio_minvar_int(*_moments(x, y))
    assert int(out["w_min_ppm"].iloc[0]) == 500_000
