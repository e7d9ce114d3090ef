"""Pollaczek-Khinchine M/G/1 + CRR binomial option kernels."""
import random
from fractions import Fraction

import pytest

from documentai_ray.extras import (_CRR_DEN, _CRR_GRID, _CRR_PDEN,
                                   crr_option_int, mg1_pk_int)

RHOS = [500, 800, 900, 950]


def test_mg1_constant_service_scv_zero():
    # deterministic service: scv == 0, lbias exactly 1e6, and the
    # empirical wait EQUALS the deterministic benchmark post-floor
    out = mg1_pk_int([(300, 7)], RHOS)
    assert list(out["scv_ppm"]) == [0] * 4
    assert list(out["lbias_ppm"]) == [1_000_000] * 4
    assert list(out["wq_pk_micro"]) == list(out["wq_det_micro"])


def test_mg1_exponential_matching_two_point():
    # {0, 2m} equal weights has E[S^2] = 2E[S]^2 — the exponential
    # moment signature: scv exactly 1e6, wq_pk == wq_exp post-floor
    out = mg1_pk_int([(0, 5), (600, 5)], RHOS)
    assert list(out["scv_ppm"]) == [1_000_000] * 4
    assert list(out["wq_pk_micro"]) == list(out["wq_exp_micro"])


def test_mg1_identities_sweep():
    rng = random.Random(53)
    for _ in range(25):
        hist = [(c, rng.randrange(1, 30))
                for c in rng.sample(range(1, 2000), 12)]
        out = mg1_pk_int(hist, RHOS)
        n = sum(m for _, m in hist)
        s1 = sum(c * m for c, m in hist)
        s2 = sum(c * c * m for c, m in hist)
        # inspection paradox: lbias == scv + 1e6 EXACTLY post-floor
        assert (out["lbias_ppm"] - out["scv_ppm"]).eq(
            1_000_000).all()
        assert (out["lbias_ppm"] >= 1_000_000).all()  # C-S
        # deterministic waits exactly half exponential pre-floor;
        # post-floor wq_exp - 2*wq_det in {0, 1}
        gap = out["wq_exp_micro"] - 2 * out["wq_det_micro"]
        assert gap.isin([0, 1]).all()
        # PK blend Wq = (1+cs2)/2 * Wq_exp, exact in Fractions,
        # then ONE floor = the kernel's value
        for r, wq in zip(out["rho_permille"], out["wq_pk_micro"]):
            cs2 = Fraction(n * s2 - s1 * s1, s1 * s1)
            wq_exp = Fraction(1000 * r * s1, (1000 - r) * n)
            exact = (1 + cs2) / 2 * wq_exp
            assert wq == exact.numerator // exact.denominator
        # monotone in utilization
        assert list(out["wq_pk_micro"]) == sorted(
            out["wq_pk_micro"])


def test_mg1_unstable_raises_and_degenerate():
    with pytest.raises(ValueError):
        mg1_pk_int([(10, 1)], [1000])
    out = mg1_pk_int([(0, 9)], RHOS)      # all-zero service
    assert (out["wq_pk_micro"] == 0).all()
    assert (out["lbias_ppm"] == 1_000_000).all()


def test_crr_design_constants():
    # re-derive the lattice constants rather than trusting them:
    # weights sum to 9^10 and the martingale sum is 180^10 = 9^10*P
    assert sum(w for _, w, _ in _CRR_GRID) == 9 ** 10
    assert sum(w * pw for _, w, pw in _CRR_GRID) == 180 ** 10
    assert _CRR_DEN == 9 ** 10 * _CRR_PDEN


def test_crr_parity_and_laws_sweep():
    rng = random.Random(59)
    for _ in range(25):
        s0 = rng.randrange(1, 3_000_000)
        out = crr_option_int(s0)
        # put-call parity BIT-EXACT post-floor on every row
        assert (out["parity_gap"] == 0).all()
        assert (out["call_cents"] - out["put_cents"]
                == s0 - out["strike_cents"]).all()
        # monotone: call decreasing, put increasing in strike
        assert list(out["call_cents"]) == sorted(
            out["call_cents"], reverse=True)
        assert list(out["put_cents"]) == sorted(out["put_cents"])
        assert (out["time_value_cents"] >= 0).all()


def test_crr_zero_strike_and_deep_otm():
    s0 = 123_456
    out = crr_option_int(s0, moneyness=[(0, 1), (10, 1)])
    # zero strike: call == S0 exactly (the martingale), put == 0
    assert out["call_cents"].iloc[0] == s0
    assert out["put_cents"].iloc[0] == 0
    # K = 10*S0 > S0*(25/16)^5: call == 0, put == K - S0 exactly
    assert out["call_cents"].iloc[1] == 0
    assert out["put_cents"].iloc[1] == 10 * s0 - s0


def test_crr_fraction_cross_check_and_convexity():
    rng = random.Random(61)
    q = Fraction(4, 9)
    for _ in range(10):
        s0 = rng.randrange(100, 500_000)
        out = crr_option_int(s0, moneyness=[(1, 2), (1, 1), (3, 2)])
        exacts = []
        for _, row in out.iterrows():
            k = int(row["strike_cents"])
            c = sum(Fraction(w, 9 ** 10)
                    * max(s0 * Fraction(pw, _CRR_PDEN) - k, 0)
                    for _, w, pw in _CRR_GRID)
            assert row["call_cents"] == c.numerator // c.denominator
            exacts.append(c)
        # convexity of the exact call price in the strike
        # (equally spaced grid s0/2, s0, 3s0/2 up to strike floors)
        k0, k1, k2 = out["strike_cents"]
        if k1 - k0 == k2 - k1:        # exact equal spacing
            assert exacts[0] + exacts[2] >= 2 * exacts[1]
