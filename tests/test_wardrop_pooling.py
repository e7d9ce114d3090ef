"""Wardrop/PoA + Dorfman group-testing kernels."""
import random
from fractions import Fraction

import pytest

from documentai_ray.extras import group_testing_int, wardrop_poa_int


def test_pigou_exact_four_thirds():
    # Pigou: l1 = c (constant), l2 = c*x: eq all on route 2,
    # opt splits half -> PoA exactly 4/3
    for c in (100, 500, 12345):
        out = wardrop_poa_int(c, 0, [(0, c)])
        assert int(out["poa_ppm"].iloc[0]) == 4_000_000 // 3
        assert int(out["f_eq_ppm"].iloc[0]) == 0


def test_wardrop_theorem_sweep():
    # Roughgarden-Tardos: PoA <= 4/3 for linear latencies, >= 1
    rng = random.Random(173)
    for _ in range(60):
        a1, a2 = rng.randrange(0, 500), rng.randrange(0, 500)
        b1, b2 = rng.randrange(0, 500), rng.randrange(0, 500)
        if b1 + b2 == 0:
            continue
        out = wardrop_poa_int(a1, a2, [(b1, b2)]).iloc[0]
        assert 1_000_000 <= out["poa_ppm"] <= 4_000_000 // 3 + 1
        # interior equilibrium: latencies equal (the certificate)
        fn = a2 + b2 - a1
        if 0 < fn < b1 + b2:
            assert out["latency_gap"] == 0
        # Fraction replay of the cleared costs
        d = b1 + b2
        fN = max(0, min(d, fn))
        eq = fN * (a1 * d + b1 * fN) + (d - fN) * (
            a2 * d + b2 * (d - fN))
        gN = max(0, min(2 * d, a2 + 2 * b2 - a1))
        opt = (gN * (2 * d * a1 + b1 * gN)
               + (2 * d - gN) * (2 * d * a2 + b2 * (2 * d - gN)))
        if opt > 0:
            assert out["poa_ppm"] == 4 * 1_000_000 * eq // opt


def test_wardrop_degenerate_constant_routes():
    out = wardrop_poa_int(100, 200, [(0, 0)]).iloc[0]
    assert out["f_eq_ppm"] == 1_000_000      # all on cheaper route 1
    assert out["poa_ppm"] == 1_000_000       # selfish == optimal
    out = wardrop_poa_int(200, 200, [(0, 0)]).iloc[0]
    assert out["f_eq_ppm"] == 0              # ties take route 2


def test_dorfman_textbook_optimum_and_regimes():
    out = group_testing_int(10_000, [2, 3, 5, 8, 11, 12, 16])
    best = out[out["best_k"] == 1]
    assert int(best["k_pool"].iloc[0]) == 11   # the p = 1% classic
    assert (out["saves"] == 1).all()           # pooling helps at 1%
    # p ~ 40%: pooling useless at every k >= 2
    out = group_testing_int(400_000, [2, 3, 5, 8])
    assert (out["saves"] == 0).all()
    # p -> 0: cost -> 1e6/k, max pool wins
    out = group_testing_int(0, [2, 5, 16])
    assert list(out["cost_ppm"]) == [500_000, 200_000, 62_500]
    assert int(out[out["best_k"] == 1]["k_pool"].iloc[0]) == 16


def test_dorfman_chain_bracket_and_monotone():
    rng = random.Random(179)
    for _ in range(20):
        p = rng.randrange(0, 300_000)
        ks = [2, 3, 5, 8, 11, 12, 16]
        out = group_testing_int(p, ks)
        # chain floors drift the power DOWN by <= k ppm vs exact
        for k, (_, row) in zip(ks, out.iterrows()):
            exact = Fraction(1_000_000 - p, 1_000_000) ** k
            ex_ppm = 1_000_000 * exact
            fl = ex_ppm.numerator // ex_ppm.denominator
            assert fl - k <= row["neg_pool_ppm"] <= fl
        # power strictly decreasing in k for p > 0
        pw = list(out["neg_pool_ppm"])
        if p > 0:
            assert all(a > b for a, b in zip(pw, pw[1:]))
    with pytest.raises(ValueError):
        group_testing_int(1000, [1])
