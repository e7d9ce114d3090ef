"""Bond duration/convexity + linkage-disequilibrium kernels."""
import random
from fractions import Fraction

import pytest

from documentai_ray.extras import bond_duration_int, linkage_diseq_int


def test_bond_theorems():
    out = bond_duration_int(150_000)
    by = {r.bond: r for _, r in out.iterrows()}
    # zero-coupon duration == maturity, exactly
    assert by["zero"]["duration_milli"] == 12_000
    # par theorem: coupon rate == yield <=> price == face
    assert by["par"]["price_ppm_of_face"] == 1_000_000
    assert by["discount"]["price_ppm_of_face"] < 1_000_000
    assert by["premium"]["price_ppm_of_face"] > 1_000_000
    # duration strictly decreasing in the coupon
    ds = [by[b]["duration_milli"]
          for b in ("zero", "discount", "par", "premium")]
    assert all(a > b for a, b in zip(ds, ds[1:]))
    # every coupon bond shorter than maturity
    assert all(d < 12_000 for d in ds[1:])


def test_bond_fraction_replay():
    rng = random.Random(181)
    v = Fraction(100, 101)
    for _ in range(10):
        face = rng.randrange(1, 3000) * 100
        out = bond_duration_int(face)
        for _, row in out.iterrows():
            coup = int(row["coupon_cents"])
            cfs = [coup] * 12
            cfs[11] += face
            pv = sum(cf * v ** (t + 1) for t, cf in enumerate(cfs))
            dur = sum((t + 1) * cf * v ** (t + 1)
                      for t, cf in enumerate(cfs)) / pv
            conv = sum((t + 1) * (t + 2) * cf * v ** (t + 1)
                       for t, cf in enumerate(cfs)) / pv
            price = 1_000_000 * pv / face
            assert row["price_ppm_of_face"] == (
                price.numerator // price.denominator)
            d = 1000 * dur
            assert row["duration_milli"] == d.numerator // d.denominator
            c = 1000 * conv
            assert row["convexity_milli"] == c.numerator // c.denominator


def test_ld_perfect_coupling_and_independence():
    # only AB and ab haplotypes: D' and r^2 exactly 1e6
    out = linkage_diseq_int(100, 60, 60, 60).iloc[0]
    assert out["dprime_ppm"] == 1_000_000
    assert out["r2_ppm"] == 1_000_000
    # exact product table: D = 0
    out = linkage_diseq_int(100, 40, 50, 20).iloc[0]
    assert out["d_x"] == 0 and out["dprime_ppm"] == 0
    # monomorphic margin
    out = linkage_diseq_int(50, 50, 20, 20).iloc[0]
    assert out["monomorphic"] == 1
    assert out["dprime_ppm"] == 0 and out["r2_ppm"] == 0


def test_ld_relabel_invariance_and_bounds():
    rng = random.Random(191)
    for _ in range(40):
        n = rng.randrange(4, 200)
        n_a = rng.randrange(1, n)
        n_b = rng.randrange(1, n)
        lo = max(0, n_a + n_b - n)
        n_ab = rng.randrange(lo, min(n_a, n_b) + 1)
        out = linkage_diseq_int(n, n_a, n_b, n_ab).iloc[0]
        # relabel locus A: n_a' = n - n_a, n_ab' = n_b - n_ab
        fl = linkage_diseq_int(n, n - n_a, n_b, n_b - n_ab).iloc[0]
        assert fl["d_x"] == -out["d_x"]            # sign flips
        assert abs(fl["dprime_ppm"]) == abs(out["dprime_ppm"])
        assert fl["r2_ppm"] == out["r2_ppm"]       # invariant
        # bounds: |D'| <= 1e6, r^2 <= 1e6, r^2 <= |D'| + 1
        assert abs(out["dprime_ppm"]) <= 1_000_000
        assert out["r2_ppm"] <= 1_000_000
        assert out["r2_ppm"] <= abs(out["dprime_ppm"]) + 1
