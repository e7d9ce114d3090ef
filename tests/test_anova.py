"""One-way ANOVA + Brown-Forsythe integer kernels: the parametric
variance-decomposition pair (raw-magnitude complement of the
completed rank-test matrix)."""
from fractions import Fraction
import random
import statistics

import pandas as pd
import pytest

from documentai_ray.extras import anova_oneway_int, brown_forsythe_int


def _moments(named_groups):
    return [(name, len(vs), sum(vs), sum(v * v for v in vs))
            for name, vs in named_groups]


def _hist(named_groups):
    rows = []
    for name, vs in named_groups:
        cnt = {}
        for v in vs:
            cnt[v] = cnt.get(v, 0) + 1
        rows += [(name, c, n) for c, n in cnt.items()]
    return pd.DataFrame(rows, columns=["grp", "c", "n"])


def _exact_f(named_groups):
    """Exact rational F via Fractions — first-principles, no floors."""
    k = len(named_groups)
    allv = [v for _, vs in named_groups for v in vs]
    nn = len(allv)
    gm = Fraction(sum(allv), nn)
    ssb = sum(len(vs) * (Fraction(sum(vs), len(vs)) - gm) ** 2
              for _, vs in named_groups)
    ssw = sum(sum((v - Fraction(sum(vs), len(vs))) ** 2 for v in vs)
              for _, vs in named_groups)
    return Fraction(ssb, k - 1) / Fraction(ssw, nn - k)


def test_anova_matches_exact_rational_f():
    rng = random.Random(7)
    for _ in range(20):
        groups = [(f"g{i}",
                   [rng.randrange(1000, 9000) + 400 * i
                    for _ in range(rng.randrange(8, 30))])
                  for i in range(4)]
        out = anova_oneway_int(_moments(groups))
        f = int(out["f_milli"].iloc[0])
        exact = float(_exact_f(groups)) * 1000
        assert abs(f - exact) <= max(2.0, 0.01 * exact)


def test_anova_location_invariance_exact():
    rng = random.Random(11)
    groups = [(f"g{i}", [rng.randrange(100, 900)
                         for _ in range(15)]) for i in range(3)]
    base = anova_oneway_int(_moments(groups))
    shifted = anova_oneway_int(_moments(
        [(n, [v + 777 for v in vs]) for n, vs in groups]))
    for col in ("ssb_c2", "ssw_c2", "f_milli", "eta2_ppm", "n_grp"):
        assert list(base[col]) == list(shifted[col])
    assert list(shifted["sum_cents"]) == \
        [s + 777 * n for s, n in zip(base["sum_cents"], base["n_grp"])]


def test_anova_degenerate_conventions():
    # every value identical: SSW = SSB = 0, F = 0 by convention
    flat = anova_oneway_int(_moments(
        [("a", [5] * 10), ("b", [5] * 7)]))
    assert int(flat["f_milli"].iloc[0]) == 0
    assert int(flat["ssw_c2"].iloc[0]) == 0
    assert int(flat["eta2_ppm"].iloc[0]) == 0
    # distinct constants: SSW = 0, SSB > 0 -> certainty cap
    sep = anova_oneway_int(_moments(
        [("a", [5] * 10), ("b", [9] * 7)]))
    assert int(sep["f_milli"].iloc[0]) == 1_000_000_000
    assert int(sep["eta2_ppm"].iloc[0]) == 1_000_000


def test_anova_eta2_bounds_and_monotone_separation():
    base = [("a", [100, 110, 120]), ("b", [100, 110, 120])]
    near = anova_oneway_int(_moments(base))
    far = anova_oneway_int(_moments(
        [("a", [100, 110, 120]), ("b", [300, 310, 320])]))
    assert 0 <= int(near["eta2_ppm"].iloc[0]) <= 1_000_000
    assert int(far["f_milli"].iloc[0]) > int(near["f_milli"].iloc[0])
    assert int(far["eta2_ppm"].iloc[0]) > int(near["eta2_ppm"].iloc[0])


def test_bf_median_doubling_matches_statistics():
    rng = random.Random(3)
    for _ in range(25):
        vs = [rng.randrange(0, 500)
              for _ in range(rng.randrange(3, 40))]
        out = brown_forsythe_int(
            _hist([("a", vs), ("b", [1, 2, 3])]),
            grp_col="grp", val_col="c")
        med2 = int(out.loc[out["grp"] == "a", "med2_cents"].iloc[0])
        assert med2 == statistics.median_low(vs) + \
            statistics.median_high(vs)


def test_bf_location_invariance_exact():
    rng = random.Random(19)
    groups = [(f"g{i}", [rng.randrange(50, 450)
                         for _ in range(12 + i)]) for i in range(3)]
    base = brown_forsythe_int(_hist(groups), grp_col="grp",
                              val_col="c")
    shifted = brown_forsythe_int(
        _hist([(n, [v + 333 for v in vs]) for n, vs in groups]),
        grp_col="grp", val_col="c")
    for col in ("ssb_z2", "ssw_z2", "bf_milli", "sum_zdev", "n_grp"):
        assert list(base[col]) == list(shifted[col])
    assert list(shifted["med2_cents"]) == \
        [m + 666 for m in base["med2_cents"]]


def test_bf_vs_anova_differential_diagnostic():
    # equal means, unequal spreads: ANOVA sees nothing, BF alarms
    tight = [500 + d for d in (-1, 0, 0, 1) * 8]
    wide = [500 + d for d in (-200, -100, 100, 200) * 8]
    groups = [("tight", tight), ("wide", wide)]
    a = anova_oneway_int(_moments(groups))
    b = brown_forsythe_int(_hist(groups), grp_col="grp",
                           val_col="c")
    assert int(a["f_milli"].iloc[0]) < 100        # F ~ 0 on means
    assert int(b["bf_milli"].iloc[0]) > 100_000   # spreads scream
    # and the mirror-image control: shifted means, equal spreads
    groups2 = [("a", [100, 110, 120, 130] * 8),
               ("b", [900, 910, 920, 930] * 8)]
    a2 = anova_oneway_int(_moments(groups2))
    b2 = brown_forsythe_int(_hist(groups2), grp_col="grp",
                            val_col="c")
    assert int(a2["f_milli"].iloc[0]) > 1_000_000
    assert int(b2["bf_milli"].iloc[0]) == 0


def test_bf_identical_distributions_zero():
    vs = [10, 20, 20, 30, 40]
    out = brown_forsythe_int(_hist([("a", vs), ("b", vs)]),
                             grp_col="grp", val_col="c")
    assert int(out["bf_milli"].iloc[0]) == 0


def test_anova_ss_decomposition_and_nonneg():
    rng = random.Random(23)
    for _ in range(15):
        groups = [(f"g{i}",
                   [rng.randrange(0, 2000)
                    for _ in range(rng.randrange(5, 25))])
                  for i in range(rng.randrange(2, 6))]
        out = anova_oneway_int(_moments(groups))
        assert int(out["ssb_c2"].iloc[0]) >= 0
        assert int(out["ssw_c2"].iloc[0]) >= 0
        assert int(out["f_milli"].iloc[0]) >= 0
