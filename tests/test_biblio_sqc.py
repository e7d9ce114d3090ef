"""Bibliometrics (h/g/i10) + acceptance-sampling kernels."""
import random

import pandas as pd
import pytest

from documentai_ray.extras import acceptance_sampling_int, h_g_index_fold


def _hist(author, cits):
    cnt = {}
    for c in cits:
        cnt[c] = cnt.get(c, 0) + 1
    return pd.DataFrame([(author, c, n) for c, n in cnt.items()],
                        columns=["author", "cit", "n"])


def _brute(cits):
    """Ranked-cumsum brute force — the SQL oracle's algorithm."""
    cs = sorted(cits, reverse=True)
    cum = h = g = 0
    for k, c in enumerate(cs, 1):
        cum += c
        if c >= k:
            h = k
        if cum >= k * k:
            g = k
    return h, g


def test_hg_literature_example():
    # the standard worked example: [10,8,5,4,3] -> h=4, g=5
    out = h_g_index_fold(_hist(1, [10, 8, 5, 4, 3]))
    assert int(out["h_index"].iloc[0]) == 4
    assert int(out["g_index"].iloc[0]) == 5
    assert int(out["i10"].iloc[0]) == 1
    assert int(out["total_cits"].iloc[0]) == 30


def test_hg_matches_brute_force_sweep():
    rng = random.Random(41)
    for _ in range(60):
        cits = [rng.randrange(0, rng.choice([5, 40, 300]))
                for _ in range(rng.randrange(1, 80))]
        out = h_g_index_fold(_hist(7, cits))
        h, g = _brute(cits)
        assert int(out["h_index"].iloc[0]) == h
        assert int(out["g_index"].iloc[0]) == g
        assert g >= h                      # Egghe's theorem


def test_hg_zero_cited_paper_law():
    rng = random.Random(5)
    for _ in range(20):
        cits = [rng.randrange(0, 60) for _ in range(20)]
        base = h_g_index_fold(_hist(1, cits))
        plus = h_g_index_fold(_hist(1, cits + [0]))
        assert int(plus["h_index"].iloc[0]) == \
            int(base["h_index"].iloc[0])
        assert int(plus["g_index"].iloc[0]) >= \
            int(base["g_index"].iloc[0])


def test_hg_multiple_authors_and_edges():
    df = pd.concat([_hist(1, [0, 0, 0]), _hist(2, [100] * 5),
                    _hist(3, [1])])
    out = h_g_index_fold(df).set_index("author")
    assert int(out.loc[1, "h_index"]) == 0
    assert int(out.loc[1, "g_index"]) == 0
    assert int(out.loc[2, "h_index"]) == 5
    assert int(out.loc[2, "g_index"]) == 5   # capped at n_papers
    assert int(out.loc[3, "h_index"]) == 1
    assert int(out.loc[3, "g_index"]) == 1


def test_acceptance_oc_curve_laws():
    grid = [(0, False), (25, False), (100, False), (500, False),
            (900, False), (1000, False)]
    out = acceptance_sampling_int(grid)
    pas = list(out["pa_ppm"])
    assert pas[0] == 1_000_000               # Pa(0) exact
    # monotone non-increasing, strict until the ppm floor hits zero
    # (true Pa(0.9) ~ 0.4 ppm floors to 0 — the tail flattens)
    assert all(a >= b for a, b in zip(pas, pas[1:]))
    assert all(a > b for a, b in zip(pas, pas[1:]) if a > 0)
    assert pas[-1] == 0                      # all defective
    # dyadic p = 1/2: (1 + 10 + 45) / 2^10 floored
    half = int(out.loc[out["p_milli"] == 500, "pa_ppm"].iloc[0])
    assert half == 56 * 1_000_000 // 1024 == 54687


def test_acceptance_exact_vs_fraction():
    from fractions import Fraction
    from math import comb
    for p in (13, 77, 250, 333, 666):
        out = acceptance_sampling_int([(p, True)])
        exact = sum(comb(10, d) * Fraction(p, 1000) ** d
                    * Fraction(1000 - p, 1000) ** (10 - d)
                    for d in range(3))
        assert int(out["pa_ppm"].iloc[0]) == int(exact * 1_000_000)


def test_acceptance_companions():
    out = acceptance_sampling_int([(200, True)])
    pa = int(out["pa_ppm"].iloc[0])
    assert int(out["aoq_ppm"].iloc[0]) == 200 * pa // 1000
    assert int(out["ati_milli"].iloc[0]) == \
        10_000 + 990 * (1_000_000 - pa) // 1000
    assert bool(out["is_observed"].iloc[0]) is True
