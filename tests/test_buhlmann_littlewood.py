"""Bühlmann credibility + Littlewood protection kernels."""
import random
from fractions import Fraction

import pytest

from documentai_ray.extras import buhlmann_int, littlewood_int


def _mk_groups(rng, k=4, lo=5, hi=40, vlo=0, vhi=400):
    gs = []
    for i in range(k):
        vals = [rng.randrange(vlo, vhi)
                for _ in range(rng.randrange(lo, hi))]
        gs.append((f"g{i}", len(vals), sum(vals),
                   sum(v * v for v in vals)))
    return gs


def test_buhlmann_fraction_replay_of_declared_chain():
    # the contract is the FLOORED chain — replay it exactly
    rng = random.Random(79)
    for _ in range(20):
        gs = _mk_groups(rng)
        out = buhlmann_int(gs)
        kk = len(gs)
        nn = sum(n for _, n, _, _ in gs)
        ss = sum(s for _, _, s, _ in gs)
        qq = sum(q for _, _, _, q in gs)
        sn2 = sum(n * n for _, n, _, _ in gs)
        ssw = qq - sum(s * s // n for _, n, s, _ in gs)
        sst = qq - ss * ss // nn
        ssb = max(0, sst - ssw)
        v = 1000 * ssw // (nn - kk)
        anum = nn * (ssb * (nn - kk) - ssw * (kk - 1))
        aden = (nn - kk) * (nn * nn - sn2)
        a = max(0, anum * 1000 // aden if anum >= 0
                else -((-anum) * 1000 // aden))
        assert int(out["v_milli"].iloc[0]) == v
        assert int(out["a_milli"].iloc[0]) == a
        for (nm, n, s, _), (_, row) in zip(sorted(gs),
                                           out.iterrows()):
            den = n * a + v
            z = 1_000_000 * n * a // den if den > 0 else 0
            assert row["z_ppm"] == z
            assert 0 <= z <= 1_000_000
            prem = ((z * 1000 * s * nn
                     + (1_000_000 - z) * 1000 * ss * n)
                    // (1_000_000 * n * nn))
            assert row["premium_milli"] == prem
            # premium between individual and collective mean
            lo = min(Fraction(s, n), Fraction(ss, nn))
            hi = max(Fraction(s, n), Fraction(ss, nn))
            assert 1000 * lo - 1 <= prem <= 1000 * hi


def test_buhlmann_z_monotone_in_n():
    # shared estimators: bigger class => more credibility
    out = buhlmann_int([("a", 10, 1000, 150000),
                        ("b", 40, 8000, 2100000),
                        ("c", 90, 9000, 1400000)])
    by_n = out.sort_values("n_grp")["z_ppm"]
    assert list(by_n) == sorted(by_n)


def test_buhlmann_zero_between_variance():
    # identical per-class moments => SSB ~ 0 => a clamps to 0,
    # every Z = 0, premium == collective mean (floored milli)
    gs = [(nm, 10, 500, 27000) for nm in "abcd"]
    out = buhlmann_int(gs)
    assert int(out["zero_cred"].iloc[0]) == 1
    assert (out["z_ppm"] == 0).all()
    assert (out["premium_milli"] == 1000 * 2000 // 40).all()


def test_buhlmann_zero_within_variance():
    # each class constant (Q = S^2/n exactly), distinct means:
    # v = 0 => Z = 1e6 exactly, premium == individual mean
    gs = [("a", 5, 5 * 100, 5 * 100 * 100),
          ("b", 7, 7 * 300, 7 * 300 * 300),
          ("c", 4, 4 * 50, 4 * 50 * 50)]
    out = buhlmann_int(gs)
    assert (out["v_milli"] == 0).all()
    assert (out["z_ppm"] == 1_000_000).all()
    assert list(out["premium_milli"]) == list(out["mean_milli"])


def test_buhlmann_guards():
    with pytest.raises(ValueError):
        buhlmann_int([("a", 5, 10, 30)])          # one class
    with pytest.raises(ValueError):
        buhlmann_int([("a", 1, 3, 9), ("b", 1, 4, 16)])  # N <= K


def test_littlewood_closed_form_equals_grid():
    rng = random.Random(83)
    for _ in range(30):
        n = rng.randrange(3, 25)
        ds = [rng.randrange(0, 60) for _ in range(n)]
        fares = [(1000, f2) for f2 in (0, 100, 400, 999, 1000,
                                       1500)]
        out = littlewood_int(ds, fares)
        for (f1, f2), (_, row) in zip(fares, out.iterrows()):
            # first-principles: max y in 0..max(d) with
            # f1 * #{d >= y} > n * f2
            best = 0
            for y in range(0, max(ds) + 1):
                if f1 * sum(1 for d in ds if d >= y) > n * f2:
                    best = y
            assert row["protect_level"] == best
            assert row["tail_days"] == sum(
                1 for d in ds if d >= best)


def test_littlewood_laws():
    ds = [3, 1, 4, 1, 5, 9, 2, 6]
    # f2 -> 0 protects the max observed demand
    out = littlewood_int(ds, [(1000, 0)])
    assert int(out["protect_level"].iloc[0]) == 9
    # f2 >= f1: protect nothing
    out = littlewood_int(ds, [(1000, 1000), (1000, 2000)])
    assert (out["protect_level"] == 0).all()
    # monotone non-increasing in f2
    out = littlewood_int(ds, [(1000, f2) for f2 in
                              range(0, 1000, 50)])
    pl = list(out["protect_level"])
    assert all(a >= b for a, b in zip(pl, pl[1:]))
    # margin certificate positive whenever y* > 0
    assert ((out["protect_level"] == 0)
            | (out["margin"] > 0)).all()


def test_littlewood_ties():
    # heavy ties: i-th largest with duplicates
    ds = [5, 5, 5, 2, 2]
    out = littlewood_int(ds, [(1000, 500)])
    # i = 5*500//1000 + 1 = 3 -> 3rd largest = 5; tail = 3
    assert int(out["protect_level"].iloc[0]) == 5
    assert int(out["tail_days"].iloc[0]) == 3
