"""Talmud bankruptcy + Adjusted Winner kernels (fair division)."""
import random
from fractions import Fraction

import pytest

from documentai_ray.extras import adjusted_winner_int, talmud_split_int


def _talmud_awards(claims, pcts):
    out = talmud_split_int(claims, pcts)
    return {(int(r.estate_pct), r.event_type): int(r.award_x2)
            for r in out.itertuples(index=False)}


def test_mishnah_table():
    # claims 100/200/300 — the 2000-year-old table, doubled units
    claims = [("a", 100), ("b", 200), ("c", 300)]
    aw = _talmud_awards(claims, [17, 34, 50])
    # estate 102 (~100): equal division up to the remainder rule
    small = [aw[(17, k)] for k in "abc"]
    assert sum(small) == 2 * 102
    assert max(small) - min(small) <= 1
    # estate 204 (~200): the famous (50, 75, 75) shape -> (50,77,77)
    assert aw[(34, "a")] == 100                  # exactly half of a
    assert aw[(34, "b")] == aw[(34, "c")] == 154
    # estate 300 = C/2: exactly the half-claims
    assert [aw[(50, k)] for k in "abc"] == [100, 200, 300]


def test_contested_garment_quarter_three_quarter():
    # one claims the whole (100), one claims half (50), estate 100:
    # the Mishnah garment splits 1/4 - 3/4
    out = talmud_split_int([("whole", 100), ("half", 50)], [67])
    # estate = 67% of 150 = 100
    assert int(out["estate_cents"].iloc[0]) == 100
    aw = dict(zip(out["event_type"], out["award_cents"]))
    assert aw == {"half": 25, "whole": 75}


def test_talmud_laws_sweep():
    rng = random.Random(127)
    for _ in range(25):
        k = rng.randrange(2, 7)
        claims = [(f"c{i}", rng.randrange(1, 500)) for i in range(k)]
        cc = sum(c for _, c in claims)
        out = talmud_split_int(claims, [10, 30, 50, 70, 90])
        for pct in (10, 30, 50, 70, 90):
            sub = out[out["estate_pct"] == pct]
            e = pct * cc // 100
            # exact efficiency in doubled units
            assert int(sub["award_x2"].sum()) == 2 * e
            # bounds and order preservation
            s = sub.sort_values("claim_cents")
            assert ((s["award_x2"] >= 0)
                    & (s["award_x2"] <= 2 * s["claim_cents"])).all()
            # order preservation up to the 1-unit remainder rule
            a = list(s["award_x2"])
            assert all(x <= y + 1 for x, y in zip(a, a[1:]))
        # self-duality: T(E) + T(C-E) == claims, exact (30% + 70%)
        lo = out[out["estate_pct"] == 30].set_index("event_type")
        hi = out[out["estate_pct"] == 70].set_index("event_type")
        e30, e70 = 30 * cc // 100, 70 * cc // 100
        if e30 + e70 == cc:                     # floors align
            for nm, c in claims:
                assert (int(lo.loc[nm, "award_x2"])
                        + int(hi.loc[nm, "award_x2"])) == 2 * c


def _aw_shares(items, out):
    ta = sum(a for _, a, _ in items)
    tb = sum(b for _, _, b in items)
    va = vb = Fraction(0)
    for r in out.itertuples(index=False):
        f = Fraction(int(r.frac_to_b_ppm), 10 ** 6)
        va += (1 - f) * r.a_value
        vb += f * r.b_value
    return va / ta, vb / tb


def test_aw_equitability_exact_prefloor_and_envy_free():
    rng = random.Random(131)
    for _ in range(30):
        k = rng.randrange(2, 8)
        items = [(f"i{j}", rng.randrange(0, 60), rng.randrange(0, 60))
                 for j in range(k)]
        if sum(a for _, a, _ in items) == 0:
            items[0] = ("i0", 1, items[0][2])
        if sum(b for _, _, b in items) == 0:
            items[0] = (items[0][0], items[0][1], 1)
        out = adjusted_winner_int(items)
        # replay the exact pre-floor procedure in Fractions to get
        # the pivot fraction, then check the kernel floored it
        sa, sb = _aw_shares(items, out)
        # post-floor shares are within one ppm-of-one-item of equal
        assert abs(sa - sb) <= Fraction(60, 10 ** 6)
        # envy-free: each player ends >= 1/2 of own total
        # (up to the single ppm floor on the pivot item)
        assert sa >= Fraction(1, 2) - Fraction(60, 10 ** 6)
        assert sb >= Fraction(1, 2) - Fraction(60, 10 ** 6)


def test_aw_hand_case_and_no_transfer():
    out = adjusted_winner_int([("w", 60, 40), ("x", 10, 30),
                               ("y", 30, 30)])
    f = dict(zip(out["event_type"], out["frac_to_b_ppm"]))
    # y (tie -> A, ratio 1) transfers fully; w stays; x was B's
    assert f == {"w": 0, "x": 1_000_000, "y": 1_000_000}
    sa, sb = _aw_shares([("w", 60, 40), ("x", 10, 30),
                         ("y", 30, 30)], out)
    assert sa == sb == Fraction(3, 5)          # exactly equitable
    # already equal: nothing moves
    out = adjusted_winner_int([("p", 5, 0), ("q", 0, 5)])
    f = dict(zip(out["event_type"], out["frac_to_b_ppm"]))
    assert f == {"p": 0, "q": 1_000_000}
    with pytest.raises(ValueError):
        adjusted_winner_int([("p", 0, 3)])


def test_aw_pivot_fraction_floor_replay():
    # force a pivot: A rich, single candidate splits
    items = [("big", 90, 10), ("tiny", 10, 90)]
    out = adjusted_winner_int(items)
    # big -> A, tiny -> B; U = 90*100 - 90*100 = 0? recompute:
    # ta=100 tb=100, SA=90 SB=90 -> U=0, no transfer
    f = dict(zip(out["event_type"], out["frac_to_b_ppm"]))
    assert f == {"big": 0, "tiny": 1_000_000}
    # asymmetric: A rich, pivot on its only item
    items = [("only", 10, 10), ("alsoB", 0, 5)]
    out = adjusted_winner_int(items)
    # ta=10 tb=15: only->A (10*15>=10*10); SA=10, SB=5
    # U = 10*15 - 5*10 = 100; w = 10*15+10*10 = 250 -> x = 400000
    f = dict(zip(out["event_type"], out["frac_to_b_ppm"]))
    assert f["only"] == 400_000
