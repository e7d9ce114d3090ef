"""Double-auction clearing + secretary optimal-stopping kernels."""
import math
import random
from fractions import Fraction

import pytest

from documentai_ray.extras import double_auction_int, secretary_int


def _expand(hist):
    out = []
    for c, n in hist:
        out.extend([c] * n)
    return out


def _brute_clear(bids, asks):
    # prefix definition on fully sorted books
    b = sorted(bids, reverse=True)
    a = sorted(asks)
    kk = 0
    for k in range(1, min(len(b), len(a)) + 1):
        if b[k - 1] >= a[k - 1]:
            kk = k
    if kk == 0:
        return 0, 0, 0, 0, 0
    gains = sum(b[:kk]) - sum(a[:kk])
    return kk, b[kk - 1], a[kk - 1], (b[kk - 1] + a[kk - 1]) // 2, gains


def test_double_auction_equals_prefix_brute_force():
    rng = random.Random(89)
    for _ in range(40):
        bh = [(c, rng.randrange(1, 5))
              for c in rng.sample(range(0, 120), rng.randrange(1, 15))]
        ah = [(c, rng.randrange(1, 5))
              for c in rng.sample(range(0, 120), rng.randrange(1, 15))]
        out = double_auction_int(bh, ah)
        kk, bk, sk, mid, g = _brute_clear(_expand(bh), _expand(ah))
        assert list(out.iloc[0]) == [kk, bk, sk, mid, g]
        if kk:
            # individual rationality at the midpoint
            assert sk <= mid <= bk
            # prefix-surplus maximality: every traded pair gains
            b = sorted(_expand(bh), reverse=True)
            a = sorted(_expand(ah))
            assert all(x >= y for x, y in zip(b[:kk], a[:kk]))


def test_double_auction_no_trade_and_ties():
    out = double_auction_int([(5, 3)], [(10, 4)])
    assert list(out.iloc[0]) == [0, 0, 0, 0, 0]
    # tie-heavy book: bids {7x4}, asks {7x3}: every pair 7>=7
    out = double_auction_int([(7, 4)], [(7, 3)])
    assert int(out["n_trades"].iloc[0]) == 3
    assert int(out["gains_cents"].iloc[0]) == 0
    assert int(out["mid_price_cents"].iloc[0]) == 7


def test_secretary_classical_cutoff_and_fraction_argmax():
    for n in range(2, 41):
        out = secretary_int(list(range(n)))
        r_star = int(out["r_star"].iloc[0])
        # brute-force Fraction argmax of phi(r)
        def phi(r):
            if r == 1:
                return Fraction(1, n)
            return (Fraction(r - 1, n)
                    * sum(Fraction(1, j - 1) for j in range(r, n + 1)))
        best = max(range(1, n + 1), key=lambda r: (phi(r), -r))
        assert r_star == best
        scaled = 1_000_000 * phi(best)
        assert int(out["phi_ppm"].iloc[0]) == (scaled.numerator
                                               // scaled.denominator)
    # the textbook n = 30 row
    out = secretary_int([0] * 15 + [1] + [0] * 14)
    assert int(out["r_star"].iloc[0]) == 12
    assert int(out["phi_ppm"].iloc[0]) == 378651
    # asymptotic bracket: phi(r*) >= 1/e - 1/n
    assert int(out["phi_ppm"].iloc[0]) >= 1_000_000 / math.e - 1_000_000 / 30


def test_secretary_policy_cases():
    # max inside the observation window: forced last day
    ds = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3,
          8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7]
    out = secretary_int(ds)                  # r* = 12, prefix max 9
    assert int(out["picked_day"].iloc[0]) == 29
    assert int(out["is_max"].iloc[0]) == 0
    # rising sequence: first post-observation day wins and IS max?
    ds = list(range(30))
    out = secretary_int(ds)
    assert int(out["picked_day"].iloc[0]) == 11   # day r*-1, 0-based
    assert int(out["is_max"].iloc[0]) == 0        # 11 < 29
    # spike right after the window: picked and is the max
    ds = [5] * 11 + [100] + [1] * 18
    out = secretary_int(ds)
    assert int(out["picked_day"].iloc[0]) == 11
    assert int(out["is_max"].iloc[0]) == 1
    # all-descending: nothing ever beats the prefix -> last day
    ds = list(range(30, 0, -1))
    out = secretary_int(ds)
    assert int(out["picked_day"].iloc[0]) == 29
    # ties are NOT relatively best (strictness)
    ds = [7] * 30
    out = secretary_int(ds)
    assert int(out["picked_day"].iloc[0]) == 29
    assert int(out["is_max"].iloc[0]) == 1        # all equal the max


def test_secretary_n2_edge_and_guard():
    out = secretary_int([4, 9])
    # phi(1) = phi(2) = 1/2, tie breaks to r = 1 -> pick day 0
    assert int(out["r_star"].iloc[0]) == 1
    assert int(out["phi_ppm"].iloc[0]) == 500_000
    assert int(out["picked_day"].iloc[0]) == 0
    with pytest.raises(ValueError):
        secretary_int([1])
