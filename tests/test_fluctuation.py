"""Ballot-walk + dam-backlog kernels (fluctuation theory)."""
import itertools
import random
from fractions import Fraction

import pytest

from documentai_ray.extras import backlog_dam_int, ballot_walk_int


def test_bertrand_theorem_by_enumeration():
    # every interleaving of A vs B single votes, counted: the
    # fraction where the winner leads THROUGHOUT == (A-B)/(A+B)
    for a, b in [(3, 1), (4, 2), (5, 2), (4, 1)]:
        n = a + b
        wins = total = 0
        for pos in itertools.combinations(range(n), a):
            s = 0
            ok = True
            for t in range(n):
                s += 1 if t in pos else -1
                if s <= 0:
                    ok = False
                    break
            total += 1
            wins += ok
        assert Fraction(wins, total) == Fraction(a - b, a + b)
        # kernel ppm floor of the same closed form
        out = ballot_walk_int([a], [b])
        scaled = Fraction(1_000_000) * Fraction(a - b, a + b)
        assert int(out["ballot_ppm"].iloc[0]) == (
            scaled.numerator // scaled.denominator)


def test_ballot_walk_accounting_and_cases():
    rng = random.Random(103)
    for _ in range(25):
        n = rng.randrange(1, 40)
        a = [rng.randrange(0, 9) for _ in range(n)]
        b = [rng.randrange(0, 9) for _ in range(n)]
        out = ballot_walk_int(a, b)
        row = out.iloc[0]
        assert (row["lead_a_days"] + row["lead_b_days"]
                + row["tie_days"]) == n
        assert row["min_lead"] <= row["final_lead"] <= row["max_lead"]
        assert row["max_lead"] >= 0 >= row["min_lead"]
    # never re-ties: last_tie_day = 0 (the notional S_0 start)
    out = ballot_walk_int([5, 1], [1, 1])
    assert int(out["last_tie_day"].iloc[0]) == 0
    # ties on equal totals: ballot_ppm = 0
    out = ballot_walk_int([2, 1], [1, 2])
    assert int(out["ballot_ppm"].iloc[0]) == 0
    assert int(out["last_tie_day"].iloc[0]) == 2
    with pytest.raises(ValueError):
        ballot_walk_int([1, 2], [1])


def test_dam_duality_vs_recursion_replay():
    rng = random.Random(107)
    for _ in range(25):
        ys = [rng.randrange(0, 50) for _ in range(rng.randrange(1, 40))]
        ratios = [70, 90, 100, 110, 130]
        out = backlog_dam_int(ys, ratios)
        mean = sum(ys) // len(ys)
        for r, (_, row) in zip(ratios, out.iterrows()):
            c = r * mean // 100
            assert row["capacity"] == c
            b = mxb = cong = 0
            for y in ys:                    # Lindley recursion
                b = max(0, b + y - c)
                mxb = max(mxb, b)
                cong += 1 if b > 0 else 0
            assert row["final_backlog"] == b
            assert row["max_backlog"] == mxb
            assert row["congested_days"] == cong
        # backlog pointwise non-increasing in capacity
        fb = list(out["final_backlog"])
        assert all(x >= y for x, y in zip(fb, fb[1:]))


def test_dam_edge_capacities():
    ys = [10, 30, 5, 25, 10]
    # capacity >= max inflow: identically zero
    out = backlog_dam_int(ys, [300])        # c = 3*16 = 48 >= 30
    assert list(out.iloc[0])[2:] == [0, 0, 0]
    # zero capacity: final backlog == total inflow, every day wet
    out = backlog_dam_int(ys, [0])
    assert int(out["final_backlog"].iloc[0]) == sum(ys)
    assert int(out["congested_days"].iloc[0]) == len(ys)
