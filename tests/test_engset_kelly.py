"""Engset finite-source blocking + Kelly bet-sizing kernels."""
from fractions import Fraction

import pytest

from documentai_ray.extras import engset_int, kelly_int


def _exact_engset(m, alpha, c):
    """Truncated-binomial state law, exact Fractions — first
    principles, not the recursion."""
    from math import comb
    a = Fraction(alpha, 10**6)
    probs = [comb(m, k) * a ** k for k in range(min(c, m) + 1)]
    if c > m:
        return Fraction(0)
    return probs[c] / sum(probs)


def test_engset_recursion_matches_state_law():
    # drift bound: one ppm floor per step, c steps deep
    for m, alpha in ((5, 800_000), (20, 150_000), (3, 2_000_000)):
        out = engset_int(m, alpha, servers=6)
        for r in out.itertuples(index=False):
            exact = _exact_engset(m, alpha, r.servers)
            assert abs(r.engset_ppm - exact * 10**6) <= r.servers + 1


def test_engset_structural_zero_and_monotone():
    out = engset_int(4, 900_000, servers=10)
    es = list(out["engset_ppm"])
    assert all(a >= b for a, b in zip(es, es[1:]))
    # more servers than sources NEVER block — structural zero
    assert all(e == 0 for e in out["engset_ppm"][4:])
    assert all(b > 0 for b in out["erlangb_ppm"])  # B never hits 0


def test_engset_blocks_less_than_erlang_b():
    # the defining theorem: finite sources block less at the same
    # total offered load (exact in Fractions; floored chains agree
    # within their joint drift)
    for m, alpha in ((5, 700_000), (10, 300_000)):
        out = engset_int(m, alpha, servers=8)
        for r in out.itertuples(index=False):
            assert r.engset_ppm <= r.erlangb_ppm + r.servers + 1


def test_engset_converges_to_erlang_b():
    # M -> inf at fixed total load A = M*alpha: Engset -> Erlang-B
    out = engset_int(1_000_000, 3, servers=5)  # A = 3 erlangs
    for r in out.itertuples(index=False):
        assert abs(r.engset_ppm - r.erlangb_ppm) <= 20


def test_kelly_famous_pins():
    out = kelly_int(500_000, [1000])
    assert int(out["kelly_ppm"].iloc[0]) == 0       # fair coin, evens
    assert not bool(out["bet"].iloc[0])
    out2 = kelly_int(600_000, [1000])
    assert int(out2["kelly_ppm"].iloc[0]) == 200_000  # the textbook 20%
    assert int(out2["edge_ppm"].iloc[0]) == 200_000
    assert bool(out2["bet"].iloc[0])


def test_kelly_monotone_and_bounded():
    grid = [250, 500, 1000, 2000, 5000]
    for p in (100_000, 400_000, 700_000, 950_000):
        out = kelly_int(p, grid)
        ks = list(out["kelly_ppm"])
        assert all(a <= b for a, b in zip(ks, ks[1:]))  # monotone in b
        assert all(k < p for k in ks)                   # f < p
    # monotone in p at fixed odds
    at_evens = [int(kelly_int(p, [1000])["kelly_ppm"].iloc[0])
                for p in (200_000, 500_000, 800_000)]
    assert at_evens == sorted(at_evens)


def test_kelly_negative_edge_sign_split():
    out = kelly_int(100_000, [500])   # heavy underdog at short odds
    k = int(out["kelly_ppm"].iloc[0])
    assert k < 0 and not bool(out["bet"].iloc[0])
    # trunc-toward-zero semantics (matches SQL //): recompute
    num = 500 * 100_000 - 1000 * 900_000
    assert k == -((-num) // 500)
