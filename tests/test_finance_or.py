"""Loan amortization + NW-corner transportation kernels."""
import random
from fractions import Fraction

import pandas as pd
import pytest

from documentai_ray.extras import loan_amortization_int, nw_transport_int


def test_amortization_invariants():
    for p in (100_000, 1_234_567, 15_000_000):
        out = loan_amortization_int(p)
        assert int(out["principal_cents"].sum()) == p   # exact payoff
        assert int(out["balance_cents"].iloc[-1]) == 0
        bals = [p] + list(out["balance_cents"])
        assert all(a > b for a, b in zip(bals, bals[1:]))
        # payment + split consistency every month
        for r in out.itertuples(index=False):
            assert r.payment_cents == r.interest_cents \
                + r.principal_cents


def test_amortization_annuity_vs_fraction():
    p = 100_000  # $1000 at 1%/mo for 12 months: the textbook A=88.85
    out = loan_amortization_int(p)
    i = Fraction(1, 100)
    f = (1 + i) ** 12
    exact = Fraction(p) * i * f / (f - 1)
    a = int(out["payment_cents"].iloc[0])
    assert abs(a - exact) <= 3     # 12 ppm chain drift at cents scale
    # exact A = 8884.8788...; the 12 chain floors perturb the ratio
    # f/(f-1e6) upward by a hair, landing one cent above the
    # real-arithmetic floor — pinned so the contract stays visible
    assert a == 8885
    # the last payment differs from A only by accumulated floor dust
    assert abs(int(out["payment_cents"].iloc[-1]) - a) <= 24


def test_amortization_zero_rate_edge():
    out = loan_amortization_int(1003, i_ppm=0)
    assert int(out["interest_cents"].sum()) == 0
    assert int(out["principal_cents"].sum()) == 1003
    assert list(out["principal_cents"])[:-1] == [83] * 11
    assert int(out["principal_cents"].iloc[-1]) == 1003 - 11 * 83


def _overlap(supplies, demands):
    """Interval-overlap closed form — the SQL oracle's algorithm."""
    cells = []
    cs = 0
    for i, (sn, sq) in enumerate(supplies):
        cs += sq
        cd = 0
        for j, (dn, dq) in enumerate(demands):
            cd += dq
            a = min(cs, cd) - max(cs - sq, cd - dq)
            if a > 0:
                cells.append((i, j, a))
    return cells


def test_nw_walk_matches_overlap_closed_form():
    rng = random.Random(13)
    for _ in range(40):
        m, n = rng.randrange(2, 6), rng.randrange(2, 6)
        sup = [(f"s{i}", rng.randrange(0, 50)) for i in range(m)]
        tot = sum(q for _, q in sup)
        cuts = sorted(rng.randrange(0, tot + 1) for _ in range(n - 1))
        dem = [(f"d{j}", b - a) for j, (a, b) in enumerate(
            zip([0] + cuts, cuts + [tot]))]
        if tot == 0:
            continue
        out = nw_transport_int(sup, dem)
        walk = [(r.src_pos - 1, r.dst_pos - 1, r.alloc)
                for r in out.itertuples(index=False)]
        assert walk == _overlap(sup, dem)
        assert int(out["alloc"].sum()) == tot
        assert len(out) <= m + n - 1      # basic-solution theorem
        # marginals reproduced
        rows = out.groupby("src")["alloc"].sum().to_dict()
        for sn, sq in sup:
            if sq:
                assert rows[sn] == sq


def test_nw_degenerate_tie():
    # supply exactly equals demand at a corner: no zero cells leak
    out = nw_transport_int([("a", 5), ("b", 5)],
                           [("x", 5), ("y", 5)])
    assert [(r.src, r.dst, r.alloc)
            for r in out.itertuples(index=False)] == \
        [("a", "x", 5), ("b", "y", 5)]
    assert int(out["total_cost"].iloc[0]) == 5 * 1 + 5 * 1
