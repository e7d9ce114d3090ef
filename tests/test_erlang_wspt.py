"""Teletraffic / scheduling kernels: Erlang-B blocking chain and
Smith's-rule (WSPT) weighted-completion objective — each family's
defining phenomenon pinned by hand (the exact 1-erlang chain and
its first flooring step; Smith-rule optimality by brute force over
all orders; equal-ratio exchange invariance)."""

from __future__ import annotations

import itertools

from documentai_ray.extras import (WSPT_WEIGHTS, erlang_b_int,
                                   wspt_objective_int)


class TestErlangB:
    def test_one_erlang_exact_prefix_then_first_floor(self):
        """a = 1 erlang: the inverse-blocking sequence is 1, 2, 5,
        16, 65, ... so B1 = 1/2, B2 = 1/5, B3 = 1/16 are EXACT ppm
        integers (numerator divides denominator — zero residue) and
        B4 = 1/65 is the first step that floors: 15384 ppm against
        the exact 15384.615..."""
        out = erlang_b_int(1_000_000, servers=4)
        assert list(out["blocking_ppm"]) == [500000, 200000, 62500,
                                             15384]

    def test_monotone_nonincreasing_in_servers(self):
        """More servers never block more — the chain b_c =
        a·b/(c + a·b) divides by a growing c, so blocking is
        monotone non-increasing (pinned across a heavy load)."""
        out = erlang_b_int(25_000_000, servers=10)
        b = list(out["blocking_ppm"])
        assert all(x >= y for x, y in zip(b, b[1:]))
        assert b[0] > 900_000  # 25 erlangs on 1 server: ~96% loss

    def test_zero_load_kills_the_chain(self):
        """a = 0: the very first numerator is 0, so every step
        reads 0 blocking, 0 carried, and trivially meets the SLA."""
        out = erlang_b_int(0, servers=5)
        assert (out["blocking_ppm"] == 0).all()
        assert (out["carried_micro"] == 0).all()
        assert out["meets_sla"].all()

    def test_carried_and_sla_at_one_erlang(self):
        """carried = a·(1 − B) floored once: at a = 1, c = 3 the
        exact 15/16 erlang reads 937500 micro; the 1% GoS bar is
        strict (B3 = 6.25% fails, and blocking first dips under
        10000 ppm at c = 5 where B5 = 1/326 ≈ 3067 ppm)."""
        out = erlang_b_int(1_000_000, servers=5)
        assert int(out.loc[2, "carried_micro"]) == 937_500
        assert list(out["meets_sla"]) == [False, False, False,
                                          False, True]


def _objective(order):
    run = tot = 0
    for p, w, _ in order:
        run += p
        tot += w * run
    return tot


class TestWspt:
    def test_wspt_beats_fifo_hand_case(self):
        """(p=2,w=1) then (p=1,w=5) in FIFO order: FIFO pays
        1·2 + 5·3 = 17; WSPT runs the heavy-weight short job first
        and pays 5·1 + 1·3 = 8 — improvement 9/17 = 529411 ppm."""
        out = wspt_objective_int([(2, 1, 1), (1, 5, 2)])
        assert int(out["total_wspt"].iloc[0]) == 8
        assert int(out["total_fifo"].iloc[0]) == 17
        assert int(out["improvement_ppm"].iloc[0]) == 529411

    def test_optimal_over_all_orders_brute_force(self):
        """Smith 1956: WSPT order minimizes Σw·C over ALL n!
        orders — asserted exhaustively on 5 jobs with distinct
        Smith ratios (the adjacent-exchange argument made literal)."""
        jobs = [(3, 2, 0), (1, 5, 1), (4, 1, 2), (2, 4, 3),
                (5, 3, 4)]
        out = wspt_objective_int(jobs)
        best = min(_objective(perm)
                   for perm in itertools.permutations(jobs))
        assert int(out["total_wspt"].iloc[0]) == best

    def test_equal_ratios_exchange_invariant(self):
        """Jobs with equal p/w contribute the same objective in
        either order (the exchange argument's equality case), so
        the tiebreak cannot change total_wspt — only its row
        attribution."""
        a = wspt_objective_int([(1, 1, 1), (5, 5, 2)])
        b = wspt_objective_int([(1, 1, 2), (5, 5, 1)])
        assert int(a["total_wspt"].iloc[0]) \
            == int(b["total_wspt"].iloc[0]) == 31

    def test_improvement_never_negative(self):
        """WSPT is provably minimal, so improvement_ppm ≥ 0 even
        when FIFO accidentally IS the WSPT order (then exactly 0)."""
        jobs = [(1, 5, 0), (2, 4, 1), (3, 3, 2)]  # FIFO == WSPT
        out = wspt_objective_int(jobs)
        assert int(out["improvement_ppm"].iloc[0]) == 0
        assert int(out["total_wspt"].iloc[0]) \
            == int(out["total_fifo"].iloc[0])

    def test_weight_vocabulary_is_total(self):
        """The TPC-H priority map covers 1..5 exactly once and
        60 = lcm(1..5) clears every weight, so p·(60//w) is an
        EXACT Smith-ratio key (no floats anywhere)."""
        assert sorted(WSPT_WEIGHTS.values()) == [1, 2, 3, 4, 5]
        assert all(60 % w == 0 for w in WSPT_WEIGHTS.values())
