"""Apportionment kernels: D'Hondt highest averages and Hamilton
largest remainder — the two classical method families, with their
defining divergences pinned (large-party bias; Alabama paradox)."""

from __future__ import annotations

from documentai_ray.extras import dhondt_int, hamilton_int


def _seats(df):
    return dict(zip(df["party"], df["seats"]))


class TestDhondt:
    def test_exact_quotient_tie_breaks_by_votes(self):
        """4/2 at S=3: A's second quotient 4/2 EQUALS B's first 2/1;
        the tie breaks by raw votes desc, so A seats 2, B 1 — the
        exactness pin (a float ordering could go either way)."""
        out = dhondt_int([("A", 4), ("B", 2)], 3)
        assert _seats(out) == {"A": 2, "B": 1}

    def test_large_party_bias_vs_exact_quota(self):
        """100/80/30 at S=8: exact quotas 3.81/3.05/1.14 — D'Hondt
        gives A FOUR seats (quotient 100/4 = 25 beats 30/1's... no:
        beats 80/4 = 20 and 30/2 = 15), the documented large-party
        lean of the divisor-1,2,3,... family."""
        out = dhondt_int([("A", 100), ("B", 80), ("C", 30)], 8)
        assert _seats(out) == {"A": 4, "B": 3, "C": 1}

    def test_house_monotone(self):
        """Divisor methods are immune to the Alabama paradox BY
        CONSTRUCTION: growing the house never costs any party a
        seat (the top-S quotient set is nested in the top-(S+1))."""
        votes = [("A", 5), ("B", 3), ("C", 1)]
        prev = {p: 0 for p, _ in votes}
        for s in range(1, 10):
            cur = _seats(dhondt_int(votes, s))
            assert all(cur[p] >= prev[p] for p in cur)
            assert sum(cur.values()) == s
            prev = cur

    def test_output_sorted_and_int64(self):
        out = dhondt_int([("b", 7), ("a", 7), ("c", 1)], 5)
        assert list(out["party"]) == ["a", "b", "c"]  # tie → name asc
        assert str(out["seats"].dtype) == "int64"
        assert int(out["seats"].sum()) == 5


class TestHamilton:
    def test_quota_arithmetic(self):
        """100/80/30 at S=8, T=210: bases 800//210=3, 640//210=3,
        240//210=1 (7 seats), remainders 170/10/30 → the one bonus
        seat goes to A's 170 — agrees with D'Hondt on this profile."""
        out = hamilton_int([("A", 100), ("B", 80), ("C", 30)], 8)
        r = out.set_index("party")
        assert r.loc["A", "base_seats"] == 3
        assert r.loc["A", "remainder"] == 170
        assert _seats(out) == {"A": 4, "B": 3, "C": 1}

    def test_alabama_paradox(self):
        """THE family pathology: 5/3/1 gives C a seat in a 4-seat
        house (remainder 4/9 is the largest) but ZERO in a 5-seat
        house (C's remainder rank slips behind both A and B) — a
        party losing a seat because the house GREW."""
        votes = [("A", 5), ("B", 3), ("C", 1)]
        assert _seats(hamilton_int(votes, 4)) == {"A": 2, "B": 1,
                                                  "C": 1}
        assert _seats(hamilton_int(votes, 5)) == {"A": 3, "B": 2,
                                                  "C": 0}

    def test_remainder_tie_breaks_by_votes_then_name(self):
        """Equal remainders: 3/3/2 at S=4, T=8 → quotas 1.5/1.5/1.0,
        bases 1/1/1, remainders 4/4/0; one leftover seat → tie at
        remainder 4 breaks by name asc (equal votes)."""
        out = hamilton_int([("B", 3), ("A", 3), ("C", 2)], 4)
        assert _seats(out) == {"A": 2, "B": 1, "C": 1}

    def test_all_seats_assigned_and_empty_total(self):
        out = hamilton_int([("A", 0), ("B", 0)], 5)
        assert len(out) == 0
        out = hamilton_int([("A", 1)], 7)
        assert _seats(out) == {"A": 7}
