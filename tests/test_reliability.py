"""Reliability-engineering kernels: series/parallel composition and
the k-of-n ladder — weakest-link law, the exact bridge identities
(1-of-n == parallel, n-of-n == series), majority-of-three and the
canonical TMR number all pinned."""

from __future__ import annotations

from documentai_ray.extras import koon_reliability_int, system_reliability_int


class TestSeriesParallel:
    def test_two_fair_coins(self):
        """r = 1/2 twice: series 1/4, parallel 3/4 — 250000 /
        750000 ppm EXACTLY, zero flooring residue."""
        out = system_reliability_int([("a", 500000), ("b", 500000)])
        assert int(out["series_ppm"].iloc[0]) == 250000
        assert int(out["parallel_ppm"].iloc[0]) == 750000

    def test_weakest_link_and_dual(self):
        """A chain is its weakest link: series ≤ min r; dually a
        parallel bank is at least its BEST component: parallel ≥
        max r.  is_weakest flags exactly the min-r component."""
        rel = [("a", 912345), ("b", 777777), ("c", 654321)]
        out = system_reliability_int(rel)
        assert int(out["series_ppm"].iloc[0]) <= 654321
        assert int(out["parallel_ppm"].iloc[0]) >= 912345
        weak = out[out["is_weakest"]]
        assert list(weak["component"]) == ["c"]

    def test_dead_component_kills_series_saturates_nothing(self):
        """r = 0 anywhere zeroes the series system; a PERFECT
        component (r = 10⁶) saturates the parallel bank at 10⁶."""
        out = system_reliability_int([("dead", 0), ("ok", 800000)])
        assert int(out["series_ppm"].iloc[0]) == 0
        out2 = system_reliability_int([("perfect", 1_000_000),
                                       ("meh", 300000)])
        assert int(out2["parallel_ppm"].iloc[0]) == 1_000_000


class TestKoonLadder:
    def test_majority_of_three_fair_coins(self):
        """2-of-3 at r = 1/2: 3 double-heads masks + 1 triple =
        4/8 — majority of three fair coins is EXACTLY a fair coin
        (500000), flanked by 1-of-3 = 7/8 and 3-of-3 = 1/8."""
        out = koon_reliability_int(
            [("a", 500000), ("b", 500000), ("c", 500000)])
        assert list(out["r_koon_ppm"]) == [875000, 500000, 125000]

    def test_tmr_textbook_number(self):
        """Triple modular redundancy at r = 0.9: R = 3·0.81·0.1 +
        0.729 = 0.972 EXACTLY — the canonical TMR improvement."""
        out = koon_reliability_int(
            [("a", 900000), ("b", 900000), ("c", 900000)])
        assert int(out[out["k"] == 2]["r_koon_ppm"].iloc[0]) \
            == 972000

    def test_bridge_identities_exact(self):
        """R(1) == parallel and R(n) == series BIT FOR BIT on an
        uneven field — the reason system_reliability_int's parallel
        uses the complement-numerator form (the naive 10⁶ − Πf//sc
        form differs by 1 ppm whenever the product has residue)."""
        rel = [("a", 912345), ("b", 777777), ("c", 654321),
               ("d", 500001)]
        sp = system_reliability_int(rel)
        ld = koon_reliability_int(rel)
        assert int(ld[ld["k"] == 1]["r_koon_ppm"].iloc[0]) \
            == int(sp["parallel_ppm"].iloc[0])
        assert int(ld[ld["k"] == 4]["r_koon_ppm"].iloc[0]) \
            == int(sp["series_ppm"].iloc[0])

    def test_monotone_nonincreasing_in_k(self):
        """Demanding more working components never helps: the
        ladder is monotone non-increasing in k."""
        out = koon_reliability_int(
            [("a", 999999), ("b", 123456), ("c", 700000),
             ("d", 1), ("e", 500000)])
        r = list(out["r_koon_ppm"])
        assert all(x >= y for x, y in zip(r, r[1:]))
