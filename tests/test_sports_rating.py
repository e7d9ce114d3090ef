"""Sports-rating kernels: Pythagorean expectation and log5 /
Bradley-Terry — the exact identities (equal-strength 500000, shutout
1e6, scale invariance down to the floor residue, league-average
opponent returning p_a exactly, the <=1ppm complement bound) all
pinned."""

from __future__ import annotations

import random

from documentai_ray.extras import log5_matchup_int, pythagorean_wins_int

PPM = 1_000_000


class TestPythagorean:
    def test_equal_strength_and_shutout(self):
        out = pythagorean_wins_int([("e", 70, 70), ("s", 50, 0)])
        t = out.set_index("team")
        assert t.loc["e", "pyth_ppm"] == 500_000
        assert t.loc["e", "luck_ppm"] == 0
        assert t.loc["s", "pyth_ppm"] == PPM

    def test_canonical_100_vs_50(self):
        out = pythagorean_wins_int([("x", 100, 50)])
        assert out.loc[0, "pyth_ppm"] == 800_000
        assert out.loc[0, "actual_ppm"] == 666_666

    def test_scale_invariance_exact(self):
        """Doubling S and A scales numerator and denominator by
        exactly 4 — pyth_ppm is unchanged INCLUDING floor residue,
        on a seeded sweep."""
        rng = random.Random(3)
        for _ in range(50):
            s, a = rng.randint(1, 10**6), rng.randint(1, 10**6)
            one = pythagorean_wins_int([("t", s, a)])
            two = pythagorean_wins_int([("t", 2 * s, 2 * a)])
            assert (one.loc[0, "pyth_ppm"]
                    == two.loc[0, "pyth_ppm"])

    def test_pyth_compresses_toward_half(self):
        """The squared form sits closer to 500000 than the raw
        share when S > A... no — it AMPLIFIES: for S > A,
        S²/(S²+A²) > S/(S+A) (squaring spreads).  Pin the correct
        direction."""
        out = pythagorean_wins_int([("t", 300, 100)])
        assert out.loc[0, "pyth_ppm"] > out.loc[0, "actual_ppm"]
        out2 = pythagorean_wins_int([("t", 100, 300)])
        assert out2.loc[0, "pyth_ppm"] < out2.loc[0, "actual_ppm"]

    def test_degenerate_zero_zero(self):
        out = pythagorean_wins_int([("z", 0, 0)])
        assert out.loc[0, "pyth_ppm"] == 500_000
        assert out.loc[0, "actual_ppm"] == 500_000


class TestLog5:
    def test_equal_ratings_exactly_half(self):
        out = log5_matchup_int([("a", 437_000), ("b", 437_000)])
        assert out.loc[0, "log5_ppm"] == 500_000

    def test_league_average_opponent_returns_pa_exactly(self):
        """p_b = 1/2: numerator p_a·5e5, denominator 5e5·1e6 — the
        division is exact, log5 == p_a with ZERO floor residue,
        for every p_a in a sweep."""
        for pa in (1, 137, 250_000, 333_333, 717_171, 999_999):
            out = log5_matchup_int([("a", pa), ("m", 500_000)])
            assert out.loc[0, "log5_ppm"] == pa

    def test_complement_within_one_ppm(self):
        """p_ab + p_ba ∈ {1e6 − 1, 1e6}: the two floor remainders
        sum to 0 or the denominator, never anything between."""
        rng = random.Random(11)
        for _ in range(60):
            pa, pb = rng.randint(1, PPM - 1), rng.randint(1, PPM - 1)
            ab = log5_matchup_int([("a", pa), ("b", pb)])
            ba = log5_matchup_int([("a", pb), ("b", pa)])
            tot = int(ab.loc[0, "log5_ppm"]) \
                + int(ba.loc[0, "log5_ppm"])
            assert tot in (PPM - 1, PPM)

    def test_monotone_better_rating_wins(self):
        out = log5_matchup_int([("a", 700_000), ("b", 400_000)])
        assert out.loc[0, "log5_ppm"] > 500_000

    def test_double_degenerate_convention(self):
        """Both ratings 0 (or both 1e6): denominator 0 — the shared
        500000 convention."""
        out = log5_matchup_int([("a", 0), ("b", 0)])
        assert out.loc[0, "log5_ppm"] == 500_000
        out = log5_matchup_int([("a", PPM), ("b", PPM)])
        assert out.loc[0, "log5_ppm"] == 500_000

    def test_pairs_ordered_and_complete(self):
        out = log5_matchup_int([("c", 1), ("a", 2), ("b", 3)])
        assert list(zip(out["team_a"], out["team_b"])) == [
            ("a", "b"), ("a", "c"), ("b", "c")]
