"""Copeland pairwise-majority ranking and the Diebold-Mariano fold."""

from __future__ import annotations

import pandas as pd

from documentai_ray.extras import copeland_int, dm_test_int


def _ballots(profiles):
    """profiles: list of {candidate: count} per voter."""
    rows = []
    for v, prof in enumerate(profiles):
        for c, n in prof.items():
            rows.append((v, c, n))
    return pd.DataFrame(rows, columns=["voter", "cand", "n"])


class TestCopeland:
    def test_condorcet_winner(self):
        """A beats B and C on 2 of 3 days each → copeland 2 = k−1,
        the Condorcet flag; C never wins a pairwise duel."""
        df = _ballots([
            {"A": 5, "B": 3, "C": 1},
            {"A": 4, "B": 1, "C": 2},
            {"A": 1, "B": 3, "C": 2},
        ])
        out = copeland_int(df, voter_col="voter", cand_col="cand")
        a = out.set_index("cand")
        assert a.loc["A", "copeland"] == 2
        assert bool(a.loc["A", "is_condorcet"])
        assert a.loc["A", "rank"] == 1
        # beats(A,B)=2, beats(A,C)=2 → support 4
        assert a.loc["A", "support"] == 4
        assert not bool(a.loc["B", "is_condorcet"])
        assert not bool(a.loc["C", "is_condorcet"])

    def test_majority_cycle_flattens_copeland(self):
        """Rock-paper-scissors: A>B>C / B>C>A / C>A>B — every
        candidate wins one duel 2-1 and loses one 1-2, so copeland
        is 0 across the board and support ties at 3: the cycle a
        single global count can never represent."""
        df = _ballots([
            {"A": 3, "B": 2, "C": 1},
            {"A": 1, "B": 3, "C": 2},
            {"A": 2, "B": 1, "C": 3},
        ])
        out = copeland_int(df, voter_col="voter", cand_col="cand")
        assert list(out["copeland"]) == [0, 0, 0]
        assert list(out["support"]) == [3, 3, 3]
        assert not out["is_condorcet"].any()
        # deterministic tie-break by name
        assert list(out["cand"]) == ["A", "B", "C"]
        assert list(out["rank"]) == [1, 2, 3]

    def test_equal_counts_abstain(self):
        """A voter with equal counts expresses NO preference — the
        duel is decided by the remaining voters alone."""
        df = _ballots([
            {"A": 2, "B": 2},   # abstains
            {"A": 3, "B": 1},
        ])
        out = copeland_int(df, voter_col="voter", cand_col="cand")
        a = out.set_index("cand")
        assert a.loc["A", "support"] == 1
        assert a.loc["B", "support"] == 0
        assert a.loc["A", "copeland"] == 1
        assert bool(a.loc["A", "is_condorcet"])

    def test_missing_cell_counts_zero(self):
        """A candidate absent from a voter's ballot counts 0 there —
        present-with-1 beats absent."""
        df = _ballots([{"A": 1}, {"A": 1, "B": 2}])
        out = copeland_int(df, voter_col="voter", cand_col="cand")
        a = out.set_index("cand")
        # voter 0: A=1 > B=0; voter 1: B=2 > A=1
        assert a.loc["A", "support"] == 1
        assert a.loc["B", "support"] == 1
        assert list(out["copeland"]) == [0, 0]


class TestDieboldMariano:
    def test_weekly_pattern_seasonal_wins(self):
        """Three exact weekly cycles: the seasonal forecaster is
        perfect (loss 0), the naive pays 9 at each spike edge.
        d = (9,9,0,0,0,0,0)×2, S = 36, Q = 324, n = 14 →
        z² = 14·36²/(14·324 − 36²) = 18144/3240 = 5.6 exactly,
        clearing χ²₁ = 3.841."""
        y = [10, 1, 1, 1, 1, 1, 1] * 3
        r = dm_test_int(y, season=7)
        assert r["n_days"] == 21
        assert r["n_eval"] == 14
        assert r["loss_naive"] == 36
        assert r["loss_seasonal"] == 0
        assert r["s_d"] == 36
        assert r["q_d"] == 324
        assert r["z2_milli"] == 5600
        assert r["better_sign"] == 1
        assert r["significant"]

    def test_constant_series_dead_heat(self):
        """A flat series: both forecasters are perfect, the variance
        of d is 0 — z² clamps to 0, nothing is significant."""
        r = dm_test_int([5] * 20, season=7)
        assert r["s_d"] == 0 and r["q_d"] == 0
        assert r["z2_milli"] == 0
        assert r["better_sign"] == 0
        assert not r["significant"]

    def test_naive_wins_sign_zero_variance_clamp(self):
        """A monotone ramp: lag-1 error is 1 per day, lag-7 error is
        7 — the naive wins (sign −1) but d is CONSTANT, so the
        variance of d is exactly 0 and the statistic clamps to 0 /
        not-significant (the conservative den≤0 convention: a
        degenerate loss differential can't testify about sampling
        noise it doesn't exhibit)."""
        y = list(range(30))
        r = dm_test_int(y, season=7)
        assert r["loss_naive"] == 23
        assert r["loss_seasonal"] == 7 * 23
        assert r["better_sign"] == -1
        assert r["n_eval"] * r["q_d"] - r["s_d"] ** 2 == 0
        assert r["z2_milli"] == 0 and not r["significant"]
