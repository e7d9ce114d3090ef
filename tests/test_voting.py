"""Voting-rule kernels: Borda and IRV over strict day-voter ballots
— the canonical social-choice exhibits pinned verbatim: a plurality
winner who is Borda-LAST, the Condorcet-winner-never-Borda-last
guarantee, IRV's centrist squeeze (eliminating the Condorcet winner
first), and the textbook monotonicity violation where extra support
makes the winner lose."""

from __future__ import annotations

import itertools
import random

import pandas as pd

from documentai_ray.extras import borda_int, irv_int


def _cell(ballots):
    """ballots = list of (ranking tuple, n_voters) -> (voter, cand,
    n) census rows; a voter ranking (x, y, z) gets counts 3, 2, 1."""
    rows = []
    vid = 0
    for ranking, nv in ballots:
        k = len(ranking)
        for _ in range(nv):
            for pos, c in enumerate(ranking):
                rows.append((vid, c, k - pos))
            vid += 1
    return pd.DataFrame(rows, columns=["v", "c", "n"])


def _borda(ballots):
    return borda_int(_cell(ballots), voter_col="v", cand_col="c",
                     n_col="n")


def _irv(ballots):
    return irv_int(_cell(ballots), voter_col="v", cand_col="c",
                   n_col="n")


def _condorcet_winner(ballots):
    cands = sorted({c for r, _ in ballots for c in r})
    for x in cands:
        if all(sum(nv for r, nv in ballots
                   if r.index(x) < r.index(y))
               > sum(nv for r, nv in ballots
                     if r.index(y) < r.index(x))
               for y in cands if y != x):
            return x
    return None


class TestBorda:
    def test_plurality_winner_can_be_borda_last(self):
        """4x A>B>C, 3x B>C>A, 3x C>B>A: A wins plurality (4) but
        is Borda-LAST (8 < 9 < 13) — the divergence the positional
        rule exists to expose."""
        ballots = [(("a", "b", "c"), 4), (("b", "c", "a"), 3),
                   (("c", "b", "a"), 3)]
        out = _borda(ballots).set_index("candidate")
        assert out.loc["a", "plurality_votes"] == 4
        assert out["plurality_votes"].idxmax() == "a"
        assert out.loc["a", "borda_rank"] == 3
        assert out.loc["b", "borda_points"] == 13
        assert out.loc["a", "borda_points"] == 8

    def test_condorcet_winner_never_borda_last(self):
        """Classical guarantee, on a seeded sweep of random strict
        3-candidate profiles that HAVE a Condorcet winner."""
        rng = random.Random(5)
        perms = list(itertools.permutations(("a", "b", "c")))
        checked = 0
        while checked < 25:
            ballots = [(p, rng.randint(0, 5)) for p in perms]
            cw = _condorcet_winner(
                [(r, n) for r, n in ballots if n > 0])
            if cw is None or sum(n for _, n in ballots) == 0:
                continue
            out = _borda(ballots).set_index("candidate")
            assert out.loc[cw, "borda_rank"] < 3
            checked += 1

    def test_unanimous_profile(self):
        out = _borda([(("x", "y", "z"), 5)])
        assert out["candidate"].tolist() == ["x", "y", "z"]
        assert out["borda_points"].tolist() == [10, 5, 0]


class TestIRV:
    def test_centrist_squeeze_eliminates_condorcet_winner(self):
        """7x l>c>r, 8x r>c>l, 5x c>l>r: c beats BOTH l (13-7) and
        r (12-8) pairwise — the Condorcet winner — yet IRV
        eliminates c FIRST (5 first-place votes) and l then beats
        r 12-8."""
        ballots = [(("l", "c", "r"), 7), (("r", "c", "l"), 8),
                   (("c", "l", "r"), 5)]
        assert _condorcet_winner(ballots) == "c"
        out = _irv(ballots)
        assert out.loc[0, "candidate"] == "c"       # first out
        assert out[out["is_winner"]]["candidate"].iloc[0] == "l"

    def test_monotonicity_violation_textbook(self):
        """39 a>b>c, 35 c>b>a, 26 b>a>c: a wins.  Move 10 of c's
        voters UP to a (49 a>b>c, 25 c>b>a, 26 b>a>c): now b wins —
        extra support for a made a LOSE, the violation IRV is
        famous for."""
        before = [(("a", "b", "c"), 39), (("c", "b", "a"), 35),
                  (("b", "a", "c"), 26)]
        after = [(("a", "b", "c"), 49), (("c", "b", "a"), 25),
                 (("b", "a", "c"), 26)]
        w1 = _irv(before)
        w2 = _irv(after)
        assert w1[w1["is_winner"]]["candidate"].iloc[0] == "a"
        assert w2[w2["is_winner"]]["candidate"].iloc[0] == "b"

    def test_majority_first_round_still_runs_all_rounds(self):
        """A 60% majority candidate survives every round and wins;
        rounds = k - 1 regardless (the fixed-length contract the
        SQL mirror relies on)."""
        ballots = [(("a", "b", "c"), 6), (("b", "c", "a"), 2),
                   (("c", "b", "a"), 2)]
        out = _irv(ballots)
        assert len(out) == 3
        assert out["round"].tolist() == [1, 2, 3]
        assert out[out["is_winner"]]["candidate"].iloc[0] == "a"
        assert int(out[out["is_winner"]]["votes"].iloc[0]) == 10

    def test_elimination_tie_breaks_by_name(self):
        """Perfect cycle: all first-round tallies tie at 1 — the
        alphabetically first candidate goes out."""
        ballots = [(("a", "b", "c"), 1), (("b", "c", "a"), 1),
                   (("c", "a", "b"), 1)]
        out = _irv(ballots)
        assert out.loc[0, "candidate"] == "a"
