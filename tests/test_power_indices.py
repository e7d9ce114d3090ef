"""Weighted-voting power indices (Banzhaf, Shapley-Shubik): the
classic power-is-not-weight profiles, dictator/dummy/veto flags, and
the two indices' same-rank-different-weights relationship."""

from __future__ import annotations

from documentai_ray.extras import (banzhaf_int, pivotal_by_size_int,
                                   shapley_shubik_int)


def _col(df, col):
    return dict(zip(df["party"], df[col]))


class TestBanzhaf:
    def test_power_is_not_weight(self):
        """(50,49,1) @ quota 51: 49 votes carry EXACTLY the power of
        1 vote — swings 3/1/1, ppm 600000/200000/200000 — the
        profile the family exists for."""
        out = banzhaf_int([("A", 50), ("B", 49), ("C", 1)])
        assert _col(out, "swings") == {"A": 3, "B": 1, "C": 1}
        assert _col(out, "power_ppm") == {"A": 600000, "B": 200000,
                                          "C": 200000}
        assert _col(out, "is_veto") == {"A": True, "B": False,
                                        "C": False}

    def test_dictator_and_dummies(self):
        """w_A >= quota alone: A swings in all 2^(k-1) = 4 subsets,
        everyone else is a dummy (weight without power)."""
        out = banzhaf_int([("A", 5), ("B", 2), ("C", 1)], quota=5)
        assert _col(out, "swings") == {"A": 4, "B": 0, "C": 0}
        assert _col(out, "power_ppm")["A"] == 1_000_000
        assert _col(out, "is_dummy") == {"A": False, "B": True,
                                         "C": True}

    def test_unanimity_all_veto(self):
        """(3,3,3) @ quota 7 needs all three: each player swings
        only on the full-others coalition, all hold veto, power
        splits exactly 333333 ppm (floor of 10^6/3)."""
        out = banzhaf_int([("A", 3), ("B", 3), ("C", 3)], quota=7)
        assert set(out["swings"]) == {1}
        assert set(out["power_ppm"]) == {333333}
        assert all(out["is_veto"])

    def test_pivotal_table_sizes(self):
        """The shared table resolves by coalition SIZE: (50,49,1)@51
        — A pivots on {}∪... sizes 1,1,1 ({B},{C},{B,C}); B and C
        pivot only on the singleton {A}."""
        t = pivotal_by_size_int([("A", 50), ("B", 49), ("C", 1)], 51)
        assert t["A"] == [0, 2, 1]
        assert t["B"] == [0, 1, 0]
        assert t["C"] == [0, 1, 0]


class TestShapleyShubik:
    def test_orderings_sum_to_k_factorial(self):
        """(50,49,1)@51: A pivots in 4 of the 3! = 6 orderings, B
        and C in 1 each — Σ ss_num = 6, ppm 666666/166666/166666
        (one floor each)."""
        out = shapley_shubik_int([("A", 50), ("B", 49), ("C", 1)])
        assert _col(out, "ss_num") == {"A": 4, "B": 1, "C": 1}
        assert int(out["ss_num"].sum()) == 6
        assert _col(out, "ss_ppm") == {"A": 666666, "B": 166666,
                                       "C": 166666}

    def test_same_rank_different_weights_than_banzhaf(self):
        """The two indices RANK players identically but weigh them
        differently: big player reads 3/5 under Banzhaf, 4/6 here."""
        w = [("A", 50), ("B", 49), ("C", 1)]
        bz = banzhaf_int(w)
        ss = shapley_shubik_int(w)
        assert list(bz["party"]) == list(ss["party"])
        assert _col(bz, "power_ppm")["A"] == 600000
        assert _col(ss, "ss_ppm")["A"] == 666666

    def test_dictator_takes_every_ordering(self):
        out = shapley_shubik_int([("A", 5), ("B", 2), ("C", 1)],
                                 quota=5)
        assert _col(out, "ss_num") == {"A": 6, "B": 0, "C": 0}
        assert _col(out, "ss_ppm")["A"] == 1_000_000

    def test_symmetric_players_split_equally(self):
        out = shapley_shubik_int([("A", 3), ("B", 3), ("C", 3)],
                                 quota=7)
        assert set(out["ss_num"]) == {2}  # 2 of 6 orderings each
        assert set(out["ss_ppm"]) == {333333}
