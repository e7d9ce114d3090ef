"""Paley graph srg (aggregates.paley_graph_int) and tournament
kings (aggregates.tournament_king_int) kernel pins."""

import random

from documentai_ray.extras import (PALEY_QR, paley_graph_int,
                                   tournament_king_int)


class TestPaley:
    def test_qr_set(self):
        assert PALEY_QR == [1, 3, 4, 9, 10, 12]

    def test_srg_parameters(self):
        out = paley_graph_int(0)
        assert (out["degree"] == 6).all()
        assert (out["lam"] == 2).all()
        assert (out["mu"] == 3).all()
        assert (out["self_complementary"] == 1).all()

    def test_translation_for_every_t(self):
        for t in range(13):
            out = paley_graph_int(t)
            assert out["t"].iloc[0] == t
            assert (out["translation_aut"] == 1).all()


class TestTournamentKing:
    def test_transitive_unique_king(self):
        # all bits 1: i beats j for every i < j -> vertex 0 is
        # the unique king
        out = tournament_king_int([1] * 21)
        assert out["n_kings"].iloc[0] == 1
        assert out[out["v"] == 0]["is_king"].iloc[0] == 1
        assert list(out["outdeg"]) == [6, 5, 4, 3, 2, 1, 0]

    def test_rotational_all_kings(self):
        # the rotational tournament (i beats i+1, i+2, i+3 mod 7)
        # is vertex-transitive: every vertex is a king
        bits = []
        for i in range(7):
            for j in range(i + 1, 7):
                d = (j - i) % 7
                bits.append(1 if d in (1, 2, 3) else 0)
        out = tournament_king_int(bits)
        assert out["n_kings"].iloc[0] == 7
        assert (out["outdeg"] == 3).all()

    def test_max_outdegree_is_king_random(self):
        rng = random.Random(197)
        for _ in range(10):
            bits = [rng.randrange(2) for _ in range(21)]
            out = tournament_king_int(bits)
            mx = out["max_outdeg"].iloc[0]
            for r in out.itertuples():
                if r.outdeg == mx:
                    assert r.is_king == 1
            assert out["n_kings"].iloc[0] >= 1
            assert out["outdeg"].sum() == 21
