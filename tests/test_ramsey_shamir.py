"""Ramsey R(3,3)/Goodman (aggregates.ramsey_k6_int) and Shamir
(3,6) secret-sharing (aggregates.shamir_shares_int) kernel pins."""

import random

from documentai_ray.extras import (RAMSEY_EDGES, RAMSEY_EIDX, RAMSEY_TRIS,
                                   SHAMIR_P, ramsey_k6_int, shamir_shares_int)


class TestRamseyK6:
    def test_edge_index_constants(self):
        assert len(RAMSEY_EDGES) == 15
        assert len(RAMSEY_TRIS) == 20
        assert RAMSEY_EIDX[(0, 1)] == 0
        assert RAMSEY_EIDX[(4, 5)] == 14

    def test_monochromatic_coloring_all_20(self):
        # all edges one color: every triangle is mono
        out = ramsey_k6_int([1] * 15)
        assert len(out) == 20
        assert (out["mono"] == 1).all()
        assert out["mono_total"].iloc[0] == 20
        assert out["mono_formula"].iloc[0] == 20
        assert out["min_all_colorings"].iloc[0] == 2

    def test_two_triangle_extremal_coloring(self):
        # intra-{0,1,2} and intra-{3,4,5} edges red, cross edges
        # blue: EXACTLY the two partition triangles are mono — the
        # Goodman bound of 2 is attained by this classic coloring
        bits = [0] * 15
        for tri in [(0, 1, 2), (3, 4, 5)]:
            i, j, k = tri
            for e in [(i, j), (i, k), (j, k)]:
                bits[RAMSEY_EIDX[e]] = 1
        out = ramsey_k6_int(bits)
        assert out["mono_total"].iloc[0] == 2
        mono = {(r.i, r.j, r.k) for r in out.itertuples()
                if r.mono == 1}
        assert mono == {(0, 1, 2), (3, 4, 5)}

    def test_goodman_identity_random(self):
        # the kernel asserts #mono == 20 - ang/2 per call; a sweep
        # of random colorings exercises it (and the >= 2 floor)
        rng = random.Random(41)
        for _ in range(6):
            bits = [rng.randrange(2) for _ in range(15)]
            out = ramsey_k6_int(bits)
            assert out["mono_total"].iloc[0] >= 2
            assert (out["mono_total"] == out["mono_formula"]).all()

    def test_mono_total_equals_row_sum(self):
        rng = random.Random(43)
        bits = [rng.randrange(2) for _ in range(15)]
        out = ramsey_k6_int(bits)
        assert out["mono"].sum() == out["mono_total"].iloc[0]


class TestShamir:
    def test_constant_polynomial(self):
        out = shamir_shares_int(42, 0, 0)
        assert len(out) == 20  # C(6,3) subsets
        assert (out["y1"] == 42).all()
        assert (out["recovered"] == 42).all()
        assert (out["ok"] == 1).all()

    def test_shares_are_polynomial_evaluations(self):
        s, a1, a2 = 17, 5, 9
        out = shamir_shares_int(s, a1, a2)
        row = out[(out["x1"] == 1) & (out["x2"] == 2)
                  & (out["x3"] == 3)].iloc[0]
        for x, y in [(1, row["y1"]), (2, row["y2"]),
                     (3, row["y3"])]:
            assert y == (s + a1 * x + a2 * x * x) % SHAMIR_P

    def test_secret_reduced_mod_p(self):
        out = shamir_shares_int(SHAMIR_P + 7, 1, 1)
        assert out["secret"].iloc[0] == 7
        assert (out["recovered"] == 7).all()

    def test_all_subsets_reconstruct_random(self):
        # threshold property + the in-kernel perfect-secrecy sweep
        rng = random.Random(47)
        for _ in range(8):
            out = shamir_shares_int(rng.randrange(10 ** 6),
                                    rng.randrange(10 ** 6),
                                    rng.randrange(10 ** 6))
            assert (out["ok"] == 1).all()
            assert out["recovered"].nunique() == 1

    def test_subset_count_and_columns(self):
        out = shamir_shares_int(1, 2, 3)
        assert list(out.columns) == ["x1", "x2", "x3", "y1", "y2",
                                     "y3", "recovered", "secret",
                                     "ok"]
        assert len(out.drop_duplicates(["x1", "x2", "x3"])) == 20
