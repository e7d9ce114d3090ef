"""Gaussian binomials (aggregates.gaussian_binomial_int) and domino
tilings (aggregates.domino_tilings_int) kernel pins."""

from documentai_ray.extras import (_gauss_binom, domino_tilings_int,
                                   gaussian_binomial_int)


class TestGaussianBinomial:
    def test_subspace_counts(self):
        out = gaussian_binomial_int(0)
        assert list(out["gauss_q2"]) == [1, 15, 35, 15, 1]
        assert list(out["subspace_count"]) == [1, 15, 35, 15, 1]
        assert list(out["binom"]) == [1, 4, 6, 4, 1]

    def test_q3_column(self):
        out = gaussian_binomial_int(1)
        assert out["q_c"].iloc[0] == 3
        assert list(out["gauss_qc"]) == [1, 40, 130, 40, 1]

    def test_q5_column(self):
        out = gaussian_binomial_int(2)
        assert list(out["gauss_qc"]) == [1, 156, 806, 156, 1]

    def test_product_formula_symmetry(self):
        for q in (2, 3, 5, 7):
            for n in range(7):
                for k in range(n + 1):
                    assert _gauss_binom(n, k, q) == \
                        _gauss_binom(n, n - k, q)

    def test_q_to_one_limit_via_recurrence(self):
        # the PRODUCT formula degenerates at q = 1 (0/0); the
        # limit lives in the recurrence, which collapses to
        # Pascal — replay it externally
        import math
        G = {(0, 0): 1}
        for n in range(1, 6):
            for k in range(n + 1):
                G[(n, k)] = (G.get((n - 1, k - 1), 0)
                             + 1 ** k * G.get((n - 1, k), 0))
        for n in range(6):
            for k in range(n + 1):
                assert G[(n, k)] == math.comb(n, k)


class TestDominoTilings:
    def test_known_table(self):
        out = domino_tilings_int(0)
        t = {(int(r.m), int(r.n)): int(r.tilings)
             for r in out.itertuples()}
        assert t[(1, 2)] == 1 and t[(1, 3)] == 0
        assert t[(2, 2)] == 2 and t[(2, 8)] == 34
        assert t[(3, 2)] == 3 and t[(3, 4)] == 11 \
            and t[(3, 6)] == 41 and t[(3, 8)] == 153
        assert t[(4, 4)] == 36 and t[(4, 8)] == 2245

    def test_odd_area_zero(self):
        out = domino_tilings_int(0)
        for r in out.itertuples():
            if (r.m * r.n) % 2 == 1:
                assert r.tilings == 0

    def test_selected_flag(self):
        out = domino_tilings_int(35)     # 35 % 32 = 3 -> (1, 4)
        sel = out[out["selected"] == 1]
        assert len(sel) == 1
        assert (sel["m"].iloc[0], sel["n"].iloc[0]) == (1, 4)

    def test_transpose_symmetry_small(self):
        # T(m, n) == T(n, m) where both fit the table
        out = domino_tilings_int(0)
        t = {(int(r.m), int(r.n)): int(r.tilings)
             for r in out.itertuples()}
        for m in range(1, 5):
            for n in range(1, 5):
                assert t[(m, n)] == t[(n, m)]
