"""Plane partitions (aggregates.plane_partitions_int) and Delannoy
numbers (aggregates.delannoy_numbers_int) kernel pins."""

import math

from documentai_ray.extras import delannoy_numbers_int, plane_partitions_int


class TestPlanePartitions:
    def test_table(self):
        out = plane_partitions_int(0)
        assert list(out["n_pp"]) == [2, 6, 20, 50, 175, 980]

    def test_selection(self):
        out = plane_partitions_int(5)
        sel = out[out["selected"] == 1].iloc[0]
        assert (sel["r"], sel["s"], sel["t"]) == (3, 3, 3)
        assert sel["n_pp"] == 980

    def test_symmetry_rs(self):
        # PP(r,s,t) symmetric in all three box dimensions:
        # (3,2,2) appears; its transpose (2,3,2) would match
        out = plane_partitions_int(0)
        d = {(int(r.r), int(r.s), int(r.t)): int(r.n_pp)
             for r in out.itertuples()}
        # verify MacMahon symmetry arithmetically for (3,2,2)
        def mac(r, s, t):
            num = den = 1
            for i in range(1, r + 1):
                for j in range(1, s + 1):
                    for k in range(1, t + 1):
                        num *= i + j + k - 1
                        den *= i + j + k - 2
            return num // den
        assert d[(3, 2, 2)] == mac(2, 3, 2) == mac(2, 2, 3)


class TestDelannoy:
    def test_central_row(self):
        out = delannoy_numbers_int(4)
        assert out[out["n"] == 4]["delannoy"].iloc[0] == 321

    def test_edge_rows(self):
        out = delannoy_numbers_int(0)
        assert (out["delannoy"] == 1).all()

    def test_row_three(self):
        out = delannoy_numbers_int(3)
        assert list(out["delannoy"]) == [1, 7, 25, 63, 129, 231,
                                         377, 575, 833]

    def test_sum_formula(self):
        out = delannoy_numbers_int(8)
        for r in out.itertuples():
            sf = sum(math.comb(8, k) * math.comb(int(r.n), k)
                     * 2 ** k
                     for k in range(min(8, int(r.n)) + 1))
            assert r.delannoy == sf
