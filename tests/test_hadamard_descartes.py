"""Sylvester Hadamard (aggregates.hadamard_sylvester_int) and the
Apollonian gasket (aggregates.descartes_circles_int) kernel pins."""

from documentai_ray.extras import descartes_circles_int, hadamard_sylvester_int


class TestHadamard:
    def test_entries_and_orthogonality(self):
        out = hadamard_sylvester_int(0)
        H = [[0] * 8 for _ in range(8)]
        for r in out.itertuples():
            H[int(r.i)][int(r.j)] = int(r.entry)
        assert H[0] == [1] * 8
        for i in range(8):
            for j in range(8):
                dot = sum(H[i][t] * H[j][t] for t in range(8))
                assert dot == (8 if i == j else 0)

    def test_bit_formula(self):
        out = hadamard_sylvester_int(0)
        for r in out.itertuples():
            exp = (-1) ** bin(int(r.i) & int(r.j)).count("1")
            assert r.entry == exp

    def test_det_column(self):
        out = hadamard_sylvester_int(3)
        assert (out["abs_det"] == 4096).all()
        assert out[out["sel_row"] == 1]["i"].nunique() == 1


class TestDescartes:
    def test_root_and_counts(self):
        out = descartes_circles_int(0)
        assert len(out) == 85
        root = out[out["level"] == 0].iloc[0]
        assert (root["k1"], root["k2"], root["k3"],
                root["k4"]) == (-1, 2, 2, 3)
        assert len(out[out["level"] == 3]) == 64

    def test_descartes_identity_every_row(self):
        out = descartes_circles_int(5)
        for r in out.itertuples():
            s = r.k1 + r.k2 + r.k3 + r.k4
            q = (r.k1 ** 2 + r.k2 ** 2 + r.k3 ** 2
                 + r.k4 ** 2)
            assert s * s == 2 * q

    def test_known_children(self):
        out = descartes_circles_int(0)
        lvl1 = {tuple(sorted((int(r.k1), int(r.k2), int(r.k3),
                              int(r.k4))))
                for r in out[out["level"] == 1].itertuples()}
        assert (2, 2, 3, 15) in lvl1
        assert (-1, 2, 3, 6) in lvl1
