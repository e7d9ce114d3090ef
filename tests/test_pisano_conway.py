"""Pisano periods (aggregates.pisano_periods_int) and Conway's
sequence (aggregates.conway_sequence_int) kernel pins."""

from documentai_ray.extras import conway_sequence_int, pisano_periods_int


class TestPisano:
    def test_table(self):
        out = pisano_periods_int(0)
        d = {int(r.m): int(r.pisano) for r in out.itertuples()}
        assert d[2] == 3
        assert d[3] == 8
        assert d[10] == 60
        assert d[11] == 10
        assert d[20] == 60

    def test_crt_example(self):
        out = pisano_periods_int(0)
        d = {int(r.m): int(r.pisano) for r in out.itertuples()}
        import math
        assert d[15] == d[3] * d[5] // math.gcd(d[3], d[5])
        assert d[14] == d[2] * d[7] // math.gcd(d[2], d[7])

    def test_selection(self):
        out = pisano_periods_int(8)      # 8 % 19 + 2 = 10
        assert out[out["selected"] == 1]["m"].iloc[0] == 10


class TestConway:
    def test_prefix(self):
        out = conway_sequence_int(23)    # start 24 % 999 + 1 = 24
        # window starting at n = 24
        assert out["n"].iloc[0] == 24

    def test_canonical_prefix(self):
        out = conway_sequence_int(0)     # start 1
        assert list(out["a_n"].iloc[:16]) == \
            [1, 1, 2, 2, 3, 4, 4, 4, 5, 6, 7, 7, 8, 8, 8, 8]

    def test_deltas_binary(self):
        out = conway_sequence_int(500)
        assert set(out["delta"]).issubset({0, 1})

    def test_bounds(self):
        out = conway_sequence_int(900)
        for r in out.itertuples():
            assert r.n <= 2 * r.a_n
            assert r.a_n <= r.n
