"""Thue-Morse (aggregates.thue_morse_int) and the algae L-system
(aggregates.lindenmayer_int) kernel pins."""

from documentai_ray.extras import lindenmayer_int, thue_morse_int


class TestThueMorse:
    def test_prefix(self):
        out = thue_morse_int(0)
        assert list(out["bit"].iloc[:16]) == \
            [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]

    def test_parity_consistency(self):
        out = thue_morse_int(100)
        for r in out.itertuples():
            assert r.bit == r.popcount % 2

    def test_window_start_bound(self):
        out = thue_morse_int(10 ** 9)
        assert out["n"].max() < 512

    def test_no_three_equal_consecutive(self):
        # cube-freeness at length 1: no 000 or 111 anywhere —
        # asserted in-kernel over the full prefix; spot-check the
        # reported window
        out = thue_morse_int(7)
        bits = list(out["bit"])
        for i in range(len(bits) - 2):
            assert not (bits[i] == bits[i + 1] == bits[i + 2])


class TestLindenmayer:
    def test_growth_table(self):
        out = lindenmayer_int(0)
        assert list(out["length"].iloc[:7]) == [1, 2, 3, 5, 8,
                                                13, 21]
        assert out["length"].iloc[24] == 121393
        assert out["n_a"].iloc[24] == 75025
        assert out["n_b"].iloc[24] == 46368

    def test_counts_sum(self):
        out = lindenmayer_int(5)
        assert (out["n_a"] + out["n_b"] == out["length"]).all()
        assert out[out["selected"] == 1]["step"].iloc[0] == 5

    def test_b_lags_a(self):
        # nb at step k equals na at step k-1 (every B came from
        # yesterday's A)
        out = lindenmayer_int(0)
        na = list(out["n_a"])
        nb = list(out["n_b"])
        for k in range(1, 25):
            assert nb[k] == na[k - 1]
