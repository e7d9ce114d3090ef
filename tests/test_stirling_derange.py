"""Stirling/Bell set partitions (aggregates.stirling_bell_int) and
derangements (aggregates.derangements_int) kernel pins."""

from documentai_ray.extras import derangements_int, stirling_bell_int


class TestStirlingBell:
    def test_row_seven(self):
        # S(7,k): 0,1,63,301,350,140,21,1; B(7) = 877
        out = stirling_bell_int(0)
        assert list(out["stirling"]) == [0, 1, 63, 301, 350,
                                         140, 21, 1]
        assert (out["bell"] == 877).all()

    def test_row_twelve(self):
        # census mod 6 + 7 = 12 for seed 5; B(12) = 4213597,
        # S(12,1) = 1, S(12,12) = 1, S(12,2) = 2^11 - 1
        out = stirling_bell_int(5)
        assert out["n"].iloc[0] == 12
        assert out["bell"].iloc[0] == 4213597
        assert out[out["k"] == 2]["stirling"].iloc[0] == 2047
        assert out[out["k"] == 12]["stirling"].iloc[0] == 1
        assert out["stirling"].sum() == 4213597

    def test_two_block_closed_form(self):
        # S(n,2) = 2^(n-1) - 1 for every selectable n
        for seed in range(6):
            out = stirling_bell_int(seed)
            n = out["n"].iloc[0]
            assert out[out["k"] == 2]["stirling"].iloc[0] == \
                2 ** (n - 1) - 1

    def test_n_minus_one_blocks_is_binomial(self):
        # S(n, n-1) = C(n, 2): choose the merged pair
        out = stirling_bell_int(3)          # n = 10
        n = out["n"].iloc[0]
        assert out[out["k"] == n - 1]["stirling"].iloc[0] == \
            n * (n - 1) // 2


class TestDerangements:
    def test_known_sequence(self):
        # OEIS A000166
        out = derangements_int([(h, h) for h in range(10)])
        assert list(out["derangements"]) == [1, 0, 1, 2, 9, 44,
                                             265, 1854, 14833,
                                             133496]

    def test_mod_13_reduction(self):
        out = derangements_int([(0, 13), (1, 25)])
        assert list(out["n"]) == [0, 12]
        assert out["derangements"].iloc[1] == 176214841

    def test_ratio_approaches_inverse_e(self):
        # D(n)/n! -> 1/e: |e*D(n) - n!| < 1 equivalently
        # |D(n) - n!/e| < 1/2; verify via the integer inequality
        # |e_num*D - n!*e_den| tight with a rational e approx
        out = derangements_int([(0, 12)])
        d, f = int(out["derangements"].iloc[0]), \
            int(out["n_factorial"].iloc[0])
        # nearest-integer property: D(n) = round(n!/e), i.e.
        # 2*|e*D - n!| < e  ->  with e ~ 106/39 (overkill here,
        # use exact check |D - n!/e| < 1/2 via cross-multiply
        # against a high-precision rational 848456353/312129649)
        en, ed = 848456353, 312129649      # e ~ en/ed
        assert abs(2 * en * d - 2 * f * ed) < en

    def test_recurrence_externally(self):
        out = derangements_int([(h, h) for h in range(13)])
        d = list(out["derangements"])
        for n in range(2, 13):
            assert d[n] == (n - 1) * (d[n - 1] + d[n - 2])
