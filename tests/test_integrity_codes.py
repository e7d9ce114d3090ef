"""Integrity-code kernels: Luhn mod-10 (detection) and Hamming(7,4)
(correction) — the classic detection theorems, the documented 09↔90
blind spot, the exhaustive single-error-correction grid, and the
double-error mis-correction all pinned."""

from __future__ import annotations

from documentai_ray.extras import (hamming74_int, luhn_check_digit_int,
                                   luhn_sum_int, luhn_valid_int)


class TestLuhn:
    def test_classic_valid_number(self):
        """79927398713 — the canonical worked example — is valid,
        and its check digit regenerates from the 10-digit prefix."""
        assert luhn_valid_int(79927398713)
        assert luhn_check_digit_int(7992739871) == 3

    def test_check_digit_makes_any_prefix_valid(self):
        """Appending the computed check digit yields a valid number
        for a spread of prefixes (the shift-1 sum is exactly the
        parity class the digits land in after the append)."""
        for n in (0, 7, 42, 1094, 7992739871, 10**17 + 3):
            cd = luhn_check_digit_int(n)
            assert luhn_valid_int(10 * n + cd), n

    def test_every_single_substitution_detected(self):
        """Luhn's design theorem: changing any ONE digit of a valid
        number to any other value breaks validity — all 99
        perturbations of the classic number checked."""
        s = str(79927398713)
        for i in range(len(s)):
            for d in "0123456789":
                if d != s[i]:
                    assert not luhn_valid_int(
                        int(s[:i] + d + s[i + 1:]))

    def test_transposition_blind_spot_09_90(self):
        """The ONE documented failure: swapping adjacent 09 ↔ 90
        leaves the sum unchanged (both contribute 9+0 = 0+9 after
        doubling folds).  10942 is valid and so is 19042 — the
        transposed twin the code cannot see."""
        assert luhn_valid_int(10942)
        assert luhn_valid_int(19042)

    def test_other_adjacent_transpositions_detected(self):
        """Every adjacent transposition EXCEPT 09↔90 is caught:
        swap each non-equal, non-{0,9} adjacent pair of the classic
        number and assert invalidity."""
        s = str(79927398713)
        for i in range(len(s) - 1):
            a, b = s[i], s[i + 1]
            if a != b and {a, b} != {"0", "9"}:
                sw = s[:i] + b + a + s[i + 2:]
                assert not luhn_valid_int(int(sw)), sw

    def test_shift_sums_disagree(self):
        """shift-0 and shift-1 score different parity classes —
        for 18 (1 doubled vs 8 doubled): 2+8 = 10 vs 1+7 = 8."""
        assert luhn_sum_int(18, shift=0) == 10
        assert luhn_sum_int(18, shift=1) == 8


class TestHamming74:
    def test_exhaustive_single_error_correction(self):
        """Hamming's 1950 theorem made literal: for ALL 16 nibbles
        × 8 channel states (clean + 7 flip positions), the syndrome
        equals the error position and decode returns the original
        nibble — 128 exact cases."""
        for nib in range(16):
            for e in range(8):
                r = hamming74_int(nib, e)
                assert r["syndrome"] == e
                assert r["decoded"] == nib

    def test_known_codeword(self):
        """nibble 0b1011: p1 = 0, p2 = 1, p4 = 0 → codeword
        0110011 = 51, syndrome 0 on a clean channel."""
        r = hamming74_int(0b1011, 0)
        assert r["codeword"] == 51
        assert r["syndrome"] == 0

    def test_double_error_miscorrects(self):
        """The SEC code's documented failure: flipping positions 1
        AND 2 yields syndrome 1⊕2 = 3 — the decoder 'corrects' the
        innocent position 3 (a DATA bit) and returns the WRONG
        nibble, confidently."""
        r = hamming74_int(0b1011, 1, err_pos2=2)
        assert r["syndrome"] == 3
        assert r["decoded"] != 0b1011

    def test_double_error_on_parity_pair_flips_data(self):
        """Positions 2⊕4 = 6 point at data bit d1: decoded nibble
        differs from the original in exactly that bit."""
        r = hamming74_int(0b0000, 2, err_pos2=4)
        assert r["syndrome"] == 6
        assert r["decoded"] == 0b0010  # d1 wrongly 'corrected' on
