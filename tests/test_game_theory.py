"""Non-cooperative game kernels: 2×2 bimatrix Nash and von
Neumann's zero-sum minimax — the classic trio (matching pennies /
prisoner's dilemma / battle of the sexes) pinned, plus the saddle
detector and the minimax-theorem sandwich."""

from __future__ import annotations

from documentai_ray.extras import nash_2x2_int, zerosum_value_int

PENNIES_A = [[1, -1], [-1, 1]]
PENNIES_B = [[-1, 1], [1, -1]]


class TestNash2x2:
    def test_matching_pennies_no_pure_mixed_half(self):
        """Matching pennies: NO pure NE (every cell has a profitable
        deviation), and the unique mixed equilibrium is p = q = 1/2
        EXACTLY — 500000 ppm with zero flooring residue."""
        out = nash_2x2_int(PENNIES_A, PENNIES_B)
        assert not out["is_pure_ne"].any()
        assert int(out["n_pure_ne"].iloc[0]) == 0
        assert out["mixed_interior"].iloc[0]
        assert int(out["p_mixed_ppm"].iloc[0]) == 500000
        assert int(out["q_mixed_ppm"].iloc[0]) == 500000

    def test_prisoners_dilemma_unique_pure_no_mixed(self):
        """PD (action 0 = cooperate): defect strictly dominates, so
        (defect, defect) is the UNIQUE equilibrium and the mixed
        indifference fraction falls outside (0,1) — reported
        invalid, not clamped into range."""
        out = nash_2x2_int([[3, 0], [5, 1]], [[3, 5], [0, 1]])
        ne = out[out["is_pure_ne"]]
        assert len(ne) == 1
        assert (int(ne["row_action"].iloc[0]),
                int(ne["col_action"].iloc[0])) == (1, 1)
        assert not out["mixed_interior"].iloc[0]
        assert int(out["p_mixed_ppm"].iloc[0]) == 0

    def test_battle_of_sexes_two_pure_plus_mixed(self):
        """BoS: both coordination cells are pure NE, and the mixed
        equilibrium weights are the EXACT rationals 2/3 and 1/3
        (666666 / 333333 ppm after one floor each)."""
        out = nash_2x2_int([[2, 0], [0, 1]], [[1, 0], [0, 2]])
        ne = out[out["is_pure_ne"]]
        assert {(int(r), int(c)) for r, c in
                zip(ne["row_action"], ne["col_action"])} \
            == {(0, 0), (1, 1)}
        assert out["mixed_interior"].iloc[0]
        assert int(out["p_mixed_ppm"].iloc[0]) == 666666
        assert int(out["q_mixed_ppm"].iloc[0]) == 333333

    def test_equilibrium_count_odd_across_the_trio(self):
        """Wilson 1971: generic games have an ODD number of
        equilibria — pennies 0+1, PD 1+0, BoS 2+1."""
        for A, B in ((PENNIES_A, PENNIES_B),
                     ([[3, 0], [5, 1]], [[3, 5], [0, 1]]),
                     ([[2, 0], [0, 1]], [[1, 0], [0, 2]])):
            out = nash_2x2_int(A, B)
            total = int(out["n_pure_ne"].iloc[0]) \
                + int(out["mixed_interior"].iloc[0])
            assert total % 2 == 1


class TestZerosumValue:
    def test_matching_pennies_value_zero(self):
        """Pennies: maximin −1 < minimax 1 (no saddle), mixed value
        (1·1 − (−1)(−1))/4 = 0 EXACTLY, p = q = 1/2."""
        out = zerosum_value_int(PENNIES_A).iloc[0]
        assert not out["has_saddle"]
        assert int(out["value_milli"]) == 0
        assert int(out["p_row_ppm"]) == 500000
        assert int(out["q_col_ppm"]) == 500000

    def test_saddle_point_pure_value(self):
        """[[2,1],[0,−1]]: row mins (1,−1), col maxes (2,1) —
        maximin = minimax = 1, a saddle at (row 0, col 1): pure
        value 1000 milli with ZERO flooring, degenerate weights."""
        out = zerosum_value_int([[2, 1], [0, -1]]).iloc[0]
        assert out["has_saddle"]
        assert int(out["value_milli"]) == 1000
        assert int(out["p_row_ppm"]) == 1_000_000
        assert int(out["q_col_ppm"]) == 0  # column plays action 1

    def test_mixed_value_exact_rational(self):
        """[[3,−1],[−2,4]]: D = 10, value (12−2)/10 = 1 exactly
        (1000 milli), p = 6/10, q = 5/10 — and the minimax theorem
        sandwich maximin ≤ v ≤ minimax holds strictly."""
        out = zerosum_value_int([[3, -1], [-2, 4]]).iloc[0]
        assert not out["has_saddle"]
        assert int(out["value_milli"]) == 1000
        assert int(out["p_row_ppm"]) == 600000
        assert int(out["q_col_ppm"]) == 500000
        assert int(out["maximin_milli"]) <= int(out["value_milli"]) \
            <= int(out["minimax_milli"])

    def test_negative_value_sign_split(self):
        """Transposing the sign of the pennies-like game [[−3,1],
        [2,−2]]: value (6−2)/(−8) = −1/2 → the sign-split milli
        floor must read −500, not the Python-floor −501."""
        out = zerosum_value_int([[-3, 1], [2, -2]]).iloc[0]
        assert int(out["value_milli"]) == -500
