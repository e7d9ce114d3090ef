"""Huffman optimal coding (aggregates.huffman_cost_int) and coupon
collector (aggregates.coupon_collector_micro) kernel pins."""

import math
import random
from fractions import Fraction

from documentai_ray.extras import coupon_collector_micro, huffman_cost_int


def _brute_optimal_cost(weights):
    """Minimum Σ w·depth over ALL binary code trees, by exhaustive
    merge orders (exponential — small n only)."""
    best = [None]

    def rec(ws, acc):
        if len(ws) == 1:
            if best[0] is None or acc < best[0]:
                best[0] = acc
            return
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                m = ws[i] + ws[j]
                rest = [w for k, w in enumerate(ws)
                        if k not in (i, j)] + [m]
                rec(rest, acc + m)

    rec(list(weights), 0)
    return best[0]


class TestHuffman:
    def test_hand_instance(self):
        out = huffman_cost_int([("a", 5), ("b", 2), ("c", 1),
                                ("d", 1)]).iloc[0]
        assert out["huffman_cost"] == 15   # merges 2, 4, 9
        assert out["fixed_cost"] == 18     # 9 symbols * 2 bits
        assert out["savings_ppm"] == 833333

    def test_optimality_vs_brute_force(self):
        rng = random.Random(44)
        for _ in range(25):
            n = rng.randrange(2, 7)
            cen = [(i, rng.randrange(1, 50)) for i in range(n)]
            out = huffman_cost_int(cen).iloc[0]
            assert out["huffman_cost"] == _brute_optimal_cost(
                [w for _, w in cen])

    def test_shannon_entropy_bracket(self):
        rng = random.Random(51)
        for _ in range(20):
            n = rng.randrange(2, 12)
            cen = [(i, rng.randrange(1, 100)) for i in range(n)]
            out = huffman_cost_int(cen).iloc[0]
            W = out["total_weight"]
            H = -sum((w / W) * math.log2(w / W) for _, w in cen)
            avg_len = out["huffman_cost"] / W
            assert H - 1e-9 <= avg_len < H + 1

    def test_uniform_powers_of_two(self):
        # 8 equal weights -> perfect 3-bit code, savings exactly 1e6
        out = huffman_cost_int([(i, 4) for i in range(8)]).iloc[0]
        assert out["huffman_cost"] == 32 * 3
        assert out["fixed_cost"] == 32 * 3
        assert out["savings_ppm"] == 1_000_000

    def test_degenerate_alphabets(self):
        assert huffman_cost_int([]).iloc[0]["huffman_cost"] == 0
        one = huffman_cost_int([("a", 9)]).iloc[0]
        assert one["huffman_cost"] == 0  # no merge, stated convention
        assert one["fixed_cost"] == 0

    def test_zero_counts_excluded(self):
        a = huffman_cost_int([("a", 5), ("b", 3), ("z", 0)])
        b = huffman_cost_int([("a", 5), ("b", 3)])
        assert a.equals(b)


class TestCouponCollector:
    def test_known_harmonic_values(self):
        # n=5: 5*H_5 = 137/12 = 11.41666... -> floors to 11416666
        out = coupon_collector_micro(5, 12).iloc[0]
        assert out["expected_micro"] == 11416666
        # n=2: 2*H_2 = 3 exactly
        assert coupon_collector_micro(2, 3).iloc[0][
            "expected_micro"] == 3_000_000

    def test_floor_chain_bracket(self):
        # the per-term floors drift the chain DOWN by < n micro vs
        # the exact rational n*H_n
        for n in range(1, 40):
            em = coupon_collector_micro(n, n).iloc[0]["expected_micro"]
            exact = Fraction(n) * sum(Fraction(1, k)
                                      for k in range(1, n + 1))
            hi = int(exact * 1_000_000)
            assert hi - n < em <= hi

    def test_min_completion_reads_below_expectation(self):
        # the luckiest collection (obs = n) is always faster than
        # the expectation for n >= 2
        for n in range(2, 10):
            out = coupon_collector_micro(n, n).iloc[0]
            assert out["ratio_ppm"] < 1_000_000

    def test_ratio_at_expectation(self):
        out = coupon_collector_micro(2, 3).iloc[0]
        assert out["ratio_ppm"] == 1_000_000
