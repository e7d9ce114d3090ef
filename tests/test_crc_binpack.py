"""CRC-8 polynomial code (textstats.crc8) and FFD bin packing
(aggregates.ffd_binpack_int) kernel pins."""

import random
from itertools import combinations

from documentai_ray.extras import ffd_binpack_int
from documentai_ray.stages.textstats import CRC8_TABLE, crc8


class TestCRC8:
    def test_smbus_check_value(self):
        # the published CRC-8/SMBUS check value for "123456789"
        assert crc8(b"123456789") == 0xF4

    def test_table_is_the_bitwise_crc(self):
        # table entry b == bitwise long division of byte b by 0x107
        for b in (0, 1, 7, 0x80, 0xFF, 0x55):
            c = b
            for _ in range(8):
                c = ((c << 1) ^ 0x07) & 0xFF if c & 0x80 \
                    else (c << 1) & 0xFF
            assert CRC8_TABLE[b] == c

    def test_append_crc_gives_zero_residue(self):
        rng = random.Random(19)
        for _ in range(50):
            m = bytes(rng.randrange(256)
                      for _ in range(rng.randrange(0, 40)))
            assert crc8(m + bytes([crc8(m)])) == 0

    def test_detects_all_bursts_up_to_8_bits(self):
        # a CRC with an 8-bit polynomial detects EVERY burst error of
        # length <= 8 bits: exhaustive sweep over burst position and
        # pattern on a fixed message
        m = bytearray(b"the quick brown fox")
        base = crc8(bytes(m))
        nbits = len(m) * 8
        for start in range(nbits - 7):
            for blen in range(1, 9):
                if start + blen > nbits:
                    continue
                # burst = first and last bit flipped, inner arbitrary
                # (test the worst case: every pattern for blen <= 5)
                patterns = (range(1, 1 << (blen - 1))
                            if blen <= 5 else [1])
                for pat in patterns:
                    bits = [start] + [
                        start + 1 + k for k in range(blen - 2)
                        if (pat >> (k + 1)) & 1] + (
                        [start + blen - 1] if blen > 1 else [])
                    mm = bytearray(m)
                    for bit in set(bits):
                        mm[bit // 8] ^= 0x80 >> (bit % 8)
                    assert crc8(bytes(mm)) != base

    def test_empty_message(self):
        assert crc8(b"") == 0


class TestFFDBinpack:
    def _opt(self, sizes, cap):
        # brute force optimum: try all assignments via DFS
        best = [len(sizes)]

        def dfs(i, bins):
            if len(bins) >= best[0]:
                return
            if i == len(sizes):
                best[0] = len(bins)
                return
            s = sizes[i]
            for j in range(len(bins)):
                if bins[j] + s <= cap:
                    bins[j] += s
                    dfs(i + 1, bins)
                    bins[j] -= s
            bins.append(s)
            dfs(i + 1, bins)
            bins.pop()

        dfs(0, [])
        return best[0]

    def test_hand_instance(self):
        out = ffd_binpack_int([30, 30, 30, 10, 10, 10], 64).iloc[0]
        assert out["n_bins_ffd"] == 2
        assert out["lb_size"] == 2
        assert out["lb_slack"] == 0
        assert out["waste"] == 8

    def test_perfect_packing(self):
        out = ffd_binpack_int([32, 32, 16, 16, 16, 16], 64).iloc[0]
        assert out["n_bins_ffd"] == 2
        assert out["waste"] == 0

    def test_dosa_bound_vs_brute_force(self):
        # FFD <= 11/9 OPT + 6/9, i.e. 9*FFD <= 11*OPT + 6 exactly
        rng = random.Random(27)
        for _ in range(30):
            n = rng.randrange(1, 9)
            sizes = [rng.randrange(1, 65) for _ in range(n)]
            ffd = ffd_binpack_int(sizes, 64).iloc[0]["n_bins_ffd"]
            opt = self._opt(sorted(sizes, reverse=True), 64)
            assert 9 * ffd <= 11 * opt + 6, (sizes, ffd, opt)
            assert ffd >= opt

    def test_lb_and_waste_invariants(self):
        rng = random.Random(33)
        for _ in range(30):
            sizes = [rng.randrange(1, 65)
                     for _ in range(rng.randrange(0, 25))]
            out = ffd_binpack_int(sizes, 64).iloc[0]
            assert out["lb_slack"] >= 0
            assert out["waste"] >= 0
            assert out["waste"] == out["n_bins_ffd"] * 64 - sum(sizes)
