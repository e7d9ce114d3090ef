"""Viterbi max-product decoding (aggregates.viterbi_decode_int) and
rule-90 additive CA (aggregates.rule90_ring_int) kernel pins."""

import random
from itertools import product

from documentai_ray.extras import (VITERBI_E, VITERBI_W, rule90_ring_int,
                                   viterbi_decode_int)


def _score(states, obs):
    sc = VITERBI_E[states[0]][obs[0]]
    for t in range(1, len(obs)):
        sc *= VITERBI_W[states[t - 1]][states[t]] \
            * VITERBI_E[states[t]][obs[t]]
    return sc


class TestViterbi:
    def test_exhaustive_optimality_T8(self):
        rng = random.Random(77)
        for _ in range(20):
            obs = [rng.randrange(2) for _ in range(8)]
            dec = list(viterbi_decode_int(obs)["state"])
            best = max(_score(list(p), obs)
                       for p in product([0, 1], repeat=8))
            assert _score(dec, obs) == best

    def test_constant_observations_stay_put(self):
        out = viterbi_decode_int([0] * 24)
        assert list(out["state"]) == [0] * 24
        assert out["n_switches"].iloc[0] == 0
        out = viterbi_decode_int([1] * 24)
        assert list(out["state"]) == [1] * 24

    def test_sticky_smoothing_ignores_single_blip(self):
        # one deviant observation in a long run: staying put costs
        # emission 1 once; switching twice costs W=1 twice -> the
        # sticky prior smooths the blip away
        obs = [0] * 10 + [1] + [0] * 10
        out = viterbi_decode_int(obs)
        assert list(out["state"]) == [0] * 21

    def test_block_switch_decoded(self):
        obs = [0] * 8 + [1] * 8
        out = viterbi_decode_int(obs)
        assert list(out["state"]) == obs
        assert out["n_switches"].iloc[0] == 1

    def test_certificates_always_hold(self):
        rng = random.Random(78)
        for _ in range(30):
            obs = [rng.randrange(2) for _ in range(24)]
            out = viterbi_decode_int(obs)
            assert (out["beats_const0"] == 1).all()
            assert (out["beats_const1"] == 1).all()

    def test_tie_break_prefers_state_zero(self):
        # a single ambiguous observation: with symmetric weights the
        # two states tie; the stated rule picks 0
        out = viterbi_decode_int([0])
        assert list(out["state"]) == [0]


class TestRule90:
    def _step(self, bits):
        n = len(bits)
        return [bits[(i - 1) % n] ^ bits[(i + 1) % n]
                for i in range(n)]

    def test_matches_direct_simulation(self):
        rng = random.Random(81)
        for _ in range(20):
            bits = [rng.randrange(2) for _ in range(24)]
            out = rule90_ring_int(bits, 8)
            ref = bits[:]
            for _ in range(8):
                ref = self._step(ref)
            assert list(out["bit_t"]) == ref
            assert list(out["bit0"]) == bits

    def test_superposition_additivity(self):
        # rule 90 is GF(2)-linear: CA(a xor b) == CA(a) xor CA(b)
        rng = random.Random(82)
        for _ in range(20):
            a = [rng.randrange(2) for _ in range(24)]
            b = [rng.randrange(2) for _ in range(24)]
            ca = list(rule90_ring_int(a, 8)["bit_t"])
            cb = list(rule90_ring_int(b, 8)["bit_t"])
            cab = list(rule90_ring_int(
                [x ^ y for x, y in zip(a, b)], 8)["bit_t"])
            assert cab == [x ^ y for x, y in zip(ca, cb)]

    def test_even_weight_theorem(self):
        rng = random.Random(83)
        for steps in (1, 3, 8):
            for _ in range(10):
                bits = [rng.randrange(2) for _ in range(24)]
                out = rule90_ring_int(bits, steps)
                assert out["even_weight"].iloc[0] == 1
                assert sum(out["bit_t"]) % 2 == 0

    def test_single_seed_pascal_row(self):
        # from a single seed, t steps put ones at offsets where
        # C(t, (t+d)/2) is odd (Pascal mod 2) — t=4: offsets ±4, ∓...
        # direct: row 4 of Pascal mod 2 = 1 0 0 0 1 at spacing 2
        out = rule90_ring_int([1] + [0] * 23, 4)
        bits = list(out["bit_t"])
        expect = [0] * 24
        # C(4,k) mod 2 for k=0..4 = 1,0,0,0,1 -> cells 0±4
        expect[4] = 1
        expect[(0 - 4) % 24] = 1
        assert bits == expect

    def test_zero_state_is_fixed(self):
        out = rule90_ring_int([0] * 24, 8)
        assert sum(out["bit_t"]) == 0
