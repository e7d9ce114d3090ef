"""BWT runs (textstats.bwt_runs) and Batcher sorting network
(aggregates.batcher_sort_int) kernel pins."""

import random
from itertools import product

from documentai_ray.extras import BATCHER8, batcher_sort_int
from documentai_ray.stages.textstats import bwt_inverse, bwt_runs


class TestBWT:
    def test_banana_classic(self):
        b, runs = bwt_runs("banana$")
        assert b == "annb$aa"
        assert runs == 5  # a | nn | b | $ | aa

    def test_invertibility_round_trip(self):
        rng = random.Random(61)
        for _ in range(60):
            s = "".join(rng.choice("abcd")
                        for _ in range(rng.randrange(1, 30))) + "$"
            b, _ = bwt_runs(s)
            assert bwt_inverse(b) == s

    def test_permutation_property(self):
        rng = random.Random(62)
        for _ in range(40):
            s = "".join(rng.choice("xyz")
                        for _ in range(rng.randrange(1, 25))) + "$"
            b, _ = bwt_runs(s)
            assert sorted(b) == sorted(s)

    def test_repetitive_text_compresses(self):
        # periodic text: BWT groups equal contexts -> fewer runs
        s = "ab" * 12 + "$"
        b, runs_bwt = bwt_runs(s)
        runs_in = 1 + sum(1 for i in range(1, len(s))
                          if s[i] != s[i - 1])
        assert runs_bwt < runs_in
        # bbbb...$...aaaa shape: exactly 4 runs (b+, $ between, a+)
        assert runs_bwt <= 4

    def test_unary_string(self):
        b, runs = bwt_runs("aaaa$")
        # rotations sorted put '$...' first; bwt = a...a$? compute:
        assert sorted(b) == sorted("aaaa$")
        assert runs <= 3


class TestBatcher:
    def test_zero_one_principle_exhaustive(self):
        # correct on ALL 2^8 binary vectors => correct on all inputs
        for bits in product([0, 1], repeat=8):
            out = batcher_sort_int(list(bits))
            assert list(out["out_value"]) == sorted(bits)
            assert out["is_sorted"].iloc[0] == 1

    def test_random_values(self):
        rng = random.Random(71)
        for _ in range(50):
            v = [rng.randrange(-100, 100) for _ in range(8)]
            out = batcher_sort_int(v)
            assert list(out["out_value"]) == sorted(v)
            assert list(out["in_value"]) == v

    def test_gate_count_and_structure(self):
        assert len(BATCHER8) == 19
        # every gate is ascending-indexed (compare-exchange toward
        # higher wire) — required for the least/greatest mirror
        assert all(a < b for a, b in BATCHER8)

    def test_oblivious_no_data_dependence(self):
        # the same gate sequence sorts both a sorted and an
        # anti-sorted input — obliviousness in action
        up = batcher_sort_int(list(range(8)))
        dn = batcher_sort_int(list(range(7, -1, -1)))
        assert list(up["out_value"]) == list(dn["out_value"]) == \
            list(range(8))
