"""DFA minimization (aggregates.dfa_minimize_int) and Pell
fundamental solutions (aggregates.pell_equation_int) kernel pins."""

import math
import random

from documentai_ray.extras import dfa_minimize_int, pell_equation_int


class TestDfaMinimize:
    def test_mergeable_twins(self):
        # states 1 and 2 have identical rows (same successors,
        # same accept): must merge into one class labelled 1
        d0 = [1, 3, 3, 4, 0, 0, 0, 0, 0, 0]
        d1 = [2, 4, 4, 3, 0, 0, 0, 0, 0, 0]
        acc = [0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
        out = dfa_minimize_int(d0, d1, acc)
        assert out["class_label"].iloc[1] == 1
        assert out["class_label"].iloc[2] == 1
        assert out["class_size"].iloc[1] == 2

    def test_all_accepting_collapses_to_one(self):
        # every state accepting, arbitrary transitions within the
        # reachable part: all reachable states are equivalent
        d0 = [1, 2, 3, 4, 5, 6, 7, 8, 9, 0]
        d1 = [0] * 10
        acc = [1] * 10
        out = dfa_minimize_int(d0, d1, acc)
        assert out["n_classes"].iloc[0] == 1
        assert (out[out["reachable"] == 1]["class_label"] == 0).all()

    def test_unreachable_marked(self):
        # self-loop at start: only state 0 reachable
        out = dfa_minimize_int([0] * 10, [0] * 10, [1] * 10)
        assert out["reachable"].sum() == 1
        assert out["class_label"].iloc[0] == 0
        assert (out["class_label"].iloc[1:] == -1).all()
        assert out["n_classes"].iloc[0] == 1

    def test_distance_to_accept_chain(self):
        # 5-cycle with a single accepting state: all 5 reachable
        # states have distinct accept-distances -> already minimal
        d0 = [1, 2, 3, 4, 0, 6, 7, 8, 9, 5]
        out = dfa_minimize_int(d0, [0] * 10,
                               [1, 0, 0, 0, 0, 1, 0, 0, 0, 0])
        assert out["n_classes"].iloc[0] == 5

    def test_random_moore_equals_nerode(self):
        # the two routes are asserted identical in-kernel; sweep
        # random machines plus an external language check on the
        # quotient: same class -> same acceptance for all words
        # up to length 6
        rng = random.Random(97)
        for _ in range(10):
            d0 = [rng.randrange(10) for _ in range(10)]
            d1 = [rng.randrange(10) for _ in range(10)]
            acc = [rng.randrange(2) for _ in range(10)]
            out = dfa_minimize_int(d0, d1, acc)
            reach = out[out["reachable"] == 1]
            for lab in reach["class_label"].unique():
                members = list(reach[reach["class_label"] == lab]
                               ["state"])
                for w in range(64):
                    vals = set()
                    for s in members:
                        cur = s
                        for bit in range(6):
                            cur = (d1 if (w >> bit) & 1
                                   else d0)[cur]
                        vals.add(acc[cur])
                    assert len(vals) == 1


class TestPell:
    def test_classic_fundamentals(self):
        # d=2 -> (3,2); d=3 -> (2,1); d=5 -> (9,4); d=29 ->
        # (9801,1820) the famous large one below d=31
        out = pell_equation_int([0, 1, 3, 27])
        got = {int(r.d): (int(r.x), int(r.y))
               for r in out.itertuples()}
        assert got[2] == (3, 2)
        assert got[3] == (2, 1)
        assert got[5] == (9, 4)
        assert got[29] == (9801, 1820)

    def test_square_bump(self):
        # seed 2 -> d0 = 4 (square) -> bumped to 5
        out = pell_equation_int([2, 7, 14, 23])
        assert list(out["d"]) == [5, 10, 17, 26]

    def test_solutions_satisfy_equation(self):
        rng = random.Random(101)
        out = pell_equation_int([rng.randrange(10 ** 6)
                                 for _ in range(20)])
        for r in out.itertuples():
            assert r.x * r.x - r.d * r.y * r.y == 1
            assert r.x2 * r.x2 - r.d * r.y2 * r.y2 == 1
            assert math.isqrt(r.d) ** 2 != r.d
            # minimality is asserted in-kernel by brute sweep;
            # spot-check externally for y > 1
            for yy in range(1, min(int(r.y), 50)):
                t = 1 + r.d * yy * yy
                assert math.isqrt(t) ** 2 != t
