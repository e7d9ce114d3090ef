"""Golomb rulers (aggregates.golomb_ruler_int) and Langford
pairings (aggregates.langford_pairs_int) kernel pins."""

from itertools import combinations

from documentai_ray.extras import golomb_ruler_int, langford_pairs_int


class TestGolomb:
    def test_optimal_rulers(self):
        out = golomb_ruler_int(0)
        assert len(out) == 6
        o4 = out[out["order_"] == 4]
        assert len(o4) == 2
        assert (o4["length"] == 6).all()
        o5 = out[out["order_"] == 5]
        assert len(o5) == 4
        assert (o5["length"] == 11).all()

    def test_distinct_differences(self):
        out = golomb_ruler_int(2)
        for r in out.itertuples():
            marks = [m for m in (r.m0, r.m1, r.m2, r.m3, r.m4)
                     if m >= 0]
            difs = [b - a for a, b in combinations(marks, 2)]
            assert len(set(difs)) == len(difs)

    def test_perfect_order4(self):
        out = golomb_ruler_int(0)
        r = out[out["order_"] == 4].iloc[0]
        marks = [r["m0"], r["m1"], r["m2"], r["m3"]]
        difs = {b - a for a, b in combinations(marks, 2)}
        assert difs == set(range(1, 7))


class TestLangford:
    def test_counts(self):
        out = langford_pairs_int(0)
        counts = {int(r.n): int(r.n_solutions)
                  for r in out[out["sol_idx"] == -1].itertuples()}
        assert counts == {1: 0, 2: 0, 3: 2, 4: 2, 5: 0}

    def test_solutions_valid(self):
        out = langford_pairs_int(1)      # n = 4
        sols = out[out["sol_idx"] >= 0]
        assert len(sols) == 2
        for r in sols.itertuples():
            s = [int(ch) for ch in str(r.sol_digits)]
            assert len(s) == 8
            for k in range(1, 5):
                pos = [i for i, v in enumerate(s) if v == k]
                assert len(pos) == 2
                assert pos[1] - pos[0] == k + 1

    def test_n3_solutions(self):
        out = langford_pairs_int(0)
        sols = sorted(out[out["sol_idx"] >= 0]["sol_digits"])
        assert sols == [231213, 312132]
