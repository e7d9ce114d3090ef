"""Kolakoski (aggregates.kolakoski_int) and Ducci
(aggregates.ducci_int) kernel pins."""

import random

from documentai_ray.extras import ducci_int, kolakoski_int


class TestKolakoski:
    def test_prefix(self):
        out = kolakoski_int(0)
        assert list(out["value"].iloc[:12]) == \
            [1, 2, 2, 1, 1, 2, 1, 2, 2, 1, 2, 2]

    def test_alphabet(self):
        out = kolakoski_int(100)
        assert set(out["value"]).issubset({1, 2})

    def test_no_triple_runs(self):
        # runs have length 1 or 2: never three equal in a row
        out = kolakoski_int(50)
        v = list(out["value"])
        for i in range(len(v) - 2):
            assert not (v[i] == v[i + 1] == v[i + 2])


class TestDucci:
    def test_trajectory_reaches_zero(self):
        rng = random.Random(251)
        for _ in range(8):
            seeds = [rng.randrange(10 ** 6) for _ in range(4)]
            out = ducci_int(seeds)
            last = out.iloc[-1]
            assert (last["a"], last["b"], last["c"],
                    last["d"]) == (0, 0, 0, 0)
            assert out["step"].max() <= 39

    def test_step_law(self):
        out = ducci_int([3, 1, 4, 1])
        rows = list(out.itertuples())
        for p, q in zip(rows, rows[1:]):
            assert q.a == abs(p.a - p.b)
            assert q.b == abs(p.b - p.c)
            assert q.c == abs(p.c - p.d)
            assert q.d == abs(p.d - p.a)

    def test_max_steps_constant(self):
        a = ducci_int([0, 0, 0, 0])["max_steps_sub16"].iloc[0]
        b = ducci_int([9, 9, 9, 9])["max_steps_sub16"].iloc[0]
        assert a == b > 0
