"""Mihailescu on the range (aggregates.catalan_mihailescu_int) and
Sylvester's sequence (aggregates.sylvester_sequence_int) kernel
pins."""

from fractions import Fraction

from documentai_ray.extras import (catalan_mihailescu_int,
                                   sylvester_sequence_int)


class TestCatalan:
    def test_window_start(self):
        out = catalan_mihailescu_int(0)
        assert list(out["power"].iloc[:5]) == [4, 8, 9, 16, 25]
        assert out["is_catalan_pair"].iloc[1] == 1

    def test_powers_are_powers(self):
        out = catalan_mihailescu_int(50)
        for r in out.itertuples():
            v = int(r.power)
            ok = False
            a = 2
            while a * a <= v:
                w = a * a
                while w <= v:
                    if w == v:
                        ok = True
                    w *= a
                a += 1
            assert ok
            assert r.gap == r.next_power - r.power

    def test_catalan_pair_unique_in_windows(self):
        # the only gap-1 pair anywhere is (8,9); any window not
        # containing 8 has no catalan pair flag
        out = catalan_mihailescu_int(10)
        if 8 not in set(out["power"]):
            assert (out["is_catalan_pair"] == 0).all()


class TestSylvester:
    def test_terms(self):
        out = sylvester_sequence_int(0)
        assert list(out["term"]) == [2, 3, 7, 43, 1807, 3263443]

    def test_telescoping_exact(self):
        out = sylvester_sequence_int(0)
        psum = Fraction(0)
        for r in out.itertuples():
            psum += Fraction(1, int(r.term))
            assert psum == Fraction(int(r.psum_num),
                                    int(r.psum_den))

    def test_partial_sums_approach_one(self):
        out = sylvester_sequence_int(0)
        assert (out["psum_den"] - out["psum_num"] == 1).all()
