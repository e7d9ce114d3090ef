"""Erdős-Gallai + record-values kernels."""
import itertools
import math
import random
from fractions import Fraction

import pytest

from documentai_ray.extras import erdos_gallai_int, record_values_int


def _havel_hakimi(seq):
    s = sorted(seq, reverse=True)
    while s and s[0] > 0:
        d = s.pop(0)
        if d > len(s):
            return False
        for i in range(d):
            s[i] -= 1
            if s[i] < 0:
                return False
        s.sort(reverse=True)
    return all(v == 0 for v in s)


def _hist(seq):
    h = {}
    for d in seq:
        h[d] = h.get(d, 0) + 1
    return list(h.items())


def test_eg_equals_havel_hakimi_sweep():
    # the THEOREM, exercised: EG verdict == an actual realizer
    rng = random.Random(97)
    for _ in range(250):
        n = rng.randrange(2, 12)
        seq = [rng.randrange(0, n) for _ in range(n)]
        out = erdos_gallai_int(_hist(seq), n)
        assert bool(out["graphical"].iloc[0]) == _havel_hakimi(seq)


def test_eg_known_sequences():
    # K4: [3,3,3,3] graphical
    assert int(erdos_gallai_int([(3, 4)], 3)["graphical"].iloc[0]) == 1
    # [3,3,3,1]: even sum but EG fails at k = 2
    out = erdos_gallai_int([(3, 3), (1, 1)], 3)
    assert int(out["graphical"].iloc[0]) == 0
    assert int(out[out["k"] == 2]["slack"].iloc[0]) < 0
    # odd total degree: parity kills it
    out = erdos_gallai_int([(3, 1), (2, 2)], 3)
    assert int(out["parity_ok"].iloc[0]) == 0
    assert int(out["graphical"].iloc[0]) == 0
    # triangle
    assert int(erdos_gallai_int([(2, 3)], 2)["graphical"].iloc[0]) == 1


def test_eg_boundary_cell_split():
    # boundary cell straddles the top-k cut: k = 2 over {5,5,5,0}
    out = erdos_gallai_int([(5, 3), (0, 1)], 3)
    row = out[out["k"] == 2].iloc[0]
    assert int(row["lhs"]) == 10                 # two of the 5s
    # tail = one 5 (split cell) + one 0: min(5,2) + min(0,2) = 2
    assert int(row["rhs"]) == 2 * 1 + 2


def test_records_permutation_theorem():
    # E[#records] over ALL permutations of distinct values == H_n
    vals = [11, 23, 5, 47, 31]
    n = len(vals)
    tot = Fraction(0)
    for perm in itertools.permutations(vals):
        tot += int(record_values_int(list(perm))
                   ["records_up"].iloc[0])
    mean = tot / math.factorial(n)
    assert mean == sum(Fraction(1, j) for j in range(1, n + 1))


def test_records_cases_and_floors():
    up = lambda ys: int(record_values_int(ys)["records_up"].iloc[0])
    dn = lambda ys: int(record_values_int(ys)["records_down"].iloc[0])
    inc = list(range(10))
    assert (up(inc), dn(inc)) == (10, 1)
    dec = list(range(10, 0, -1))
    assert (up(dec), dn(dec)) == (1, 10)
    const = [7] * 9
    assert (up(const), dn(const)) == (1, 1)     # ties never records
    # up(y) == down(-y) symmetry
    rng = random.Random(101)
    for _ in range(20):
        ys = [rng.randrange(-50, 50) for _ in range(15)]
        assert up(ys) == dn([-y for y in ys])
    # floors replay in Fractions
    out = record_values_int(list(range(30)))
    h = sum(Fraction(1, j) for j in range(1, 31))
    h2 = sum(Fraction(1, j * j) for j in range(1, 31))
    e = 1000 * h
    v = 1000 * (h - h2)
    assert int(out["expected_milli"].iloc[0]) == e.numerator // e.denominator
    assert int(out["var_milli"].iloc[0]) == v.numerator // v.denominator
    assert int(out["var_milli"].iloc[0]) >= 0


def test_records_first_max_day():
    out = record_values_int([5, 9, 2, 9, 1])
    assert int(out["first_max_day"].iloc[0]) == 1   # first attain
    out = record_values_int([9, 1, 2])
    assert int(out["first_max_day"].iloc[0]) == 0   # never beaten
