"""Kalman local-level + Colley rating kernels."""
import random
from fractions import Fraction

import pytest

from documentai_ray.extras import colley_rank_int, kalman_level_int

Q, R = 250_000, 1_000_000


def test_kalman_three_step_hand_replay():
    out = kalman_level_int([10, 14, 9], Q, R)
    # t=1: P- = 1.25e6, K = 1.25/2.25e6 -> 555555
    #      d = 4000 -> x = 10000 + 555555*4000 // 1e6 = 12222
    #      P = (1e6-555555)*1.25e6 // 1e6 = 555556
    assert list(out.iloc[1])[2:] == [12222, 555555, 555556]
    # t=2: P- = 805556, K = 805556e6 // 1805556e6... = 446153
    #      d = 9000-12222 = -3222 (sign-split trunc)
    #      x = 12222 - 446153*3222 // 1e6 = 12222 - 1437 = 10785
    assert list(out.iloc[2])[2:] == [10785, 446153, 446154]


def test_kalman_edge_gains():
    # R = 0: K = 1e6 exactly, filter tracks the observation
    out = kalman_level_int([5, 99, 3, 42], Q, 0)
    assert (out["k_ppm"].iloc[1:] == 1_000_000).all()
    assert list(out["x_milli"]) == [5000, 99000, 3000, 42000]
    # Q = 0 from P start 1e6: gain decays toward 0, estimate
    # converges (running average behaviour); P decreasing
    out = kalman_level_int([7] * 20, 0, R)
    assert (out["x_milli"] == 7000).all()      # zero innovation
    p = list(out["p_ppm"])
    assert all(a >= b for a, b in zip(p[1:], p[2:]))


def test_kalman_riccati_stabilization_and_bracket():
    rng = random.Random(137)
    ys = [rng.randrange(0, 100) for _ in range(40)]
    out = kalman_level_int(ys, Q, R)
    k = list(out["k_ppm"])
    # floored Riccati reaches a fixed point
    assert all(abs(a - b) <= 1 for a, b in zip(k[15:], k[16:]))
    # exact fixed point: P^2 + PQ - RQ = 0 and with R = 1e6 the
    # steady gain equals the steady variance, K* = (-1+sqrt(17))/8
    # = 0.3903882... for Q = R/4 — the chain lands within one ppm
    import math
    kstar = int(1_000_000 * (-1 + math.sqrt(17)) / 8)
    assert abs(k[-1] - kstar) <= 1
    assert abs(int(out["p_ppm"].iloc[-1]) - kstar) <= 2
    # estimate stays within the observed range (within 1 milli)
    lo, hi = min(ys + [ys[0]]), max(ys)
    assert ((out["x_milli"] >= 1000 * lo - 1)
            & (out["x_milli"] <= 1000 * hi + 1)).all()


def _frac_colley(counts):
    g = [[0] * 3 for _ in range(3)]
    w = [0] * 3
    for cs in counts:
        for i in range(3):
            for j in range(i + 1, 3):
                if cs[i] != cs[j]:
                    g[i][j] += 1
                    g[j][i] += 1
                    w[i if cs[i] > cs[j] else j] += 1
    t = [sum(g[i]) for i in range(3)]
    c = [[Fraction(2 + t[i]) if i == j else Fraction(-g[i][j])
          for j in range(3)] for i in range(3)]
    b = [Fraction(2 + w[i] - (t[i] - w[i]), 2) for i in range(3)]
    # Gaussian elimination in Fractions
    for col in range(3):
        piv = next(r for r in range(col, 3) if c[r][col] != 0)
        c[col], c[piv] = c[piv], c[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(3):
            if r != col:
                f = c[r][col] / c[col][col]
                c[r] = [a - f * x for a, x in zip(c[r], c[col])]
                b[r] = b[r] - f * b[col]
    return [b[i] / c[i][i] for i in range(3)]


def test_colley_vs_fraction_gauss_sweep():
    rng = random.Random(139)
    for _ in range(30):
        counts = [tuple(rng.randrange(0, 6) for _ in range(3))
                  for _ in range(rng.randrange(0, 25))]
        out = colley_rank_int(counts, ["a", "b", "c"])
        exact = _frac_colley(counts)
        for r, e in zip(out["rating_ppm"], exact):
            scaled = 1_000_000 * e
            assert 0 < e < 1
            assert r == scaled.numerator // scaled.denominator
        # bias-free mean: sum of exact ratings == 3/2
        assert sum(exact) == Fraction(3, 2)


def test_colley_no_games_and_dominance():
    out = colley_rank_int([], ["a", "b", "c"])
    assert (out["rating_ppm"] == 500_000).all()
    # ties are no game
    out = colley_rank_int([(2, 2, 2)] * 5, ["a", "b", "c"])
    assert (out["games"] == 0).all()
    assert (out["rating_ppm"] == 500_000).all()
    # a beats everyone every hour
    out = colley_rank_int([(9, 1, 2)] * 8, ["a", "b", "c"])
    r = dict(zip(out["event_type"], out["rating_ppm"]))
    assert r["a"] > max(r["b"], r["c"])
