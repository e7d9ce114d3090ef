"""Index-of-coincidence + LPT-scheduling kernels."""
import itertools
import random
from fractions import Fraction

import pytest

from documentai_ray.extras import index_coincidence_int, lpt_makespan_int


def _census(text, ks):
    out = []
    for k in ks:
        for i, ch in enumerate(text):
            out.append((k, i % k, ord(ch), 1))
    return out


def test_ic_vigenere_period_detection():
    text = "abc" * 100
    out = index_coincidence_int(_census(text, [1, 2, 3]), [1, 2, 3])
    by = dict(zip(out["k_len"], out["ic_avg_ppm"]))
    # k=1: three letters 100x each: 3*9900/89700 exactly
    assert by[1] == 1_000_000 * 3 * 9900 // 89700 == 331_103
    # at the true period every stream is constant
    assert by[3] == 1_000_000
    assert by[2] < by[3]


def test_ic_edge_cases():
    # single repeated letter: IC = 1e6 at every k
    out = index_coincidence_int(_census("zzzzzzzz", [1, 2]), [1, 2])
    assert (out["ic_avg_ppm"] == 1_000_000).all()
    # uniform alphabet: closed form (N/26 - 1)/(N - 1)
    text = "abcdefghijklmnopqrstuvwxyz" * 4
    out = index_coincidence_int(_census(text, [1]), [1])
    n = 104
    exact = Fraction(26 * 4 * 3, n * (n - 1))
    scaled = 1_000_000 * exact
    assert int(out["ic_avg_ppm"].iloc[0]) == (scaled.numerator
                                              // scaled.denominator)
    # streams with < 2 letters contribute zero (stated)
    out = index_coincidence_int(_census("ab", [5]), [5])
    assert int(out["ic_avg_ppm"].iloc[0]) == 0


def test_lpt_graham_certificate_sweep():
    rng = random.Random(193)
    for _ in range(40):
        jobs = [rng.randrange(1, 100)
                for _ in range(rng.randrange(1, 25))]
        out = lpt_makespan_int(jobs, [2, 3, 5])
        for _, row in out.iterrows():
            # the per-instance Graham bound, exact integers
            assert row["graham_slack"] >= 0
            # makespan >= both lower bounds
            assert row["makespan"] >= row["lb_avg"]
            assert row["makespan"] >= row["lb_max"]


def test_lpt_vs_bruteforce_ratio_bound():
    rng = random.Random(197)
    for _ in range(25):
        n = rng.randrange(2, 8)
        jobs = [rng.randrange(1, 30) for _ in range(n)]
        for m in (2, 3):
            out = lpt_makespan_int(jobs, [m]).iloc[0]
            opt = min(
                max(sum(jobs[i] for i in range(n) if asg[i] == mm)
                    for mm in range(m))
                for asg in itertools.product(range(m), repeat=n))
            # Graham 1969: LPT/OPT <= 4/3 - 1/(3m), cross-mult
            assert (3 * m * int(out["makespan"])
                    <= (4 * m - 1) * opt)


def test_lpt_perfect_balance_and_ties():
    out = lpt_makespan_int([10] * 6, [2, 3]).set_index("m_machines")
    assert int(out.loc[2, "makespan"]) == 30
    assert int(out.loc[3, "makespan"]) == 20
    assert int(out.loc[2, "ratio_vs_lb_ppm"]) == 1_000_000
