"""Penney's-game + hash-occupancy kernels."""
import random
from fractions import Fraction

import pytest

from documentai_ray.extras import (_conway_l, hash_occupancy_int,
                                   penney_game_int)


def _absorption_prob_b_first(a: str, b: str) -> Fraction:
    """First-principles P(pattern b appears before a) in a fair
    bit stream: exact Markov absorption over last-two-bits states."""
    # state = last two bits; step appends a bit; check trigram
    states = ["00", "01", "10", "11"]
    # unknowns p[s] = P(b first | current suffix s, no hit yet)
    # p[s] = 1/2 * sum over bit of outcome(s + bit)
    # outcome: trigram == b -> 1; == a -> 0; else p[new state]
    # solve 4x4 linear system in Fractions by elimination
    import itertools
    idx = {s: i for i, s in enumerate(states)}
    aug = [[Fraction(0)] * 5 for _ in range(4)]
    for s in states:
        i = idx[s]
        aug[i][i] += 1
        for bit in "01":
            tri = s + bit
            if tri == b:
                aug[i][4] += Fraction(1, 2)
            elif tri == a:
                pass
            else:
                aug[i][idx[tri[1:]]] -= Fraction(1, 2)
    for col in range(4):
        piv = next(r for r in range(col, 4) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(4):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r],
                                                    aug[col])]
    p = {s: aug[idx[s]][4] for s in states}
    # first two flips are uniform; no pattern completes in 2 flips
    return sum(p[s] for s in states) / 4


def test_conway_formula_vs_absorption_all_pairs():
    pats = [format(i, "03b") for i in range(8)]
    for a in pats:
        for b in pats:
            if a == b:
                continue
            laa, lab = _conway_l(a, a), _conway_l(a, b)
            lbb, lba = _conway_l(b, b), _conway_l(b, a)
            conway = Fraction(laa - lab,
                              (laa - lab) + (lbb - lba))
            assert conway == _absorption_prob_b_first(a, b)


def test_penney_classics_and_nontransitivity():
    out = penney_game_int([0] * 10)
    w = dict(zip(out["pattern"], out["win_ppm"]))
    k = dict(zip(out["pattern"], out["killer"]))
    # the famous table: killer odds 7/8, 3/4, 2/3
    assert k["000"] == "100" and w["000"] == 875_000
    assert k["001"] == "100" and w["001"] == 750_000
    assert k["010"] == "001" and w["010"] == 666_666
    assert k["111"] == "011" and w["111"] == 875_000
    # nontransitivity certificate on every row
    assert (out["beats_half"] == 1).all()
    # all-zero stream: '000' completes on day 2, others never
    f = dict(zip(out["pattern"], out["first_day"]))
    assert f["000"] == 2
    assert all(v == -1 for p, v in f.items() if p != "000")


def test_penney_first_day_scan():
    # parities 1,0,1,1,0,0,1,0 -> trigrams from day 2:
    # 101,011,110,100,001,010
    out = penney_game_int([1, 0, 1, 1, 0, 0, 1, 0])
    f = dict(zip(out["pattern"], out["first_day"]))
    assert f == {"101": 2, "011": 3, "110": 4, "100": 5,
                 "001": 6, "010": 7, "000": -1, "111": -1}


def test_occupancy_birthday_and_uniform():
    # classroom birthday: 23 people, 365 days
    out = hash_occupancy_int([(i, 1) for i in range(23)], 23,
                             d_grid=[365])
    assert int(out["expected_milli"].iloc[0]) == 693  # 253/365
    # perfectly uniform census: U = 4096*2 over D = 4096
    cells = [(b, 2) for b in range(4096)]
    out = hash_occupancy_int(cells, 8192)
    row = out[out["d_buckets"] == 4096].iloc[0]
    assert int(row["colliding_pairs"]) == 4096       # C(2,2) each
    assert int(row["max_load"]) == 2
    # coarse level derives exactly: D = 64 -> 64 buckets x 128
    row = out[out["d_buckets"] == 64].iloc[0]
    assert int(row["colliding_pairs"]) == 64 * 128 * 127 // 2
    assert int(row["max_load"]) == 128


def test_occupancy_extremes_and_replay():
    # all users in one bucket
    out = hash_occupancy_int([(7, 50)], 50, d_grid=[64])
    assert int(out["colliding_pairs"].iloc[0]) == 50 * 49 // 2
    assert int(out["ratio_ppm"].iloc[0]) == 64_000_000
    rng = random.Random(149)
    cells = [(b, rng.randrange(1, 5))
             for b in rng.sample(range(4096), 200)]
    u = sum(m for _, m in cells)
    out = hash_occupancy_int(cells, u)
    for _, row in out.iterrows():
        d = int(row["d_buckets"])
        agg = {}
        for b, m in cells:
            agg[b % d] = agg.get(b % d, 0) + m
        assert row["colliding_pairs"] == sum(
            m * (m - 1) // 2 for m in agg.values())
        assert row["ratio_ppm"] == (1_000_000 * 2 * d
                                    * int(row["colliding_pairs"])
                                    // (u * (u - 1)))
    with pytest.raises(ValueError):
        hash_occupancy_int([(1, 1)], 1)
