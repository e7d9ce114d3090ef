"""Bullwhip + necklace-census kernels."""
import random

import pytest

from documentai_ray.extras import bullwhip_int, necklace_count_int

GRID = [(1, 5), (2, 5), (4, 5), (2, 10)]


def test_bullwhip_linear_demand_reads_one():
    # linear trend: MA difference constant -> o = d + const ->
    # variances agree bit for bit -> exactly 1e6 on every cell
    out = bullwhip_int([10 + 3 * t for t in range(30)], GRID)
    assert (out["bullwhip_ppm"] == 1_000_000).all()
    assert (out["var_d_x"] == out["var_o_x"]).all()
    # constant demand: the stated 0/0 -> 1e6 convention
    out = bullwhip_int([7] * 30, GRID)
    assert (out["bullwhip_ppm"] == 1_000_000).all()
    assert (out["var_d_x"] == 0).all()


def test_bullwhip_step_amplifies_and_lead_monotone():
    step = [10] * 15 + [40] * 15
    out = bullwhip_int(step, [(1, 5), (2, 5), (4, 5)])
    assert (out["bullwhip_ppm"] > 1_000_000).all()
    bw = list(out["bullwhip_ppm"])
    assert bw[0] < bw[1] < bw[2]          # more lead, more whip


def test_bullwhip_exact_replay():
    rng = random.Random(163)
    for _ in range(15):
        d = [rng.randrange(0, 60) for _ in range(30)]
        out = bullwhip_int(d, GRID)
        for (ell, p), (_, row) in zip(GRID, out.iterrows()):
            s = [sum(d[t - p + 1:t + 1]) for t in range(p - 1, 30)]
            oo = [p * d[t] + ell * (s[t - p + 1] - s[t - p])
                  for t in range(p, 30)]
            dd = [p * d[t] for t in range(p, 30)]
            m = 30 - p
            vd = m * sum(x * x for x in dd) - sum(dd) ** 2
            vo = m * sum(x * x for x in oo) - sum(oo) ** 2
            assert row["var_d_x"] == vd and row["var_o_x"] == vo
            if vd:
                assert row["bullwhip_ppm"] == 1_000_000 * vo // vd
    with pytest.raises(ValueError):
        bullwhip_int([1, 2, 3], [(1, 5)])


def test_necklace_burnside_divisibility_and_totals():
    def phi(m):
        out, x, f = m, m, 2
        while f * f <= x:
            if x % f == 0:
                while x % f == 0:
                    x //= f
                out -= out // f
            f += 1
        if x > 1:
            out -= out // x
        return out

    known = {1: 2, 2: 3, 3: 4, 4: 6, 5: 8, 6: 14, 7: 20, 8: 36}
    for k in range(1, 17):
        tot = sum(phi(d) * 2 ** (k // d)
                  for d in range(1, k + 1) if k % d == 0)
        assert tot % k == 0               # Burnside divisibility
        if k in known:
            assert tot // k == known[k]


def test_necklace_canonicalization_and_streams():
    # constant stream: one raw window, one necklace
    out = necklace_count_int([1] * 20)
    assert int(out["distinct_raw"].iloc[0]) == 1
    assert int(out["distinct_necklaces"].iloc[0]) == 1
    assert int(out["necklaces_possible"].iloc[0]) == 20
    # alternating period-2 stream under an ODD window: the two raw
    # 7-grams have different bit WEIGHT (3 vs 4 ones), so they are
    # NOT rotations — two distinct necklaces (weight is a rotation
    # invariant; the even-window intuition does not transfer)
    out = necklace_count_int([t % 2 for t in range(20)])
    assert int(out["distinct_raw"].iloc[0]) == 2
    assert int(out["distinct_necklaces"].iloc[0]) == 2
    # with an EVEN window the two alternating windows ARE rotations
    out = necklace_count_int([t % 2 for t in range(20)], k=6)
    assert int(out["distinct_raw"].iloc[0]) == 2
    assert int(out["distinct_necklaces"].iloc[0]) == 1
    # rotation invariance: rotating the whole stream cannot create
    # new necklaces (windows are a subset of the same cyclic set)
    rng = random.Random(167)
    bits = [rng.randrange(2) for _ in range(30)]
    a = necklace_count_int(bits)
    b = necklace_count_int(bits[3:] + bits[:3])
    # same cyclic source; counts may differ by edge windows but
    # necklaces of the rotated stream stay within possible bounds
    assert int(b["distinct_necklaces"].iloc[0]) <= 20
    assert int(a["coverage_ppm"].iloc[0]) == 1_000_000 * int(
        a["distinct_necklaces"].iloc[0]) // 20
    with pytest.raises(ValueError):
        necklace_count_int([1, 0, 1])
