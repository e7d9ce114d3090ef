"""Kendall concordance (joint-histogram pair counting), interval
max-concurrency sweep, and count-min sketch contracts."""

from __future__ import annotations

import itertools

import pandas as pd
import pyarrow as pa


def _brute_kendall(xs, ys):
    """Reference O(n²) pair scan: (C, D, Tx, Ty, Txy)."""
    c = d = tx = ty = txy = 0
    for (x1, y1), (x2, y2) in itertools.combinations(zip(xs, ys), 2):
        if x1 == x2 and y1 == y2:
            tx += 1
            ty += 1
            txy += 1
        elif x1 == x2:
            tx += 1
        elif y1 == y2:
            ty += 1
        elif (x1 - x2) * (y1 - y2) > 0:
            c += 1
        else:
            d += 1
    return c, d, tx, ty, txy


def _run_kendall(ray_session, keys, xs, ys):
    import ray.data

    from documentai_ray.extras import grouped_kendall_int

    t = pa.table({"k": pa.array(keys, pa.string()),
                  "x": pa.array(xs, pa.int64()),
                  "y": pa.array(ys, pa.int64())})
    return grouped_kendall_int(ray.data.from_arrow(t), key_col="k",
                               x_col="x", y_col="y").set_index("k")


def test_kendall_matches_brute_force_with_ties(ray_session):
    xs = [1, 1, 2, 2, 3, 3, 3, 5, 5, 4]
    ys = [2, 2, 1, 3, 3, 3, 7, 7, 1, 4]
    out = _run_kendall(ray_session, ["g"] * len(xs), xs, ys).loc["g"]
    c, d, tx, ty, txy = _brute_kendall(xs, ys)
    assert (out["concordant"], out["discordant"]) == (c, d)
    assert (out["tied_x"], out["tied_y"], out["tied_xy"]) == (tx, ty, txy)
    n = len(xs)
    assert c + d + tx + ty - txy == n * (n - 1) // 2


def test_kendall_perfect_and_reversed(ray_session):
    xs = [1, 2, 3, 4, 5]
    out = _run_kendall(ray_session, ["up"] * 5 + ["dn"] * 5, xs + xs,
                       [10, 20, 30, 40, 50] + [50, 40, 30, 20, 10])
    assert out.loc["up", "tau_a_ppm"] == 1_000_000
    assert out.loc["dn", "tau_a_ppm"] == -1_000_000
    # trunc (not floor) on the negative side: C=1, D=2 over 3 pairs →
    # −10⁶/3 truncates to −333333 (floor would give −333334)
    out2 = _run_kendall(ray_session, ["m"] * 3, [1, 2, 3], [30, 10, 20])
    assert out2.loc["m", "tau_a_ppm"] == -333_333


def test_kendall_singleton_group_raises(ray_session):
    import pytest

    with pytest.raises(Exception):
        _run_kendall(ray_session, ["a"], [1], [1])


def test_max_concurrency_nested_touching_zero(ray_session):
    import ray.data

    from documentai_ray.stages.windows import max_concurrency

    t = pa.table({
        "u": pa.array(["nest"] * 3 + ["touch"] * 2 + ["zero"], pa.string()),
        "s": pa.array([0, 1, 2, 0, 10, 5], pa.int64()),
        "e": pa.array([100, 50, 20, 10, 20, 5], pa.int64()),
    })
    out = (max_concurrency(ray.data.from_arrow(t), key_col="u",
                           start_col="s", end_col="e")
           .to_pandas().set_index("u"))
    assert out.loc["nest", "peak"] == 3          # fully nested stack
    assert out.loc["touch", "peak"] == 1         # [0,10) + [10,20) touch
    assert out.loc["zero", "peak"] == 0          # zero-length interval
    assert out.loc["nest", "n_intervals"] == 3


def test_max_concurrency_partial_overlap(ray_session):
    import ray.data

    from documentai_ray.stages.windows import max_concurrency

    # [0,10) [5,15) [12,20): depth 2 twice, never 3
    t = pa.table({"u": pa.array(["a"] * 3, pa.string()),
                  "s": pa.array([0, 5, 12], pa.int64()),
                  "e": pa.array([10, 15, 20], pa.int64())})
    out = (max_concurrency(ray.data.from_arrow(t), key_col="u",
                           start_col="s", end_col="e")
           .to_pandas().set_index("u"))
    assert out.loc["a", "peak"] == 2


def test_countmin_cols_deterministic_and_bounded():
    from documentai_ray.stages.sketches import countmin_cols

    cols = countmin_cols("hello", 4, 256)
    assert cols == countmin_cols("hello", 4, 256)
    assert len(cols) == 4 and all(0 <= c < 256 for c in cols)
    assert countmin_cols("hello", 4, 256) != countmin_cols("world", 4, 256)


def test_countmin_estimate_dominates_truth_and_merges(ray_session):
    import collections

    import ray.data

    from documentai_ray.stages.sketches import (countmin_cells,
                                                countmin_estimate)

    texts = ["a b c a", "a d e f g", "b b h", "a i j k"]
    truth = collections.Counter()
    for t in texts:
        truth.update(t.split(" "))
    one = countmin_cells(
        ray.data.from_arrow(pa.table({"text": pa.array(texts)})), d=4, w=8)
    # merge invariance: two single-row batches fold to the same cells
    two = countmin_cells(
        ray.data.from_items([{"text": t} for t in texts])
        .repartition(4), d=4, w=8)
    key = lambda df: (df.sort_values(["row", "col"])  # noqa: E731
                      .reset_index(drop=True))
    pd.testing.assert_frame_equal(key(one), key(two))
    toks = sorted(truth)
    est = countmin_estimate(one, toks, d=4, w=8)
    assert all(e >= truth[t] for e, t in zip(est, toks))
    # 11 distinct tokens in 8 columns per row: some estimate must be
    # inflated by a collision at this width
    assert any(e > truth[t] for e, t in zip(est, toks))
