"""Grouped quantile, grouped count-distinct, interval (range) join."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def test_grouped_quantile_int(ray_session):
    import ray.data

    from documentai_ray.stages.aggregates import grouped_quantile_int

    t = pa.table({
        "k": pa.array(["a"] * 10 + ["b"] * 4, pa.string()),
        "v": pa.array(list(range(1, 11)) + [5, 5, 7, 100], pa.int64()),
    })
    out = grouped_quantile_int(ray.data.from_arrow(t), key_cols=["k"],
                               val_col="v", q=0.95, out_col="p95").to_pandas()
    out = out.set_index("k")["p95"]
    # a: ceil(0.95*10)=10th of 1..10 -> 10 ; b: ceil(0.95*4)=4th -> 100
    assert out.loc["a"] == 10
    assert out.loc["b"] == 100


def test_grouped_count_distinct(ray_session):
    import ray.data

    from documentai_ray.stages.aggregates import grouped_count_distinct

    t = pa.table({
        "k": pa.array(["x", "x", "x", "y", "y"], pa.string()),
        "u": pa.array([1, 1, 2, 7, 7], pa.int64()),
    })
    out = grouped_count_distinct(ray.data.from_arrow(t), key_col="k",
                                 val_col="u").to_pandas().set_index("k")
    assert out.loc["x", "n_distinct"] == 2
    assert out.loc["y", "n_distinct"] == 1


def test_interval_join_overlapping(ray_session):
    import ray.data

    from documentai_ray.stages.joins import interval_join

    # intervals: [0,60) [45,105) [90,150) — ts=50 is in both 0 and 1
    iv = pd.DataFrame({"interval_id": [0, 1, 2],
                       "start": [0, 45, 90],
                       "end": [60, 105, 150],
                       "rate": [10, 20, 30]})
    t = pa.table({"event_id": pa.array([1, 2, 3], pa.int64()),
                  "ts": pa.array([50, 95, 149], pa.int64())})
    out = interval_join(ray.data.from_arrow(t), iv, ts_col="ts",
                        carry_cols=["rate"]).to_pandas()
    got = sorted(zip(out["event_id"], out["interval_id"], out["rate"]))
    assert got == [(1, 0, 10), (1, 1, 20), (2, 1, 20), (2, 2, 30), (3, 2, 30)]


def test_interval_join_timestamps(ray_session):
    import ray.data

    from documentai_ray.stages.joins import interval_join

    base = pd.Timestamp("2024-01-01")
    iv = pd.DataFrame({
        "interval_id": [0, 1],
        "start": [base, base + pd.Timedelta(minutes=45)],
        "end": [base + pd.Timedelta(minutes=60),
                base + pd.Timedelta(minutes=105)],
    })
    t = pa.table({"event_id": pa.array([1], pa.int64()),
                  "ts": pa.array([base + pd.Timedelta(minutes=50)],
                                 pa.timestamp("us"))})
    out = interval_join(ray.data.from_arrow(t), iv, ts_col="ts").to_pandas()
    assert sorted(out["interval_id"]) == [0, 1]


def test_hdr_sketch_error_contract(ray_session):
    import numpy as np
    import ray.data

    from documentai_ray.stages.aggregates import grouped_quantile_sketch

    rng_vals = (np.arange(1, 20001) * 7919) % 1000003 + 1  # deterministic
    rows = [{"k": "a", "v": int(v)} for v in rng_vals]
    ds = ray.data.from_items(rows).repartition(8)
    out = grouped_quantile_sketch(ds, key_cols=["k"], val_col="v").to_pandas()
    import math
    for _, r in out.iterrows():
        q = r["q_ppm"] / 1e6
        exact = np.sort(rng_vals)[math.ceil(q * len(rng_vals)) - 1]
        # sketch reports a bucket upper bound: est >= exact, within 1/16
        assert exact <= r["est"] <= exact * (1 + 1 / 16) + 1, (q, exact, r["est"])


def test_hdr_sketch_parallelism_invariant(ray_session):
    import ray.data

    from documentai_ray.stages.aggregates import grouped_quantile_sketch

    rows = [{"k": chr(97 + i % 3), "v": (i * 37) % 5000 + 1} for i in range(3000)]
    outs = []
    for p in (2, 16):
        ds = ray.data.from_items(rows).repartition(p)
        df = grouped_quantile_sketch(ds, key_cols=["k"], val_col="v").to_pandas()
        outs.append(df.sort_values(["k", "q_ppm"]).reset_index(drop=True))
    assert outs[0].equals(outs[1])


def test_profile_columns_mixed_types_and_nulls(ray_session):
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.aggregates import profile_columns

    t = pa.table({
        "s": pa.array(["b", "a", None, "c", "a"], pa.string()),
        "n": pa.array([10, 2, 30, None, 2], pa.int64()),
    })
    out = profile_columns(ray.data.from_arrow(t).repartition(3),
                          ["s", "n"]).to_pandas().set_index("column")
    assert out.loc["s", "n_null"] == 1 and out.loc["s", "n_distinct"] == 3
    assert (out.loc["s", "min_v"], out.loc["s", "max_v"]) == ("a", "c")
    # numeric min/max compared in value domain, not lexicographically
    assert (out.loc["n", "min_v"], out.loc["n", "max_v"]) == ("2", "30")
    assert out.loc["n", "n_null"] == 1 and out.loc["n", "n_distinct"] == 3
    assert (out["n_rows"] == 5).all()


def test_zorder_locality_property():
    import numpy as np

    from documentai_ray.stages.aggregates import zorder_key

    # interleave round-trips: de-interleave recovers both inputs
    x = np.arange(0, 1000, 7)
    y = (x * 13) % 1024
    z = zorder_key(x, y)
    xr = np.zeros_like(x)
    yr = np.zeros_like(y)
    for i in range(16):
        xr |= ((z >> (2 * i)) & 1) << i
        yr |= ((z >> (2 * i + 1)) & 1) << i
    assert (xr == x).all() and (yr == y).all()
    # locality: points in the same 4x4 cell share the key's high bits
    z1 = zorder_key(np.array([8]), np.array([8]))[0]
    z2 = zorder_key(np.array([9]), np.array([10]))[0]
    z3 = zorder_key(np.array([8]), np.array([1000]))[0]
    assert abs(z1 - z2) < abs(z1 - z3)


class TestParetoFrontier:
    def _brute(self, rows):
        # maximize a, minimize b
        out = []
        for p in rows:
            dom = any((q["a"] >= p["a"] and q["b"] <= p["b"]) and
                      (q["a"] > p["a"] or q["b"] < p["b"]) for q in rows)
            if not dom:
                out.append((p["i"]))
        return set(out)

    def test_equals_bruteforce_with_ties_and_duplicates(self, ray_session):
        from documentai_ray.stages.aggregates import pareto_frontier
        rows = [
            {"i": 0, "a": 10, "b": 5},
            {"i": 1, "a": 10, "b": 5},   # exact duplicate: BOTH survive
            {"i": 2, "a": 10, "b": 6},   # dominated by 0/1 (same a, worse b)
            {"i": 3, "a": 12, "b": 9},
            {"i": 4, "a": 5, "b": 1},
            {"i": 5, "a": 4, "b": 1},    # dominated by 4
            {"i": 6, "a": 12, "b": 9},   # duplicate of 3
            {"i": 7, "a": 3, "b": 0},
        ]
        ds = ray_session.data.from_items(rows)
        got = set(pareto_frontier(
            ds, maximize=["a"], minimize=["b"]).to_pandas()["i"])
        assert got == self._brute(rows)
        assert {0, 1, 3, 6} <= got   # both members of each tie pair

    def test_blockwise_composition_matches_single_block(self, ray_session):
        # many blocks (batch_size=8) must give the same frontier as one
        import numpy as np
        from documentai_ray.stages.aggregates import pareto_frontier
        rng = np.random.default_rng(7)
        rows = [{"i": i, "a": int(x), "b": int(y)} for i, (x, y) in
                enumerate(zip(rng.integers(0, 50, 300),
                              rng.integers(0, 50, 300)))]
        ds = ray_session.data.from_items(rows).repartition(16)
        got = set(pareto_frontier(
            ds, maximize=["a"], minimize=["b"]).to_pandas()["i"])
        assert got == self._brute(rows)


class TestGroupedMode:
    def test_mode_with_ties_and_cross_block_counts(self, ray_session):
        from documentai_ray.stages.aggregates import grouped_mode
        # key 1: 'b' x3 beats 'a' x2; key 2: tie 2-2 -> smallest ('x');
        # key 3: singleton
        rows = ([{"k": 1, "v": "b"}] * 3 + [{"k": 1, "v": "a"}] * 2 +
                [{"k": 2, "v": "y"}, {"k": 2, "v": "x"},
                 {"k": 2, "v": "x"}, {"k": 2, "v": "y"}] +
                [{"k": 3, "v": "z"}])
        # repartition so per-key counts MUST merge across blocks
        ds = ray_session.data.from_items(rows).repartition(5)
        out = grouped_mode(ds, key_col="k", val_col="v",
                           num_partitions=3).to_pandas()
        got = {r.k: (r.mode, r.n) for r in out.itertuples()}
        assert got == {1: ("b", 3), 2: ("x", 2), 3: ("z", 1)}


class TestGroupedPercentRank:
    def test_min_rank_ties_and_single_row_group(self, ray_session):
        from documentai_ray.stages.aggregates import grouped_percent_rank
        rows = [
            # key A: vals 10,10,20,30 -> ranks 1,1,3,4; n=4
            {"k": "A", "i": 0, "v": 10}, {"k": "A", "i": 1, "v": 10},
            {"k": "A", "i": 2, "v": 20}, {"k": "A", "i": 3, "v": 30},
            # key B: single row -> 0
            {"k": "B", "i": 4, "v": 99},
        ]
        ds = ray_session.data.from_items(rows).repartition(3)
        out = grouped_percent_rank(ds, key_col="k",
                                   val_col="v").to_pandas()
        got = dict(zip(out["i"], out["pct_ppm"]))
        assert got == {0: 0, 1: 0,
                       2: 2 * 1_000_000 // 3, 3: 1_000_000, 4: 0}


class TestKsStatistic:
    def test_identical_zero_disjoint_max(self, ray_session):
        from documentai_ray.stages.aggregates import ks_statistic_int
        mk = lambda vals: ray_session.data.from_items(
            [{"v": x} for x in vals]).repartition(3)
        same = [1, 2, 2, 3, 5, 8]
        r = ks_statistic_int(mk(same), mk(same),
                             val_col="v").to_pandas().iloc[0]
        assert r["d_scaled"] == 0
        # fully separated distributions: D = 1 -> d_scaled = n_a * n_b
        r2 = ks_statistic_int(mk([1, 2, 3]), mk([10, 11, 12, 13]),
                              val_col="v").to_pandas().iloc[0]
        assert r2["d_scaled"] == 3 * 4

    def test_known_small_case(self, ray_session):
        from documentai_ray.stages.aggregates import ks_statistic_int
        # a = {1,2}, b = {2,3}: CDFs at v=1: 1/2 vs 0 -> |1*2-0*2| = 2
        a = ray_session.data.from_items([{"v": 1}, {"v": 2}])
        b = ray_session.data.from_items([{"v": 2}, {"v": 3}])
        r = ks_statistic_int(a, b, val_col="v").to_pandas().iloc[0]
        assert (r["n_a"], r["n_b"], r["d_scaled"]) == (2, 2, 2)


class TestGroupedDenseRank:
    def test_no_gaps_after_ties(self, ray_session):
        from documentai_ray.stages.aggregates import grouped_dense_rank
        rows = [{"k": "A", "i": 0, "v": 10}, {"k": "A", "i": 1, "v": 10},
                {"k": "A", "i": 2, "v": 20}, {"k": "A", "i": 3, "v": 30},
                {"k": "B", "i": 4, "v": 7}]
        ds = ray_session.data.from_items(rows).repartition(3)
        out = grouped_dense_rank(ds, key_col="k", val_col="v").to_pandas()
        got = dict(zip(out["i"], out["dense_rank"]))
        # dense: 10->1, 20->2 (not 3), 30->3
        assert got == {0: 1, 1: 1, 2: 2, 3: 3, 4: 1}


def test_target_encode_smoothing_exact(ray_session):
    """Rare category (1 row) shrinks hard toward the prior; frequent
    category stays near its own mean; arithmetic floor-exact."""
    import ray.data

    from documentai_ray.stages.aggregates import target_encode_int

    rows = [{"cat": "big", "t": 100}] * 20 + [{"cat": "rare", "t": 900}]
    out = (target_encode_int(
        ray_session.data.from_items(rows).repartition(4),
        cat_col="cat", target_col="t", m=10)
        .to_pandas())
    # prior = (2000 + 900) // 21 = 138
    # big:  (2000 + 10*138) // 30 = 3380 // 30 = 112
    # rare: (900 + 10*138) // 11 = 2280 // 11 = 207
    got = dict(zip(out["cat"], out["enc"]))
    assert got == {"big": 112, "rare": 207}


def test_target_encode_rejects_negative_target(ray_session):
    import pytest

    from documentai_ray.stages.aggregates import target_encode_int

    ds = ray_session.data.from_items([{"cat": "a", "t": -5}])
    with pytest.raises(ValueError):
        target_encode_int(ds, cat_col="cat", target_col="t")


def test_rank_auc_hand_computed(ray_session):
    """Positives at {3,3,5}, negatives at {1,3}: pairs pos>neg = 4,
    ties = 2 -> u2 = 2*4+2 = 10, auc = 10/12 -> 833_333 ppm."""
    from documentai_ray.stages.aggregates import rank_auc_int

    rows = [{"v": 3, "y": True}, {"v": 3, "y": True},
            {"v": 5, "y": True}, {"v": 1, "y": False},
            {"v": 3, "y": False}]
    out = rank_auc_int(ray_session.data.from_items(rows).repartition(3),
                       score_col="v", label_col="y").to_pandas()
    assert out.iloc[0].to_dict() == {
        "n_pos": 3, "n_neg": 2, "u2": 10, "auc_ppm": 833_333}


def test_rank_auc_perfect_and_inverted(ray_session):
    from documentai_ray.stages.aggregates import rank_auc_int

    rows = [{"v": 10, "y": True}, {"v": 1, "y": False}]
    out = rank_auc_int(ray_session.data.from_items(rows),
                       score_col="v", label_col="y").to_pandas()
    assert int(out["auc_ppm"][0]) == 1_000_000
    rows = [{"v": 1, "y": True}, {"v": 10, "y": False}]
    out = rank_auc_int(ray_session.data.from_items(rows),
                       score_col="v", label_col="y").to_pandas()
    assert int(out["auc_ppm"][0]) == 0


def test_rank_auc_needs_both_classes(ray_session):
    import pytest

    from documentai_ray.stages.aggregates import rank_auc_int

    ds = ray_session.data.from_items([{"v": 1, "y": True}])
    with pytest.raises(ValueError):
        rank_auc_int(ds, score_col="v", label_col="y")


def test_cohens_kappa_hand_computed(ray_session):
    """Classic 2x2: a/a=20, a/b=5, b/a=10, b/b=15, n=50.
    p_o=35/50; e = 25*30 + 25*20 = 1250; kappa =
    (50*35-1250)*1e6 // (2500-1250) = 400_000."""
    from documentai_ray.stages.aggregates import cohens_kappa_int

    rows = ([{"x": "a", "y": "a"}] * 20 + [{"x": "a", "y": "b"}] * 5
            + [{"x": "b", "y": "a"}] * 10 + [{"x": "b", "y": "b"}] * 15)
    out = cohens_kappa_int(
        ray_session.data.from_items(rows).repartition(4),
        col_a="x", col_b="y").to_pandas()
    assert out.iloc[0].to_dict() == {
        "n": 50, "n_agree": 35, "e_sum": 1250, "kappa_ppm": 400_000}


def test_cohens_kappa_negative_truncates_toward_zero(ray_session):
    """Systematic disagreement -> negative kappa; division must
    truncate (SQL semantics), not floor."""
    from documentai_ray.stages.aggregates import cohens_kappa_int

    # x=a <-> y=b and x=b <-> y=a, but unbalanced so truncation bites:
    rows = ([{"x": "a", "y": "b"}] * 3 + [{"x": "b", "y": "a"}] * 2
            + [{"x": "a", "y": "a"}] * 1)
    # cm: (a,b)=3 (b,a)=2 (a,a)=1; n=6, agree=1
    # ra: a=4, b=2 ; cb: a=3, b=3 ; e = 4*3 + 2*3 = 18
    # num = (6*1 - 18)*1e6 = -12e6 ; den = 36-18 = 18
    # trunc(-12e6/18) = -666_666 (floor would give -666_667)
    out = cohens_kappa_int(ray_session.data.from_items(rows),
                           col_a="x", col_b="y").to_pandas()
    assert int(out["kappa_ppm"][0]) == -666_666


def test_cohens_kappa_degenerate_raises(ray_session):
    import pytest

    from documentai_ray.stages.aggregates import cohens_kappa_int

    rows = [{"x": "a", "y": "a"}] * 4
    with pytest.raises(ValueError):
        cohens_kappa_int(ray_session.data.from_items(rows),
                         col_a="x", col_b="y")


def test_gini_gain_perfect_split(ray_session):
    """Split perfectly separates two balanced classes: parent gini 1/2,
    children pure -> gain = 500_000 ppm exactly."""
    from documentai_ray.stages.aggregates import gini_gain_int

    rows = ([{"s": True, "y": "a"}] * 5 + [{"s": False, "y": "b"}] * 5)
    out = gini_gain_int(ray_session.data.from_items(rows).repartition(3),
                        split_col="s", label_col="y").to_pandas()
    assert out.iloc[0].to_dict() == {
        "n": 10, "n_left": 5, "n_right": 5, "gain_ppm": 500_000}


def test_gini_gain_useless_split_is_zero(ray_session):
    """Split independent of the label -> zero gain (Jensen equality)."""
    from documentai_ray.stages.aggregates import gini_gain_int

    rows = ([{"s": True, "y": "a"}] * 2 + [{"s": True, "y": "b"}] * 2
            + [{"s": False, "y": "a"}] * 3 + [{"s": False, "y": "b"}] * 3)
    out = gini_gain_int(ray_session.data.from_items(rows),
                        split_col="s", label_col="y").to_pandas()
    assert int(out["gain_ppm"][0]) == 0


def test_gini_gain_rejects_empty_side(ray_session):
    import pytest

    from documentai_ray.stages.aggregates import gini_gain_int

    rows = [{"s": True, "y": "a"}, {"s": True, "y": "b"}]
    with pytest.raises(ValueError):
        gini_gain_int(ray_session.data.from_items(rows),
                      split_col="s", label_col="y")


def test_quantile_normalize_single_group_is_identity(ray_session):
    from documentai_ray.stages.aggregates import quantile_normalize_int

    rows = [{"k": "a", "v": v} for v in [3, 1, 4, 1, 5, 9, 2, 6]]
    out = quantile_normalize_int(
        ray_session.data.from_items(rows).repartition(3),
        key_col="k", val_col="v").to_pandas()
    assert list(out["norm_v"]) == list(out["v"])


def test_quantile_normalize_maps_scales_together(ray_session):
    """Group a = {1,2,3,4}, group b = {10,20,30,40}: same shape at
    10x scale. b's values map to the global value at the same
    quantile; hand-check b=10 (rank 1/4 in b) -> smallest global w
    with cum_g(w)*4 >= 1*8 i.e. cum_g >= 2 -> w = 2."""
    from documentai_ray.stages.aggregates import quantile_normalize_int

    rows = ([{"k": "a", "v": v} for v in [1, 2, 3, 4]]
            + [{"k": "b", "v": v} for v in [10, 20, 30, 40]])
    out = (quantile_normalize_int(
        ray_session.data.from_items(rows).repartition(2),
        key_col="k", val_col="v").to_pandas()
        .sort_values(["k", "v"]))
    got = list(zip(out["k"], out["v"], out["norm_v"]))
    # global sorted: 1,2,3,4,10,20,30,40 (cum 1..8)
    # a: ranks 1-4 of 4 -> need cum_g >= 2,4,6,8 -> 2,4,20,40
    # b: same quantiles -> identical mapping
    assert got == [("a", 1, 2), ("a", 2, 4), ("a", 3, 20),
                   ("a", 4, 40), ("b", 10, 2), ("b", 20, 4),
                   ("b", 30, 20), ("b", 40, 40)]


def test_crosstable_percentile_inclusive_and_below_min(ray_session):
    """Reference {10,20,20,30}: probe 5 -> 0, 10 -> 1/4, 20 -> 3/4
    (inclusive of ties), 30 and 99 -> 10^6."""
    from documentai_ray.stages.aggregates import crosstable_percentile_int

    ref = ray_session.data.from_items(
        [{"v": x} for x in [10, 20, 20, 30]]).repartition(2)
    probe = ray_session.data.from_items(
        [{"id": i, "v": x} for i, x in
         enumerate([5, 10, 20, 30, 99])])
    out = (crosstable_percentile_int(ref, probe, ref_val_col="v",
                                     probe_val_col="v")
           .to_pandas().sort_values("id"))
    assert list(out["pct_ppm"]) == [0, 250_000, 750_000,
                                    1_000_000, 1_000_000]


def test_crosstable_percentile_empty_reference_raises(ray_session):
    import pytest

    from documentai_ray.stages.aggregates import crosstable_percentile_int

    ref = ray_session.data.from_items([{"v": 1}]).filter(lambda r: False)
    probe = ray_session.data.from_items([{"v": 1}])
    with pytest.raises(Exception):
        crosstable_percentile_int(ref, probe, ref_val_col="v",
                                  probe_val_col="v")


def test_tvd_drift_hand_computed_with_zero_cell(ray_session):
    """Key a = {x:3, y:1}, key b = {y:4}: global = {x:3, y:5}, n_g=8.
    a (n=4): |3*8-3*4| + |1*8-5*4| = 12+12 = 24 -> 24e6//(2*4*8)
    = 375_000. b (n=4): |0*8-3*4| + |4*8-5*4| = 12+12 -> 375_000
    (the x zero-cell term contributes)."""
    from documentai_ray.stages.aggregates import tvd_drift_int

    rows = ([{"k": "a", "c": "x"}] * 3 + [{"k": "a", "c": "y"}]
            + [{"k": "b", "c": "y"}] * 4)
    out = tvd_drift_int(
        ray_session.data.from_items(rows).repartition(3),
        key_col="k", cat_col="c").to_pandas()
    got = {r["k"]: (r["n"], r["tvd_ppm"]) for _, r in out.iterrows()}
    assert got == {"a": (4, 375_000), "b": (4, 375_000)}


def test_tvd_drift_identical_distribution_is_zero(ray_session):
    from documentai_ray.stages.aggregates import tvd_drift_int

    rows = ([{"k": k, "c": c} for k in ("p", "q")
             for c in ("x", "x", "y")])
    out = tvd_drift_int(ray_session.data.from_items(rows),
                        key_col="k", cat_col="c").to_pandas()
    assert list(out["tvd_ppm"]) == [0, 0]


def test_key_size_histogram_exact(ray_session):
    from documentai_ray.stages.aggregates import key_size_histogram

    rows = ([{"k": "a"}] * 3 + [{"k": "b"}] * 3 + [{"k": "c"}] * 1)
    out = key_size_histogram(
        ray_session.data.from_items(rows).repartition(4),
        key_col="k").to_pandas()
    got = dict(zip(out["size"], out["n_keys"]))
    assert got == {3: 2, 1: 1}


def test_gini_concentration_bounds(ray_session):
    from documentai_ray.stages.aggregates import gini_concentration_int

    # perfectly even: gini 0
    rows = [{"k": c} for c in "abcd" for _ in range(5)]
    out = gini_concentration_int(ray_session.data.from_items(rows),
                                 key_col="k").to_pandas()
    assert int(out["gini_ppm"][0]) == 0
    # extreme: sizes 1,1,1,97 -> G = sum((2i-n-1)x_i)/(n*tot)
    # = (-3*1 -1*1 +1*1 +3*97)/(4*100) = 288/400 -> 720_000 ppm
    rows = ([{"k": "a"}] + [{"k": "b"}] + [{"k": "c"}]
            + [{"k": "d"}] * 97)
    out = gini_concentration_int(
        ray_session.data.from_items(rows).repartition(3),
        key_col="k").to_pandas()
    assert int(out["gini_ppm"][0]) == 720_000


def test_classification_prf_hand_computed(ray_session):
    """true/pred: (a,a)x3 (a,b)x1 (b,b)x2 (b,a)x2 (c,a)x1.
    a: tp=3 fp=3 fn=1 -> P=500000 R=750000 F1=2*3e6//10=600000
    b: tp=2 fp=1 fn=2 -> P=666666 R=500000 F1=4e6//7=571428
    c: tp=0 fp=0 fn=1 -> all-zero precision, recall 0, f1 0."""
    from documentai_ray.stages.aggregates import classification_prf_int

    rows = ([{"t": "a", "y": "a"}] * 3 + [{"t": "a", "y": "b"}]
            + [{"t": "b", "y": "b"}] * 2 + [{"t": "b", "y": "a"}] * 2
            + [{"t": "c", "y": "a"}])
    out = classification_prf_int(
        ray_session.data.from_items(rows).repartition(3),
        true_col="t", pred_col="y").to_pandas().set_index("label")
    assert (out.loc["a", ["tp", "fp", "fn", "precision_ppm",
                          "recall_ppm", "f1_ppm"]].tolist()
            == [3, 3, 1, 500_000, 750_000, 600_000])
    assert (out.loc["b", ["tp", "fp", "fn", "precision_ppm",
                          "recall_ppm", "f1_ppm"]].tolist()
            == [2, 1, 2, 666_666, 500_000, 571_428])
    assert (out.loc["c", ["tp", "fp", "fn", "precision_ppm",
                          "recall_ppm", "f1_ppm"]].tolist()
            == [0, 0, 1, 0, 0, 0])


def test_classification_prf_pred_only_label(ray_session):
    """A label that exists only in predictions still gets a row."""
    from documentai_ray.stages.aggregates import classification_prf_int

    rows = [{"t": "x", "y": "ghost"}, {"t": "x", "y": "x"}]
    out = classification_prf_int(ray_session.data.from_items(rows),
                                 true_col="t",
                                 pred_col="y").to_pandas()
    assert set(out["label"]) == {"x", "ghost"}
    g = out.set_index("label").loc["ghost"]
    assert (g["tp"], g["fp"], g["fn"]) == (0, 1, 0)


class TestChi2Independence:
    def _ds(self, ray_session, spec):
        rows = [{"k": k, "c": c} for k, c, n in spec for _ in range(n)]
        return ray_session.data.from_items(rows).repartition(3)

    def test_symmetric_2x2(self, ray_session):
        """9/1 vs 1/10 splits: every cell's (O·N − r·c)² = 6400, so all
        four contribs are 3.2e6 ppm and the total is the true chi2
        12.8."""
        from documentai_ray.extras import chi2_independence_int
        out = chi2_independence_int(
            self._ds(ray_session, [("A", "x", 9), ("A", "y", 1),
                                   ("B", "x", 1), ("B", "y", 9)]),
            key_col="k", cat_col="c").to_pandas()
        assert len(out) == 4
        assert set(out["contrib_ppm"]) == {3_200_000}
        assert out["contrib_ppm"].sum() == 12_800_000

    def test_zero_cell_gets_a_row(self, ray_session):
        """(A, y) never observed: its row exists with o=0 and contrib
        1e6·(r·c)² // (N·r·c) = 500000."""
        from documentai_ray.extras import chi2_independence_int
        out = (chi2_independence_int(
            self._ds(ray_session, [("A", "x", 2), ("B", "x", 1),
                                   ("B", "y", 1)]),
            key_col="k", cat_col="c")
            .to_pandas().set_index(["k", "c"]))
        ay = out.loc[("A", "y")]
        assert (ay["n_obs"], ay["contrib_ppm"]) == (0, 500_000)

    def test_independent_grid_is_zero(self, ray_session):
        """Perfectly proportional grid -> every contrib 0."""
        from documentai_ray.extras import chi2_independence_int
        out = chi2_independence_int(
            self._ds(ray_session, [("A", "x", 2), ("A", "y", 4),
                                   ("B", "x", 1), ("B", "y", 2)]),
            key_col="k", cat_col="c").to_pandas()
        assert set(out["contrib_ppm"]) == {0}
