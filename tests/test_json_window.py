"""Per-key running window aggregates and integer z-score anomaly flags."""

from __future__ import annotations

import pyarrow as pa


def test_running_per_key(ray_session):
    import ray.data

    from documentai_ray.stages.windows import running_per_key

    t = pa.table({
        "k": pa.array(["a", "a", "a", "b"], pa.string()),
        "o": pa.array([3, 1, 2, 1], pa.int64()),
        "v": pa.array([10, 1, 100, 5], pa.int64()),
    })
    out = running_per_key(ray.data.from_arrow(t), key_col="k",
                          order_cols=["o"], cum_col="v",
                          num_partitions=2).to_pandas()
    out = out.sort_values(["k", "o"]).reset_index(drop=True)
    assert list(out["seq"]) == [1, 2, 3, 1]
    assert list(out["running"]) == [1, 101, 111, 5]


def test_integer_zscore_matches_float(ray_session):
    import numpy as np
    import ray.data

    from documentai_ray.stages.windows import flag_count_anomalies

    rng = np.random.RandomState(3)
    rows = []
    for k in ("a", "b"):
        for b in range(200):
            for _ in range(int(rng.poisson(20)) + (400 if b == 7 else 0)):
                rows.append({"k": k, "b": b})
    out = (flag_count_anomalies(ray.data.from_items(rows).repartition(6),
                                key_col="k", bucket_col="b")
           .to_pandas())
    for k, g in out.groupby("k"):
        x = g["x"].to_numpy(np.float64)
        mu, sd = x.mean(), x.std()            # population std, like nQ-S²
        float_flags = (x > mu) & (np.abs(x - mu) > 3 * sd)
        assert (g["is_spike"].to_numpy() == float_flags).all()
        assert g.loc[g["b"] == 7, "is_spike"].all()   # the planted spike
