"""Chained price index, Lorenz deciles, RMST survival summary."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def test_chain_index_links_and_fold(ray_session, tmp_path):
    import __ray_entry__ as entrymod

    base = pd.Timestamp("2024-01-01")  # span 40 days → quarter = day//10
    rows = [
        # part 1 in every quarter: links 1.2e6, 1e6, 1.25e6
        (1, base, 2, 10.00),
        (1, base + pd.Timedelta(days=10), 2, 12.00),
        (1, base + pd.Timedelta(days=20), 2, 12.00),
        (1, base + pd.Timedelta(days=30), 4, 30.00),
        # part 2 only in q0 and q2 — never in CONSECUTIVE quarters, so
        # it joins no link
        (2, base, 1, 50.00),
        (2, base + pd.Timedelta(days=20), 1, 60.00),
        # pin the span: an event on the last day
        (1, base + pd.Timedelta(days=39), 1, 1.00),
    ]
    df = pd.DataFrame(rows, columns=["l_partkey", "l_shipdate",
                                     "l_quantity", "l_extendedprice"])
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(tmp_path, "lineitem.parquet"))
    out = entrymod._q_chain_index(str(tmp_path)).set_index("link")
    # q3 for part 1 now has q=5, s=3100c → link3 = 1e6·(3100·2//5)//1200
    v1_3 = 3100 * 2 // 5
    link3 = 1_000_000 * v1_3 // 1200
    assert out.loc[1, "link_ppm"] == 1_200_000
    assert out.loc[2, "link_ppm"] == 1_000_000
    assert out.loc[3, "link_ppm"] == link3
    assert (out["n_parts"] == 1).all()
    assert out.loc[1, "chain_ppm"] == 1_200_000
    assert out.loc[2, "chain_ppm"] == 1_200_000
    assert out.loc[3, "chain_ppm"] == 1_200_000 * link3 // 1_000_000


def test_lorenz_deciles_shares(ray_session, tmp_path):
    import __ray_entry__ as entrymod

    # customer k spends k·$100 → decile k holds exactly customer k
    df = pd.DataFrame({
        "o_custkey": list(range(1, 11)),
        "o_totalprice": [k * 100.0 for k in range(1, 11)]})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(tmp_path, "orders.parquet"))
    out = (entrymod._q_lorenz_deciles(str(tmp_path))
           .set_index("decile"))
    total = sum(k * 10000 for k in range(1, 11))
    cum = 0
    for k in range(1, 11):
        cum += k * 10000
        assert out.loc[k, "revenue_cents"] == k * 10000
        assert out.loc[k, "share_ppm"] == 1_000_000 * k * 10000 // total
        assert out.loc[k, "cum_share_ppm"] == 1_000_000 * cum // total
    assert out.loc[10, "cum_share_ppm"] == 1_000_000


def test_rmst_summary_area_and_median(ray_session, tmp_path):
    import __ray_entry__ as entrymod

    # the Kaplan–Meier hand corpus: curve 750000 (days 0-1), 500000
    # (day 2), then 250000 carried days 3..29 (27 days) → rmst =
    # 8.75e6 ppm·days, median day 3 (first below half), end 250000
    base = pd.Timestamp("2024-01-01")
    rows = [("u1", base), ("u1", base + pd.Timedelta(days=2)),
            ("u2", base), ("u2", base + pd.Timedelta(days=3)),
            ("u3", base), ("u3", base + pd.Timedelta(days=10, hours=12)),
            ("u4", base + pd.Timedelta(days=5))]
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(tmp_path, "events.parquet"))
    out = entrymod._q_rmst_summary(str(tmp_path)).iloc[0]
    assert out["rmst_ppm_days"] == 2 * 750_000 + 500_000 + 27 * 250_000
    assert out["median_day"] == 3
    assert out["s_end_ppm"] == 250_000
