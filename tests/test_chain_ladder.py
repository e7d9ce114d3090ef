"""Chain-ladder run-off triangle projection."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _day(d: int) -> pd.Timestamp:
    return pd.Timestamp("1970-01-01") + pd.Timedelta(days=d)


class TestChainLadder:
    def test_hand_triangle(self, ray_session, tmp_path):
        """Cohorts 0/1/2, CAL=2. Cumulatives: A 100/150/180,
        B 200/300, C 400. Factors: f0 = 450/300 = 1.5, f1 =
        180/150 = 1.2, f2 defaults to 1. Ultimates: 180 (mature),
        300*1.2 = 360 (ibnr 60), 400*1.5*1.2 = 720 (ibnr 320).
        A ship-before-order row and a 130-day delay row are planted
        and must be filtered BEFORE bucketing."""
        import __ray_entry__ as entrymod

        orders = pd.DataFrame(
            [(1, _day(0)), (2, _day(30)), (3, _day(60))],
            columns=["o_orderkey", "o_orderdate"])
        li = pd.DataFrame([
            (1, _day(0), 1.00), (1, _day(30), 0.50),
            (1, _day(60), 0.30),
            (1, _day(-5), 99.0),      # negative delay -> filtered
            (1, _day(130), 88.0),     # 130-day delay -> filtered
            (2, _day(30), 2.00), (2, _day(60), 1.00),
            (3, _day(60), 4.00),
        ], columns=["l_orderkey", "l_shipdate", "l_extendedprice"])
        pq.write_table(pa.Table.from_pandas(orders,
                                            preserve_index=False),
                       os.path.join(tmp_path, "orders.parquet"))
        pq.write_table(pa.Table.from_pandas(li, preserve_index=False),
                       os.path.join(tmp_path, "lineitem.parquet"))
        out = (entrymod._q_chain_ladder(str(tmp_path))
               .set_index("cohort_month"))
        assert sorted(out.index) == [0, 1, 2]
        a = out.loc[0]
        assert (a["age"], a["latest_cum_cents"], a["ultimate_cents"],
                a["ibnr_cents"]) == (2, 180, 180, 0)
        b = out.loc[1]
        assert (b["age"], b["latest_cum_cents"], b["ultimate_cents"],
                b["ibnr_cents"]) == (1, 300, 360, 60)
        c = out.loc[2]
        assert (c["age"], c["latest_cum_cents"], c["ultimate_cents"],
                c["ibnr_cents"]) == (0, 400, 720, 320)

    def test_trunc_chain_discipline(self, ray_session, tmp_path):
        """A factor that doesn't divide evenly must truncate at EACH
        chain step (the ``markov_kstep_int`` discipline), not once at the end:
        latest 100, f0 = 350/300 -> 100*1166666//1e6 = 116 (not
        116.67), then f1 = 1 -> ultimate 116."""
        import __ray_entry__ as entrymod

        orders = pd.DataFrame(
            [(1, _day(0)), (2, _day(30))],
            columns=["o_orderkey", "o_orderdate"])
        li = pd.DataFrame([
            (1, _day(0), 3.00), (1, _day(30), 0.50),
            (2, _day(30), 1.00),
        ], columns=["l_orderkey", "l_shipdate", "l_extendedprice"])
        pq.write_table(pa.Table.from_pandas(orders,
                                            preserve_index=False),
                       os.path.join(tmp_path, "orders.parquet"))
        pq.write_table(pa.Table.from_pandas(li, preserve_index=False),
                       os.path.join(tmp_path, "lineitem.parquet"))
        out = (entrymod._q_chain_ladder(str(tmp_path))
               .set_index("cohort_month"))
        # CAL = 1: cohort 0 age 1 (cum 350), cohort 1 age 0 (cum 100)
        # f0 over i<=0: 350/300 -> 1166666 ppm
        c = out.loc[1]
        assert c["latest_cum_cents"] == 100
        assert c["ultimate_cents"] == 116
        assert c["ibnr_cents"] == 16
