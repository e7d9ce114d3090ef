"""Newsvendor critical fractile."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


class TestNewsvendorStock:
    def test_fractile_beats_median(self, ray_session, tmp_path):
        """Demands 4, 8, 10, 10 with cu=3, co=1: the 3/4 fractile
        picks stock 10 (cost 8: two short-free, 6+2 holding) while
        the naive median picks 8 (cost 16: 4 holding + 12 lost
        margin) — the optimization halves the cost."""
        import __ray_entry__ as entrymod

        rows = [(4.0, "A"), (8.0, "A"), (10.0, "A"), (10.0, "A")]
        df = pd.DataFrame(rows, columns=["l_quantity", "l_returnflag"])
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       os.path.join(tmp_path, "lineitem.parquet"))
        out = entrymod._q_newsvendor_stock(str(tmp_path)).iloc[0]
        assert out["n"] == 4
        assert (out["stock_opt"], out["cost_opt"]) == (10, 8)
        assert (out["stock_median"], out["cost_median"]) == (8, 16)
        assert out["cost_opt"] <= out["cost_median"]

