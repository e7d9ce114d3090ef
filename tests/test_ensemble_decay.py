"""2-of-3 anomaly consensus."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


class TestAnomalyEnsemble:
    def test_short_history_spike_gets_two_votes(self, ray_session,
                                                tmp_path):
        """Flat 3/hour for 72 hours with a 50 burst in the last hour:
        global 3-sigma and XmR both vote, but the spike's OWN
        hour-of-day peer group has only m=3 members and a lone spike
        needs m > 10 to beat the variance it itself inflates (the
        (m-1)^2 > 9(m-1) algebra) — so the hod rule abstains and the
        alert fires at exactly votes=2 with (1,1,0)."""
        import __ray_entry__ as entrymod

        base = pd.Timestamp("2024-03-01")
        rows = []
        for h in range(72):
            n = 50 if h == 71 else 3
            for i in range(n):
                rows.append((base + pd.Timedelta(hours=h, seconds=i),
                             "t"))
        df = pd.DataFrame(rows, columns=["ts", "event_type"])
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       os.path.join(tmp_path, "events.parquet"))
        out = entrymod._q_anomaly_ensemble(str(tmp_path))
        assert len(out) == 1
        r = out.iloc[0]
        assert r["c"] == 50
        assert (r["vote_global"], r["vote_xmr"], r["vote_hod"]) \
            == (1, 1, 0)
        assert r["votes"] == 2

