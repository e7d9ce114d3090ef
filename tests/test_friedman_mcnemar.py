"""Friedman within-block rank test and McNemar's paired test."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from documentai_ray.extras import friedman_int


class TestFriedmanInt:
    def test_borderline_significant(self):
        """Three users all ranking A > B > C: R' = (18, 12, 6),
        S = 504, chi2 = 6.000 exactly — and the cross-multiplied
        micro comparison 216,000,000 > 215,692,740 (= 5991465·36)
        catches a significance the milli-floored statistic alone
        would blur (6000 vs the 5991 boundary)."""
        chi2, sig = friedman_int({"A": 18, "B": 12, "C": 6}, 3)
        assert chi2 == 6000
        assert sig

    def test_all_tied_reads_zero(self):
        """Every block fully tied: R'_j = n·(k+1), S hits the null
        value exactly, chi2 = 0."""
        chi2, sig = friedman_int({"A": 6, "B": 6}, 2)
        assert (chi2, sig) == (0, False)

    def test_invariant_asserts(self):
        import pytest

        with pytest.raises(AssertionError):
            friedman_int({"A": 18, "B": 12, "C": 7}, 3)

    def test_query_hand_corpus(self, ray_session, tmp_path):
        """Three users with consistent per-type preference
        A > B > C (absent C rows rank as zero counts): the query
        reproduces the kernel's borderline 6000/significant."""
        rows = []
        ts = pd.Timestamp("2024-01-01")
        counts = {1: {"A": 3, "B": 2, "C": 1},
                  2: {"A": 5, "B": 4},
                  3: {"A": 9, "B": 1}}
        for uid, tc in counts.items():
            for t, c in tc.items():
                rows += [(uid, ts, t, 0.0)] * c
        df = pd.DataFrame(rows, columns=["user_id", "ts",
                                         "event_type", "value"])
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       os.path.join(tmp_path, "events.parquet"))
        import __ray_entry__ as entrymod

        out = entrymod._q_friedman_test(str(tmp_path)) \
            .set_index("event_type")
        assert out.loc["A", "rsum2"] == 18
        assert out.loc["B", "rsum2"] == 12
        assert out.loc["C", "rsum2"] == 6
        assert out["chi2_milli"].iloc[0] == 6000
        assert out["significant"].all()


class TestMcNemar:
    def test_smoke_corpus_census(self, ray_session):
        """Live flagship vs the planted census: every discordant
        pair is an ambiguous PO (keyword follows the fused verdict,
        regex defects), so kw_only = |ambiguous|, rx_only = 0,
        chi2 = 1000·b."""
        import __ray_entry__ as entrymod
        from documentai_ray.sources import pages
        from tests.conftest import SF_SMOKE

        docs = pq.read_table(f"{SF_SMOKE}/documents.parquet",
                             columns=["doc_id"]).to_pandas()
        b = sum(1 for d in docs["doc_id"]
                if pages.is_ambiguous_po(int(d))
                and not pages.is_malformed(int(d)))
        out = entrymod._q_mcnemar_test(SF_SMOKE).iloc[0]
        assert out["n_items"] == len(docs)
        assert out["kw_only"] == b
        assert out["rx_only"] == 0
        assert out["neither"] == 0
        assert out["chi2_milli"] == 1000 * b
        assert bool(out["significant"]) == (b * 1_000_000 > 3_841_459)
