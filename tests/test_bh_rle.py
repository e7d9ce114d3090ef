"""Benjamini-Hochberg step-up and the RLE/dict encoding advisor."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from documentai_ray.extras import BH_CRITS_M5, bh_stepup_int


def _stat(name, chi2_micro):
    """Build a cleared-chi2 stats row whose cross-multiplied
    comparison behaves exactly like a chi2 of chi2_micro/1e6:
    lhs·1e6 > crit·den with lhs = chi2_micro, den = 1e6."""
    return (name, 100, chi2_micro // 1000, chi2_micro, 1_000_000)


class TestBhStepUp:
    def test_step_up_rescues_middle_failure(self):
        """Ranks by chi2: m1 = 7.0 (passes 6.634897), m2 = 5.0
        (FAILS its 5.411894), m3 = 4.8 (passes 4.709292), m4/m5 ~ 0.
        Holm would stop at m2; BH's i* = 3 rejects m1, m2 AND m3 —
        the failed middle metric is rescued by the passing one below
        it.  This is the defining step-up/step-down difference."""
        stats = [_stat("m1", 7_000_000), _stat("m2", 5_000_000),
                 _stat("m3", 4_800_000), _stat("m4", 100_000),
                 _stat("m5", 50_000)]
        recs = bh_stepup_int(stats)
        rejected = {name: rej for name, _, _, _, rej in recs}
        assert rejected == {"m1": True, "m2": True, "m3": True,
                            "m4": False, "m5": False}

    def test_none_pass(self):
        stats = [_stat(f"m{i}", 100_000 * i) for i in range(1, 6)]
        recs = bh_stepup_int(stats)
        assert not any(r[4] for r in recs)

    def test_crit_table_order(self):
        """Rank 1 (largest chi2) faces the strictest alpha/m bar."""
        assert BH_CRITS_M5 == [6_634_897, 5_411_894, 4_709_292,
                               4_217_885, 3_841_459]

    def test_query_agrees_with_holm_on_null_corpus(self, ray_session):
        """The smoke corpus's five metrics are all null vs the Knuth
        arms (largest chi2 ≈ 2.1 — far under every bar), where
        step-up and step-down must agree: identical ranks and chi2,
        nothing rejected by either, and BH's rank-2..4 bars sit
        STRICTLY below Holm's (the structural difference that shows
        up only when signal exists)."""
        import __ray_entry__ as entrymod
        from tests.conftest import SF_SMOKE

        bh = entrymod._q_bh_fdr(SF_SMOKE).set_index("metric")
        holm = entrymod._q_holm_bonferroni(SF_SMOKE) \
            .set_index("metric")
        assert (bh["rank"] == holm["rank"]).all()
        assert (bh["chi2_milli"] == holm["chi2_milli"]).all()
        assert not bh["rejected"].any()
        assert not holm["rejected"].any()
        mid = bh["rank"].isin([2, 3, 4])
        assert (bh.loc[mid, "crit_ppm"]
                < holm.loc[mid, "crit_ppm"]).all()


class TestRleAdvisor:
    def test_hand_layout(self, ray_session, tmp_path):
        """Day 1 holds {A,A,N}, day 2 {N,R}: sorted-by-(day,flag)
        runs = 2 + 2 − 1 boundary merge (day-1 max N = day-2 min N)
        = 3; at 5 rows every encoding's fixed cost dominates, so raw
        wins both columns (the rle/raw tie on constant linestatus
        resolves by label order — the documented tie contract)."""
        df = pd.DataFrame({
            "l_shipdate": pd.to_datetime(
                ["2024-01-01"] * 3 + ["2024-01-02"] * 2),
            "l_returnflag": ["A", "A", "N", "N", "R"],
            "l_linestatus": ["F"] * 5})
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       os.path.join(tmp_path, "lineitem.parquet"))
        import __ray_entry__ as entrymod

        out = entrymod._q_rle_advisor(str(tmp_path)).set_index("col")
        rf = out.loc["l_returnflag"]
        assert (rf["n"], rf["n_distinct"], rf["n_runs"]) == (5, 3, 3)
        assert (rf["raw_bytes"], rf["rle_bytes"]) == (5, 15)
        assert rf["dict_bytes"] == 8 * 3 + (5 * 2 + 7) // 8
        assert rf["best"] == "raw"
        ls = out.loc["l_linestatus"]
        assert (ls["n_runs"], ls["rle_bytes"]) == (1, 5)
        assert ls["best"] == "raw"
