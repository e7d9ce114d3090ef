"""Kruskal-Wallis rank test and Fleiss' multi-rater kappa."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from documentai_ray.extras import fleiss_kappa_int, kruskal_wallis_int


def _hist(rows):
    return pd.DataFrame(rows, columns=["v", "g", "n"])


class TestKruskalWallisInt:
    def test_hand_distinct_values(self):
        """Groups A={1,2}, B={3,4}, C={5,6}: doubled ranks 2v, group
        sums 6/14/22, S = 18+98+242 = 358, H = 12/42·89.5 − 21 =
        4.571 → 4571 milli; below the chi²₂ 5.991 bar."""
        h = _hist([(1, "A", 1), (2, "A", 1), (3, "B", 1),
                   (4, "B", 1), (5, "C", 1), (6, "C", 1)])
        out = kruskal_wallis_int(h, val_col="v", grp_col="g") \
            .set_index("g")
        assert out.loc["A", "rsum2"] == 6
        assert out.loc["B", "rsum2"] == 14
        assert out.loc["C", "rsum2"] == 22
        assert out["h_milli"].iloc[0] == 4571
        assert not out["significant"].any()

    def test_tie_floor_losses(self):
        """A={1,2}, B={2,3}, C={3,3}: midranks tie on half-units, the
        exact H is 3.071 and the per-group floors (R'² odd, n_j = 2)
        eat 71 milli → 3000 exactly; the doubled-rank invariant
        Σ R'_j = n(n+1) holds through the tie pile-up."""
        h = _hist([(1, "A", 1), (2, "A", 1), (2, "B", 1),
                   (3, "B", 1), (3, "C", 2)])
        out = kruskal_wallis_int(h, val_col="v", grp_col="g")
        assert int(out["rsum2"].sum()) == 6 * 7
        assert out["h_milli"].iloc[0] == 3000
        assert not out["significant"].any()

    def test_all_values_identical_reads_zero(self):
        """Every row the same value: R'_j = n_j·(n+1) exactly (no
        floor loss), numerator 0 → H = 0."""
        h = _hist([(7, "A", 3), (7, "B", 4), (7, "C", 5)])
        out = kruskal_wallis_int(h, val_col="v", grp_col="g")
        assert out["h_milli"].iloc[0] == 0
        assert not out["significant"].any()

    def test_perfect_separation_significant(self):
        """Three well-separated groups of 20 identical values each:
        R'_j = n_j·(2·offset + n_j + 1); H approaches the
        theoretical ties-only-within-groups value and clears the 5%
        bar."""
        h = _hist([(1, "A", 20), (2, "B", 20), (3, "C", 20)])
        out = kruskal_wallis_int(h, val_col="v", grp_col="g") \
            .set_index("g")
        assert out.loc["A", "rsum2"] == 20 * 21
        assert out.loc["B", "rsum2"] == 20 * (2 * 20 + 20 + 1)
        assert out.loc["C", "rsum2"] == 20 * (2 * 40 + 20 + 1)
        assert out["significant"].all()
        assert out["h_milli"].iloc[0] > 5991

    def test_query_end_to_end(self, ray_session, tmp_path):
        """Tiny lineitem: the query reproduces the kernel fold and
        emits one row per flag with the scalars repeated."""
        import __ray_entry__ as entrymod

        df = pd.DataFrame({
            "l_quantity": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            "l_returnflag": ["A", "A", "N", "N", "R", "R"]})
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       os.path.join(tmp_path, "lineitem.parquet"))
        out = entrymod._q_kruskal_wallis(str(tmp_path)) \
            .set_index("flag")
        assert out.loc["A", "rsum2"] == 6
        assert out.loc["R", "rsum2"] == 22
        assert out["h_milli"].iloc[0] == 4571


class TestFleissKappaInt:
    def test_hand_four_items(self):
        """Items: 4·PO, (2·PO+2·REP), 4·REP, 4·UNC → S=56, C=(6,6,4),
        T=88, M=16: P̄=5/6 (833333 ppm), P̄e=88/256 (343750 ppm),
        κ = 376/504 = 0.746 → 746 milli."""
        out = fleiss_kappa_int(56, {"po": 6, "rep": 6, "unc": 4})
        assert out["n_items"] == 4
        assert out["pbar_ppm"] == 833_333
        assert out["pe_ppm"] == 343_750
        assert out["kappa_milli"] == 746

    def test_negative_kappa_truncates_toward_zero(self):
        """Two items each split 2/2 across the same two categories:
        P̄ = 1/3, P̄e = 1/2 → κ = −1/3; trunc-toward-zero reads −333
        (a floor would read −334 — the SQL ``//`` convention)."""
        out = fleiss_kappa_int(16, {"a": 4, "b": 4})
        assert out["kappa_milli"] == -333

    def test_degenerate_single_category(self):
        """Every rating in one category: M² = T (den 0) → the
        perfect-agreement 1000 by convention."""
        out = fleiss_kappa_int(32, {"only": 8})
        assert out["kappa_milli"] == 1000

    def test_smoke_corpus_census(self, ray_session):
        """The live 4-technique kappa over the smoke corpus equals
        the fold of the planted census (ambiguous POs 2+2, everything
        else unanimous) computed independently from the planted
        predicates."""
        import __ray_entry__ as entrymod
        from documentai_ray.sources import pages
        from tests.conftest import SF_SMOKE

        docs = pq.read_table(f"{SF_SMOKE}/documents.parquet",
                             columns=["doc_id"]).to_pandas()
        s = 0
        c: dict[str, int] = {}
        for did in docs["doc_id"]:
            did = int(did)
            cat = pages.expected_category(did)
            if pages.is_ambiguous_po(did) and not pages.is_malformed(did):
                s += 8
                c["purchase_order"] = c.get("purchase_order", 0) + 2
                c["data_report"] = c.get("data_report", 0) + 2
            else:
                s += 16
                c[cat] = c.get(cat, 0) + 4
        expected = fleiss_kappa_int(s, c)
        got = entrymod._q_fleiss_kappa(SF_SMOKE).iloc[0].to_dict()
        assert got == expected
