"""Mood's scale test fold and the stratified log-rank kernel."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from documentai_ray.extras import mood_scale_int


def _tr(uid: int) -> bool:
    return (uid * 2654435761) % (1 << 32) < (1 << 31)


class TestMoodScale:
    def test_extremes_vs_middle_no_ties(self):
        """Group 1 holds both EXTREME ranks (values 1 and 9), group 0
        the middle (4, 5): t = (9,1,1,9), T₁ = 18, ST = 20, SQ = 164,
        D = 4·18 − 2·20 = 32, den = 4·(656−400) = 1024 →
        z² = 3·32²/1024 = 3.000 exactly — just UNDER χ²₁ = 3.841,
        so 4 subjects rightly can't clear significance; sign +1 says
        group 1 is the dispersed arm (a location test would score
        these two groups identical)."""
        h = pd.DataFrame({"v": [1, 9, 4, 5],
                          "tr": [True, True, False, False],
                          "n": [1, 1, 1, 1]})
        r = mood_scale_int(h)
        assert r["t_treat"] == 18 and r["st_all"] == 20
        assert r["z2_milli"] == 3000
        assert r["scale_sign"] == 1
        assert not r["significant"]

    def test_tied_values_midrank(self):
        """Three subjects tied at v=1 (doubled midrank 4) and one at
        v=3 (rank 8): t = (1,1,1,9); group 1 owns two of the tied
        center ranks → T₁ = 2, D = 4·2 − 2·12 = −16 (group 1 HUGS
        the center — the less-dispersed arm), den = 4·(336−144) =
        768, z² = 3·256/768 = 1.000."""
        h = pd.DataFrame({"v": [1, 1, 3], "tr": [True, False, False],
                          "n": [2, 1, 1]})
        r = mood_scale_int(h)
        assert r["t_treat"] == 2
        assert r["st_all"] == 12
        assert r["z2_milli"] == 1000
        assert r["scale_sign"] == -1

    def test_identical_groups_zero(self):
        """Both arms drawing the same histogram → T₁ = n₁·ST/N
        exactly, D = 0, dead center."""
        h = pd.DataFrame({"v": [2, 2, 7, 7],
                          "tr": [True, False, True, False],
                          "n": [3, 3, 2, 2]})
        r = mood_scale_int(h)
        assert r["scale_sign"] == 0
        assert r["z2_milli"] == 0 and not r["significant"]


def _write_events(tmp_path, rows):
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    df["ts"] = pd.to_datetime(df["ts"])
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(tmp_path, "events.parquet"))
    return os.path.join(tmp_path, "events.parquet")


def _brute_logrank(subjects, horizon=30):
    """Independent first-principles re-derivation: subjects are
    (lifetime_days, observed, treated, stratum) tuples."""
    strata = sorted({s for _, _, _, s in subjects})
    per = {}
    o1t = e1t = vt = 0
    for s in strata:
        sub = [x for x in subjects if x[3] == s]
        o1 = e1 = v = 0
        for d in range(horizon):
            n1 = sum(1 for ld, _, tr, _ in sub if ld >= d and tr)
            n0 = sum(1 for ld, _, tr, _ in sub if ld >= d and not tr)
            d1 = sum(1 for ld, ob, tr, _ in sub
                     if ld == d and ob and tr)
            d0 = sum(1 for ld, ob, tr, _ in sub
                     if ld == d and ob and not tr)
            nd, dd = n1 + n0, d1 + d0
            o1 += d1
            if nd > 0:
                e1 += 1_000_000 * n1 * dd // nd
            if nd > 1:
                v += (1_000_000 * n1 * n0 * dd * (nd - dd)
                      // (nd * nd * (nd - 1)))
        per[s] = (o1, e1, v)
        o1t += o1
        e1t += e1
        vt += v
    num = (1_000_000 * o1t - e1t) ** 2
    stat = num // (1000 * vt) if vt else 0
    sig = num > 3_841_459 * vt if vt else False
    return per, stat, sig


class TestStratifiedLogrank:
    def test_strata_sums_and_pool(self, ray_session, tmp_path):
        """Deterministic mixed fold: users across all three strata,
        early deaths planted in the treated arm of stratum 0 only;
        the kernel must match an independent first-principles
        re-derivation per stratum AND in the pooled statistic, and
        carry the pooled scalars identically on every row."""
        import ray.data

        from documentai_ray.stages.windows import stratified_logrank_int

        base = pd.Timestamp("2024-01-01")
        rows, subjects = [], []
        # 12 users: lifetime = uid % 5 days; all but the last two go
        # quiet a week before corpus max (observed deaths)
        for uid in range(1, 13):
            life = uid % 5
            rows.append((uid, base))
            rows.append((uid, base + pd.Timedelta(days=life)))
        # corpus max pinned 7 days after the last death → every user
        # quiet >= 6h => all observed
        rows.append((100, base + pd.Timedelta(days=12)))
        rows.append((100, base + pd.Timedelta(days=12)))
        path = _write_events(tmp_path, rows)
        for uid in range(1, 13):
            subjects.append((uid % 5, True, _tr(uid), uid % 3))
        # uid 100's last event IS the corpus max → gap 0 < 6h →
        # censored, not an observed death
        subjects.append((0, False, _tr(100), 100 % 3))
        per, stat, sig = _brute_logrank(subjects)

        ds = ray.data.read_parquet(path)
        out = stratified_logrank_int(ds, horizon_days=30,
                                     censor_gap_hours=6, strata_mod=3)
        assert list(out["stratum"]) == sorted(per.keys())
        for _, r in out.iterrows():
            o1, e1, v = per[int(r["stratum"])]
            assert (int(r["o1"]), int(r["e1_ppm"]),
                    int(r["v_ppm"])) == (o1, e1, v)
            assert int(r["logrank_milli"]) == stat
            assert bool(r["significant"]) == sig

    def test_censoring_respected(self, ray_session, tmp_path):
        """A user still active at the corpus max (gap < 6h) is
        censored — at risk through its lifetime but never a death:
        its stratum's o1 must not count it."""
        import ray.data

        from documentai_ray.stages.windows import stratified_logrank_int

        base = pd.Timestamp("2024-01-01")
        rows = []
        # uid 4 (TREATED by the hash coin) dies day 1, quiet 9 days;
        # uid 6 (control) runs to the corpus max — censored
        assert _tr(4) and not _tr(6)
        rows.append((4, base))
        rows.append((4, base + pd.Timedelta(days=1)))
        rows.append((6, base))
        rows.append((6, base + pd.Timedelta(days=10)))
        path = _write_events(tmp_path, rows)
        ds = ray.data.read_parquet(path)
        out = stratified_logrank_int(ds, horizon_days=30,
                                     censor_gap_hours=6, strata_mod=3)
        # only uid 4's treated death is observed; the censored
        # survivor contributes risk-set mass, never a death
        assert int(out["o1"].sum()) == 1
