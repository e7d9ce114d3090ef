"""Tests for the late-round-2 curation surface: incremental snapshot
dedup, URL frontier filtering, SemDeDup, shard export, DSIR weights."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from documentai_ray.stages import curation


class TestSnapshotDedup:
    def test_anti_join_semantics(self, ray_session):
        import ray.data

        from documentai_ray.stages.dedup import dedup_against_snapshot

        new = ray.data.from_items([
            {"doc_id": 0, "text": "alpha"},
            {"doc_id": 1, "text": "beta"},
            {"doc_id": 2, "text": "gamma"},
            {"doc_id": 3, "text": "alpha"},   # same content as 0
        ])
        old = ray.data.from_items([{"text": "alpha"}, {"text": "delta"}])
        out = dedup_against_snapshot(new, old, num_partitions=4).to_pandas()
        # both alpha rows drop (content seen in the prior snapshot)
        assert sorted(out["doc_id"]) == [1, 2]
        assert sorted(out.columns) == ["doc_id", "text"]

    def test_empty_old_keeps_everything(self, ray_session):
        import ray.data

        from documentai_ray.stages.dedup import dedup_against_snapshot

        new = ray.data.from_items([{"doc_id": i, "text": f"t{i}"}
                                   for i in range(10)])
        old = ray.data.from_items([{"text": "nothing-matches"}])
        out = dedup_against_snapshot(new, old, num_partitions=4).to_pandas()
        assert len(out) == 10


class TestUrlFilter:
    def test_rule_priority(self):
        batch = pa.table({"url": [
            "https://bad.example.com/p/1",          # blocked host
            "https://bad.example.com/p/2?amp=1",    # blocked wins over query
            "https://ok.example.com/p/3?utm=x",     # query string
            "https://ok.example.com/p/4",           # keep
        ]})
        out = curation.url_filter_batch(
            batch, blocked_hosts=frozenset({"bad.example.com"}))
        assert out.column("keep").to_pylist() == [False, False, False, True]
        assert out.column("drop_reason").to_pylist() == [
            "blocked_host", "blocked_host", "query_string", "ok"]
        assert out.column("host").to_pylist()[0] == "bad.example.com"


class TestSemDeDup:
    def test_keeps_one_per_tight_group(self, ray_session):
        import ray.data

        from documentai_ray.stages.similarity import semdedup

        rng = np.random.RandomState(7)
        # two well-separated cluster centers; ids 0/1/2 are near-identical
        # copies inside cluster A, ids 10/11 identical inside cluster B
        a = rng.randn(8); a /= np.linalg.norm(a)
        b = -a  # antipodal → different k-means cluster, cosine -1
        rows = []
        for i, eps in [(0, 0.0), (1, 1e-3), (2, 2e-3)]:
            v = a + eps
            rows.append({"vec_id": i, "embedding": (v / np.linalg.norm(v)).tolist()})
        for i, eps in [(10, 0.0), (11, 1e-3)]:
            v = b + eps
            rows.append({"vec_id": i, "embedding": (v / np.linalg.norm(v)).tolist()})
        ds = ray.data.from_items(rows)
        out = semdedup(ds, k=2, iters=2, threshold=0.95).to_pandas()
        keep = dict(zip(out["vec_id"], out["keep"]))
        assert keep == {0: True, 1: False, 2: False, 10: True, 11: False}
        # the two tight groups land in different clusters
        cl = dict(zip(out["vec_id"], out["cluster"]))
        assert cl[0] == cl[1] == cl[2]
        assert cl[10] == cl[11]
        assert cl[0] != cl[10]

    def test_all_kept_below_threshold(self, ray_session):
        import ray.data

        from documentai_ray.stages.similarity import semdedup

        # orthogonal basis vectors: every cosine is 0 → nothing drops
        rows = [{"vec_id": i, "embedding": np.eye(6)[i].tolist()}
                for i in range(6)]
        out = semdedup(ray.data.from_items(rows), k=2, iters=1,
                       threshold=0.5).to_pandas()
        assert out["keep"].all()
        assert len(out) == 6


class TestShardExport:
    def test_positions_are_dense_and_deterministic(self, ray_session):
        import ray.data

        ds = ray.data.from_items([{"doc_id": i} for i in range(500)])
        out = curation.assign_shards(ds, n_shards=8).to_pandas()
        assert len(out) == 500
        assert set(out["shard"]) <= set(range(8))
        for s, g in out.groupby("shard"):
            g = g.sort_values("pos")
            assert list(g["pos"]) == list(range(len(g)))       # dense ranks
            assert (np.diff(g["h"].to_numpy()) >= 0).all()     # hash order
        # shard/pos must be independent of input partitioning
        out2 = curation.assign_shards(
            ray.data.from_items([{"doc_id": i} for i in range(500)])
            .repartition(13), n_shards=8).to_pandas()
        m1 = out.sort_values("doc_id")[["shard", "pos"]].to_numpy()
        m2 = out2.sort_values("doc_id")[["shard", "pos"]].to_numpy()
        assert (m1 == m2).all()


class TestDsir:
    def test_target_lookalikes_score_higher(self, ray_session):
        import ray.data

        rows = ([{"doc_id": i, "text": "math proof lemma theorem"}
                 for i in range(0, 4)]          # target-like
                + [{"doc_id": i, "text": "sports scores game recap"}
                   for i in range(4, 40)])       # bulk
        ds = ray.data.from_items(rows)

        def mask(batch):
            return [i < 4 for i in batch.column("doc_id").to_pylist()]

        raw = curation.dsir_bucket_counts(ds)
        tgt = curation.dsir_bucket_counts(ds, doc_filter=mask)
        assert raw.sum() == 4 * 4 + 36 * 4
        assert tgt.sum() == 16
        out = curation.dsir_score(ds, tgt, raw).to_pandas()
        s = dict(zip(out["doc_id"], out["dsir_score_ppm"]))
        assert s[0] > s[10]          # target-like doc outranks bulk doc
        assert s[0] == s[1]          # identical text → identical score

    def test_empty_text_scores_zero(self, ray_session):
        import ray.data

        ds = ray.data.from_items([{"doc_id": 0, "text": ""},
                                  {"doc_id": 1, "text": "a"}])
        raw = curation.dsir_bucket_counts(ds)
        out = curation.dsir_score(ds, raw, raw).to_pandas()
        assert dict(zip(out["doc_id"], out["dsir_score_ppm"]))[0] == 0


class TestParallelismInvariance:
    """New operators must produce identical results at any partitioning —
    the single-node stand-in for the N vs 4N cluster contract."""

    def test_semdedup_partition_invariant(self, ray_session):
        import numpy as np
        import ray.data

        from documentai_ray.stages.similarity import semdedup

        rng = np.random.RandomState(3)
        rows = [{"vec_id": i,
                 "embedding": (v / np.linalg.norm(v)).tolist()}
                for i, v in enumerate(rng.randn(60, 8))]

        def run(parts):
            ds = ray.data.from_items(rows).repartition(parts)
            out = semdedup(ds, k=3, iters=2, threshold=0.6).to_pandas()
            return out.sort_values("vec_id").reset_index(drop=True)

        a, b = run(2), run(11)
        assert (a[["vec_id", "cluster", "keep"]].to_numpy()
                == b[["vec_id", "cluster", "keep"]].to_numpy()).all()

    def test_heavy_hitters_partition_invariant(self, ray_session):
        import ray.data

        from documentai_ray.stages.sketches import heavy_hitter_tokens

        rows = [{"text": "hot " * 4 + f"cold{i % 37}"} for i in range(400)]

        def run(parts):
            ds = ray.data.from_items(rows).repartition(parts)
            out = heavy_hitter_tokens(ds, k=5).to_pandas()
            return sorted(zip(out["token"], out["n_count"]))

        assert run(3) == run(16)

    def test_dsir_partition_invariant(self, ray_session):
        import ray.data

        rows = [{"doc_id": i, "text": f"tok{i % 13} tok{i % 7} shared"}
                for i in range(150)]

        def run(parts):
            ds = ray.data.from_items(rows).repartition(parts)
            raw = curation.dsir_bucket_counts(ds)
            tgt = curation.dsir_bucket_counts(
                ds, doc_filter=lambda b: [i % 5 == 0 for i in
                                          b.column("doc_id").to_pylist()])
            out = curation.dsir_score(ds, tgt, raw).to_pandas()
            return sorted(zip(out["doc_id"], out["dsir_score_ppm"]))

        assert run(2) == run(9)


class TestMixPlan:
    def test_budget_and_epoch_math(self, ray_session):
        import ray.data

        rows = ([{"source": "a", "text": "w " * 10} for _ in range(10)]   # 100 tok
                + [{"source": "b", "text": "w " * 5} for _ in range(4)])  # 20 tok
        out = curation.mix_plan(
            ray.data.from_items(rows), {"a": 1, "b": 3},
            budget_factor=2).to_pandas().set_index("source")
        # budget = 240; targets: a=60, b=180
        assert out.loc["a", "target_tokens"] == 60
        assert out.loc["b", "target_tokens"] == 180
        # a: 60/100 → 1 epoch at 600000 ppm; b: 180/20 → 9 epochs full rate
        assert out.loc["a", "n_epochs"] == 1
        assert out.loc["a", "rate_ppm"] == 600000
        assert out.loc["b", "n_epochs"] == 9
        assert out.loc["b", "rate_ppm"] == 1000000
        # plan reproduces the target: epochs × actual × rate ≈ target
        for s in ("a", "b"):
            got = (out.loc[s, "n_epochs"] * out.loc[s, "actual_tokens"]
                   * out.loc[s, "rate_ppm"]) // 1_000_000
            assert abs(got - out.loc[s, "target_tokens"]) <= 1


def test_recrawl_priority_buckets(ray_session):
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.curation import recrawl_priority

    rows = []
    # u1: 3 captures, all same → cold; u2: 3 captures, every interval
    # changes → hot; u3: 3 captures, one change → warm (500000 ppm → hot
    # boundary is >=, so 1/2 intervals = exactly 500000 → hot)
    for j in range(3):
        rows.append({"url": "u1", "ts": j, "content_hash": "a"})
        rows.append({"url": "u2", "ts": j, "content_hash": f"b{j}"})
        rows.append({"url": "u3", "ts": j, "content_hash": "c" if j < 2 else "d"})
    rows.append({"url": "u4", "ts": 0, "content_hash": "e"})  # single → cold
    out = recrawl_priority(ray.data.from_items(rows).repartition(4),
                           num_partitions=8).to_pandas().set_index("url")
    assert out.loc["u1", "recrawl_bucket"] == "cold"
    assert out.loc["u2", "recrawl_bucket"] == "hot"
    assert out.loc["u2", "change_ppm"] == 1_000_000
    assert out.loc["u3", "recrawl_bucket"] == "hot"   # 500000 ppm, >= bar
    assert out.loc["u4", "recrawl_bucket"] == "cold"
    assert out.loc["u4", "n_captures"] == 1


def test_pseudonymize_stable_and_salted(ray_session):
    import ray.data

    from documentai_ray.stages.curation import pseudonymize

    rows = [{"eid": i, "user_id": i % 7} for i in range(50)]
    a = pseudonymize(ray.data.from_items(rows), ["user_id"],
                     salt="s1").to_pandas()
    b = pseudonymize(ray.data.from_items(rows), ["user_id"],
                     salt="s2").to_pandas()
    # stable within a salt: same user → same pseudo-id (joins survive)
    g = a.groupby(a["eid"] % 7)["user_id_pseudo"].nunique()
    assert (g == 1).all()
    assert a["user_id_pseudo"].nunique() == 7
    # different salt → unlinkable mapping
    merged = a.merge(b, on="eid")
    assert (merged["user_id_pseudo_x"] != merged["user_id_pseudo_y"]).all()
    assert "user_id" not in a.columns               # original dropped


class TestUnionByName:
    def test_null_fill_and_order(self, ray_session):
        from documentai_ray.stages.schema import union_by_name
        a = ray_session.data.from_items([{"id": 1, "x": "a"}])
        b = ray_session.data.from_items([{"id": 2, "x": "b", "y": 9}])
        out = union_by_name([a, b]).to_pandas().sort_values("id")
        assert list(out.columns) == ["id", "x", "y"]
        assert out.iloc[0]["y"] is None or str(out.iloc[0]["y"]) in (
            "nan", "<NA>", "None")
        assert out.iloc[1]["y"] == 9

    def test_conflicting_types_raise(self, ray_session):
        import pytest
        from documentai_ray.stages.schema import union_by_name
        a = ray_session.data.from_items([{"id": 1, "x": "a"}])
        b = ray_session.data.from_items([{"id": 2, "x": 7}])
        with pytest.raises(ValueError, match="conflicting"):
            union_by_name([a, b])


class TestWaterfill:
    def test_progressive_fill_exact(self, ray_session):
        """Demands 1,2,10,10 with budget 3/5*23 = 13: host with d=1
        satisfied, d=2 satisfied, the two d=10 split rem=10 as 5+5."""
        from documentai_ray.stages.curation import waterfill_allocate
        rows = ([{"k": "w", "d": 1}, {"k": "x", "d": 2}]
                + [{"k": "y", "d": 10}, {"k": "z", "d": 10}])
        out = waterfill_allocate(
            ray_session.data.from_items(rows).repartition(3),
            key_col="k", demand_col="d").to_pandas()
        got = {r["k"]: (r["demand"], r["alloc"], r["satisfied"])
               for _, r in out.iterrows()}
        assert got == {"w": (1, 1, True), "x": (2, 2, True),
                       "y": (10, 5, False), "z": (10, 5, False)}

    def test_integer_leftover_goes_to_first_in_order(self, ray_session):
        """rem % m = 1 extra unit lands on the lexically/demand-first
        capped key — the deterministic tie rule."""
        from documentai_ray.stages.curation import waterfill_allocate
        # total=15, budget=9; all three d=5: nobody satisfied
        # (5*3=15 > 9), base=3, extra=0 -> 3,3,3.
        rows = [{"k": c, "d": 5} for c in "abc"]
        out = waterfill_allocate(
            ray_session.data.from_items(rows),
            key_col="k", demand_col="d").to_pandas()
        assert dict(zip(out["k"], out["alloc"])) == {
            "a": 3, "b": 3, "c": 3}
        # total=16, budget=9 with demands 5,5,6: base=3, extra=0 for
        # m=3? 16*3//5 = 9; j0=1 (5*3=15>9): rem=9, base=3 extra=0.
        rows = [{"k": "a", "d": 5}, {"k": "b", "d": 5},
                {"k": "c", "d": 6}]
        out = waterfill_allocate(
            ray_session.data.from_items(rows),
            key_col="k", demand_col="d").to_pandas()
        assert dict(zip(out["k"], out["alloc"])) == {
            "a": 3, "b": 3, "c": 3}
        # demands 1,5,5, budget 6*...: total=11, budget=6; d=1
        # satisfied (1*3=3<=6); rem=5 over m=2: base=2, extra=1 ->
        # a(first capped in (demand,key) order) gets 3, b gets 2.
        rows = [{"k": "z", "d": 1}, {"k": "a", "d": 5},
                {"k": "b", "d": 5}]
        out = waterfill_allocate(
            ray_session.data.from_items(rows),
            key_col="k", demand_col="d").to_pandas()
        assert dict(zip(out["k"], out["alloc"])) == {
            "z": 1, "a": 3, "b": 2}

    def test_rejects_negative_demand(self, ray_session):
        import pytest
        from documentai_ray.stages.curation import waterfill_allocate
        with pytest.raises(ValueError):
            waterfill_allocate(
                ray_session.data.from_items([{"k": "a", "d": -1}]),
                key_col="k", demand_col="d")
