"""Water jugs (aggregates.water_jugs_int) and friendship graphs
(aggregates.friendship_graphs_int) kernel pins."""

from documentai_ray.extras import friendship_graphs_int, water_jugs_int


class TestWaterJugs:
    def test_classic_3_5(self):
        out = water_jugs_int(2, 4)       # capacities 3, 5
        assert list(out["amount"]) == [0, 1, 2, 3, 4, 5]
        assert out["g"].iloc[0] == 1

    def test_even_pair(self):
        out = water_jugs_int(3, 7)       # capacities 4, 8
        assert list(out["amount"]) == [0, 4, 8]
        assert out["g"].iloc[0] == 4

    def test_equal_jugs(self):
        out = water_jugs_int(5, 5)       # 6, 6
        assert list(out["amount"]) == [0, 6]


class TestFriendship:
    def test_counts(self):
        out = friendship_graphs_int(0)
        assert len(out) == 15
        assert out["n_order5"].iloc[0] == 15
        assert out["n_order6"].iloc[0] == 0

    def test_every_graph_is_bowtie(self):
        out = friendship_graphs_int(3)
        pairs = [(i, j) for i in range(5)
                 for j in range(i + 1, 5)]
        for r in out.itertuples():
            deg = [0] * 5
            for k, (a, b) in enumerate(pairs):
                if (int(r.edge_mask) >> k) & 1:
                    deg[a] += 1
                    deg[b] += 1
            assert sorted(deg) == [2, 2, 2, 2, 4]
            assert deg[int(r.hub)] == 4
            assert sum(deg) == 12        # 6 edges

    def test_distinct_masks(self):
        out = friendship_graphs_int(0)
        assert out["edge_mask"].nunique() == 15
        assert out["selected"].sum() == 1
