"""Flowshop + CPM kernels: Johnson's rule pinned OPTIMAL by brute
force over all n! orders, the prefix/suffix closed form pinned equal
to the sequential fold, and CPM's slack/critical-path structure
theorems pinned on textbook networks."""

from __future__ import annotations

import itertools
import random

from documentai_ray.extras import critical_path_int, johnson_flowshop_int


def _makespan(order):
    c1 = c2 = 0
    for _, p1, p2 in order:
        c1 += p1
        c2 = max(c2, c1) + p2
    return c2


class TestJohnson:
    def test_optimal_by_brute_force_sweep(self):
        """Johnson's makespan == min over ALL 5! orders, on 30
        seeded random instances — the 1954 theorem made literal."""
        rng = random.Random(7)
        for _ in range(30):
            jobs = [(f"j{i}", rng.randint(1, 50), rng.randint(1, 50))
                    for i in range(5)]
            out = johnson_flowshop_int(jobs)
            best = min(_makespan(p)
                       for p in itertools.permutations(jobs))
            assert int(out["makespan"].iloc[0]) == best
            assert (out["makespan"] <= out["fifo_makespan"]).all()

    def test_textbook_instance(self):
        """Classic worked example: p1 = (3,5,1,6,7), p2 =
        (6,2,2,6,5).  Johnson: group A (p1<p2) = {j0(3), j2(1)}
        ascending p1 -> j2, j0; group B descending p2 -> j3(6),
        j4(5), j1(2).  Sequence j2 j0 j3 j4 j1, makespan 24."""
        jobs = [("j0", 3, 6), ("j1", 5, 2), ("j2", 1, 2),
                ("j3", 6, 6), ("j4", 7, 5)]
        out = johnson_flowshop_int(jobs)
        assert out["job"].tolist() == ["j2", "j0", "j3", "j4", "j1"]
        assert int(out["makespan"].iloc[0]) == _makespan(
            [jobs[2], jobs[0], jobs[3], jobs[4], jobs[1]])

    def test_closed_form_equals_fold(self):
        """C2_j = max_{i<=j}(S1_i + S2_j - S2_i + p2_i) — the SQL
        mirror's closed form — equals the sequential fold row by
        row."""
        jobs = [("a", 4, 2), ("b", 1, 9), ("c", 6, 6), ("d", 2, 1)]
        out = johnson_flowshop_int(jobs)
        p1 = out["p1"].tolist()
        p2 = out["p2"].tolist()
        s1 = [sum(p1[:i + 1]) for i in range(len(p1))]
        s2 = [sum(p2[:i + 1]) for i in range(len(p2))]
        for jdx in range(len(p1)):
            cf = max(s1[i] + s2[jdx] - s2[i] + p2[i]
                     for i in range(jdx + 1))
            assert int(out["c2"].iloc[jdx]) == cf

    def test_single_machine_degenerate(self):
        """p2 = 0 everywhere: makespan = sum(p1), any order — and
        Johnson puts the zero-p2 group B in (descending 0, name)
        order without changing the optimum."""
        jobs = [("a", 5, 0), ("b", 3, 0)]
        out = johnson_flowshop_int(jobs)
        assert int(out["makespan"].iloc[0]) == 8


class TestCriticalPath:
    def test_textbook_network(self):
        """d = (3,5,2,7,4): paths A-C-E = 9, B-C-E = 11,
        A-D-E = 14 -> T = 14, critical chain A-D-E, slack 3 on B
        and C."""
        out = critical_path_int(list("ABCDE"), [3, 5, 2, 7, 4])
        assert int(out["project_duration"].iloc[0]) == 14
        crit = out[out["critical"]]["task"].tolist()
        assert crit == ["A", "D", "E"]
        assert out.set_index("task").loc["B", "slack"] == 3
        assert out.set_index("task").loc["C", "slack"] == 3

    def test_project_duration_is_max_path_sum(self):
        """T == max over the enumerated source-to-sink paths
        (A-C-E, B-C-E, A-D-E), on seeded random durations; slack
        >= 0 everywhere and a zero-slack task always exists."""
        rng = random.Random(99)
        for _ in range(25):
            d = [rng.randint(1, 100) for _ in range(5)]
            out = critical_path_int(list("ABCDE"), d)
            paths = [d[0] + d[2] + d[4], d[1] + d[2] + d[4],
                     d[0] + d[3] + d[4]]
            assert int(out["project_duration"].iloc[0]) == max(paths)
            assert (out["slack"] >= 0).all()
            assert out["critical"].any()

    def test_critical_tasks_form_realizing_chain(self):
        """The zero-slack set contains a full source-to-sink path
        whose durations sum to T — the defining property of the
        critical path."""
        out = critical_path_int(list("ABCDE"), [10, 1, 1, 1, 2])
        t = int(out["project_duration"].iloc[0])
        s = out.set_index("task")
        # A-D-E: 10 + 1 + 2 = 13 > A-C-E 13? A-C-E = 10+1+2 = 13 too
        crit = set(out[out["critical"]]["task"])
        paths = {("A", "C", "E"): 13, ("B", "C", "E"): 4,
                 ("A", "D", "E"): 13}
        realizing = [p for p, v in paths.items()
                     if v == t and set(p) <= crit]
        assert realizing
        assert all(int(s.loc[x, "slack"]) == 0
                   for p in realizing for x in p)
