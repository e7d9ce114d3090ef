"""Delay-system kernels: Erlang C and M/M/1 — the loss/delay
inequality C >= B, the single-server P(wait) = rho identity within
floor drift, the unstable clamp, and the dyadic M/M/1 textbook row
landing exactly."""

from __future__ import annotations

import pytest

from documentai_ray.extras import erlang_b_int, erlang_c_int, mm1_metrics_int

PPM = 1_000_000


class TestErlangC:
    def test_c_dominates_b_always(self):
        """The loss/delay inequality, on a spread of loads: a
        queued call waits at least as often as a lossy one is
        lost."""
        for a in (100_000, 500_000, 1_000_000, 2_500_000,
                  7_000_000):
            out = erlang_c_int(a, servers=10)
            assert (out["wait_prob_ppm"]
                    >= out["blocking_ppm"]).all()

    def test_single_server_mm1_identity_within_drift(self):
        """Stable c = 1: P(wait) = rho = a, within <= 2 ppm of the
        two chained floors."""
        for a in (100_000, 250_000, 500_000, 900_000):
            out = erlang_c_int(a, servers=1)
            assert abs(int(out.loc[0, "wait_prob_ppm"]) - a) <= 2

    def test_unstable_rows_clamp_to_certainty(self):
        """a = 3.5 erlangs: c = 1..3 are unstable (c <= a) — wait
        probability 1e6, wait time 0-clamped, stable False."""
        out = erlang_c_int(3_500_000, servers=5)
        assert out.loc[:2, "wait_prob_ppm"].tolist() == [PPM] * 3
        assert not out.loc[:2, "stable"].any()
        assert out.loc[3:, "stable"].all()
        assert (out.loc[3:, "wait_prob_ppm"] < PPM).all()

    def test_monotone_in_servers(self):
        out = erlang_c_int(2_000_000, servers=10)
        stable = out[out["stable"]]
        assert (stable["wait_prob_ppm"].diff().dropna() <= 0).all()
        assert (stable["avg_wait_milli_s"].diff().dropna()
                <= 0).all()

    def test_blocking_column_is_the_b_chain(self):
        a = 1_700_000
        b = erlang_b_int(a, servers=10)
        c = erlang_c_int(a, servers=10)
        assert (b["blocking_ppm"] == c["blocking_ppm"]).all()


class TestMM1:
    def test_dyadic_textbook_row_exact(self):
        out = mm1_metrics_int(500_000)
        r = out.iloc[0]
        assert r["l_milli"] == 1000
        assert r["lq_milli"] == 500
        assert r["w_milli_s"] == 6000
        assert r["wq_milli_s"] == 3000
        assert r["p_gt10_ppm"] == 488  # 1/2048 via chained floors

    def test_w_equals_wq_plus_service_within_drift(self):
        for rho in (100_000, 333_333, 500_000, 750_000, 999_000):
            r = mm1_metrics_int(rho).iloc[0]
            assert 0 <= int(r["w_milli_s"]) \
                - int(r["wq_milli_s"]) - 3000 <= 1

    def test_littles_law_consistency(self):
        """L = lambda * W with lambda = rho/h: check L/W == rho/h
        within floor drift (the two independent floors agree)."""
        for rho in (200_000, 600_000):
            r = mm1_metrics_int(rho).iloc[0]
            # l_milli / w_milli_s ~ rho / 3e6
            lhs = int(r["l_milli"]) * 3 * 10**6
            rhs = rho * int(r["w_milli_s"])
            assert abs(lhs - rhs) <= 3 * 10**6 + int(r["w_milli_s"])

    def test_unstable_raises(self):
        with pytest.raises(ValueError):
            mm1_metrics_int(1_000_000)

    def test_empty_queue_limit(self):
        r = mm1_metrics_int(0).iloc[0]
        assert r["l_milli"] == 0 and r["w_milli_s"] == 3000
        assert r["p_gt10_ppm"] == 0

    def test_monotone_in_rho(self):
        prev = None
        for rho in (100_000, 300_000, 500_000, 700_000, 900_000):
            r = mm1_metrics_int(rho).iloc[0]
            if prev is not None:
                assert r["l_milli"] >= prev["l_milli"]
                assert r["p_gt10_ppm"] >= prev["p_gt10_ppm"]
            prev = r
