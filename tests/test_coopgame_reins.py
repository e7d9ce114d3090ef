"""Airport-game Shapley + stop-loss layer kernels."""
import random

import pytest

from documentai_ray.extras import airport_game_int, stoploss_layers_int


def test_airport_two_player_exact():
    out = airport_game_int([("small", 30), ("big", 100)])
    phi = dict(zip(out["player"], out["phi_cents"]))
    assert phi == {"small": 15, "big": 85}    # 30/2, 15 + 70
    assert int(out["total_allocated"].iloc[0]) == 100
    assert int(out["unallocated_cents"].iloc[0]) == 0


def test_airport_axioms_sweep():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randrange(2, 7)
        costs = [(f"p{i}", rng.randrange(0, 500)) for i in range(n)]
        out = airport_game_int(costs)
        cost = dict(costs)
        phis = list(out["phi_cents"])
        # monotone in rank (sorted by requirement)
        assert phis == sorted(phis)
        for r in out.itertuples(index=False):
            assert r.phi_cents <= cost[r.player]   # stand-alone
            if cost[r.player] == 0:
                assert r.phi_cents == 0            # dummy axiom
        # efficiency: allocated + residue == the largest requirement
        mx = max(cost.values())
        resid = int(out["unallocated_cents"].iloc[0])
        assert 0 <= resid < n * n   # at most n-1 per increment floor
        alloc = sum((len(costs) - j) * s for j, s in enumerate(
            _shares(sorted(cost.values()))))
        assert alloc + resid == mx


def _shares(sorted_costs):
    prev, n, out = 0, len(sorted_costs), []
    for j, c in enumerate(sorted_costs):
        out.append((c - prev) // (n - j))
        prev = c
    return out


def test_airport_symmetry():
    out = airport_game_int([("a", 60), ("b", 60), ("c", 120)])
    phi = dict(zip(out["player"], out["phi_cents"]))
    assert phi["a"] == phi["b"] == 20        # 60/3 each
    assert phi["c"] == 20 + 60               # plus the top increment


def test_stoploss_layer_additivity():
    rng = random.Random(47)
    for _ in range(20):
        hist = [(c, rng.randrange(1, 20))
                for c in rng.sample(range(0, 600), 30)]
        top = 600
        layers = [(0, 150), (150, 150), (300, 150), (450, 150)]
        out = stoploss_layers_int(hist, layers,
                                  sum(n for _, n in hist))
        # contiguous layers covering [0, top] sum EXACTLY to
        # E[min(X, top)] on the raw sums (pre-floor)
        total = int(out["layer_loss_cents"].sum())
        expect = sum(n * min(top, c) for c, n in hist)
        assert total == expect
        # monotone decreasing in attachment (equal widths)
        ll = list(out["layer_loss_cents"])
        assert all(a >= b for a, b in zip(ll, ll[1:]))


def test_stoploss_empty_layer_and_floor():
    hist = [(100, 3), (250, 1)]
    out = stoploss_layers_int(hist, [(0, 100), (500, 100)], 4)
    # layer (0,100]: 3*100 + 1*100 = 400 -> premium 100 exact
    assert list(out["layer_loss_cents"]) == [400, 0]
    assert list(out["premium_cents"]) == [100, 0]
