"""Population-dynamics kernels: discrete SIR (Kermack-McKendrick)
and Lotka-Volterra — exact conservation, the epidemic threshold
theorem on both sides, geometric decoupled chains replayed
floor-for-floor, the exact integer fixed point, and the extinction
clamp all pinned."""

from __future__ import annotations

from documentai_ray.extras import lotka_volterra_int, sir_epidemic_int

PPM = 1_000_000


class TestSIR:
    def test_conservation_bit_exact(self):
        """S + I + R == 1e6 at EVERY step — transfers, not
        approximations."""
        out = sir_epidemic_int(600_000, 200_000, 20_000, steps=24)
        assert ((out["s_ppm"] + out["i_ppm"] + out["r_ppm"])
                == PPM).all()

    def test_monotone_s_down_r_up(self):
        out = sir_epidemic_int(600_000, 200_000, 20_000)
        assert (out["s_ppm"].diff().dropna() <= 0).all()
        assert (out["r_ppm"].diff().dropna() >= 0).all()

    def test_beta_zero_geometric_decay_chain(self):
        """No transmission: I decays by the floored geometric chain
        I' = I - gamma*I // 1e6 — replayed exactly."""
        out = sir_epidemic_int(0, 250_000, 100_000, steps=5)
        i = 100_000
        for t in range(1, 6):
            i = i - 250_000 * i // PPM
            assert out.loc[t, "i_ppm"] == i
        assert (out["s_ppm"] == PPM - 100_000).all()

    def test_subcritical_threshold_monotone_down(self):
        """R_eff = beta*S0 / (gamma*1e6) < 1: infections strictly
        fall from step one — the 1927 threshold theorem."""
        out = sir_epidemic_int(100_000, 300_000, 50_000)
        assert (out["i_ppm"].diff().dropna() <= 0).all()

    def test_supercritical_peaks_then_declines(self):
        """R_eff ~ 3: I rises, peaks strictly inside the horizon,
        then declines — and some susceptibles survive (the final-
        size theorem says S_inf > 0)."""
        out = sir_epidemic_int(900_000, 300_000, 10_000, steps=40)
        peak = out["i_ppm"].idxmax()
        assert 0 < peak < 40
        assert out.loc[40, "i_ppm"] < out.loc[peak, "i_ppm"]
        assert out.loc[40, "s_ppm"] > 0

    def test_nonnegative_no_clamp_needed(self):
        out = sir_epidemic_int(PPM, PPM, 999_999, steps=24)
        assert (out[["s_ppm", "i_ppm", "r_ppm"]] >= 0).all().all()


class TestLotkaVolterra:
    def test_exact_fixed_point(self):
        """a = b, c = d, x = y = 1e6: growth == predation and
        starvation == conversion term by term — the equilibrium is
        EXACT and eternal under integer arithmetic."""
        out = lotka_volterra_int(150_000, 150_000, 90_000, 90_000,
                                 PPM, PPM, steps=24)
        assert (out["prey_ppm"] == PPM).all()
        assert (out["pred_ppm"] == PPM).all()

    def test_decoupled_geometric_chains(self):
        """b = d = 0: prey grows x' = x + a*x // 1e6, predator
        decays y' = y - c*y // 1e6 — both floored chains replayed
        exactly."""
        out = lotka_volterra_int(100_000, 0, 250_000, 0,
                                 400_000, 300_000, steps=6)
        x, y = 400_000, 300_000
        for t in range(1, 7):
            x = x + 100_000 * x // PPM
            y = y - 250_000 * y // PPM
            assert out.loc[t, "prey_ppm"] == x
            assert out.loc[t, "pred_ppm"] == y

    def test_extinction_clamp_absorbs(self):
        """Massive predation overshoots through zero: the clamp
        pins prey at 0, and a prey-less predator then starves
        monotonically."""
        out = lotka_volterra_int(0, PPM, 200_000, 0,
                                 100_000, PPM, steps=24)
        assert (out["prey_ppm"] >= 0).all()
        tail = out[out["prey_ppm"] == 0]
        assert len(tail) > 0
        t0 = tail["t"].iloc[0]
        after = out[out["t"] >= t0]["pred_ppm"]
        assert (after.diff().dropna() <= 0).all()

    def test_predation_transfers_between_species(self):
        """With conversion active, predator gains exactly what the
        d-scaled encounter term grants: replay one full step by
        hand."""
        a, b, c, d = 100_000, 200_000, 100_000, 200_000
        x0, y0 = 400_000, 200_000
        out = lotka_volterra_int(a, b, c, d, x0, y0, steps=1)
        g = a * x0 // PPM
        pr = b * x0 * y0 // PPM ** 2
        st = c * y0 // PPM
        cv = d * x0 * y0 // PPM ** 2
        assert out.loc[1, "prey_ppm"] == x0 + g - pr
        assert out.loc[1, "pred_ppm"] == y0 - st + cv
