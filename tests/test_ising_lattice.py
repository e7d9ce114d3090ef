"""Ising-ring transfer matrix (aggregates.ising_ring_int) and
Gauss 2-D lattice reduction (aggregates.gauss_lattice_int) kernel
pins."""

import math
import random

from documentai_ray.extras import (ISING_N, _floor_div, gauss_lattice_int,
                                   ising_ring_int)


class TestIsingRing:
    def test_wall_census_closed_form(self):
        # enumeration == 2*C(12,k) (even) / 0 (odd) is asserted
        # in-kernel; spot-read the canonical entries
        out = ising_ring_int(0)
        assert out["n_configs"].iloc[0] == 2      # ferromagnetic
        assert out["n_configs"].iloc[1] == 0      # odd walls
        assert out["n_configs"].iloc[12] == 2     # Néel states
        assert out["n_configs"].sum() == 4096

    def test_partition_function_values(self):
        out = ising_ring_int(0)
        # Z(1) counts every config once
        assert out[out["k"] == 1]["z_poly"].iloc[0] == 4096
        # Z(0) = ground-state degeneracy
        assert out[out["k"] == 0]["z_poly"].iloc[0] == 2
        assert (out["z_poly"] == out["z_trace"]).all()

    def test_census_masks(self):
        # alternating mask = Néel state: every bond is a wall
        alt = int("101010101010", 2)
        out = ising_ring_int(alt)
        assert out["census_walls"].iloc[0] == ISING_N
        # single flipped spin: exactly 2 walls
        out1 = ising_ring_int(1)
        assert out1["census_walls"].iloc[0] == 2
        out0 = ising_ring_int(0)
        assert out0["census_walls"].iloc[0] == 0

    def test_eigen_identity(self):
        out = ising_ring_int(7)
        for r in out.itertuples():
            assert r.z_trace == (1 + r.k) ** 12 + (1 - r.k) ** 12


class TestGaussLattice:
    def test_floor_div_negative(self):
        assert _floor_div(-7, 2) == -4
        assert _floor_div(7, 2) == 3
        assert _floor_div(-6, 3) == -2

    def test_identity_basis_untouched(self):
        out = gauss_lattice_int([(0, 0, 0)])
        assert (out[["a1", "b1", "a2", "b2"]].iloc[0]
                == [1, 0, 0, 1]).all()
        assert out["det_abs"].iloc[0] == 1

    def test_det_closed_form(self):
        rng = random.Random(79)
        trip = [(rng.randrange(20), rng.randrange(20),
                 rng.randrange(20)) for _ in range(10)]
        out = gauss_lattice_int(trip)
        assert (out["det_abs"] == out["u"] + 1).all()

    def test_reduced_conditions(self):
        rng = random.Random(83)
        trip = [(rng.randrange(20), rng.randrange(20),
                 rng.randrange(20)) for _ in range(15)]
        out = gauss_lattice_int(trip)
        assert (out["n1"] <= out["n2"]).all()
        assert (2 * out["dot12"].abs() <= out["n1"]).all()
        # shortest vector == u1 (the in-kernel box assertion)
        assert (out["min_norm_box"] == out["n1"]).all()
        # Hermite's bound, exact integer form
        assert (3 * out["n1"] ** 2 <= 4 * out["det_abs"] ** 2).all()

    def test_skewed_basis_reduces_hard(self):
        # s = 19, t = 18: initial v2 = (18, 1 + 342 + 17) = huge,
        # reduced basis must be tiny relative to det = 18
        out = gauss_lattice_int([(19, 18, 17)])
        n1 = out["n1"].iloc[0]
        assert n1 * n1 * 3 <= 4 * 18 * 18
        assert out["det_abs"].iloc[0] == 18

    def test_lattice_membership_preserved(self):
        # reduced vectors must lie in the original lattice: solve
        # integer coords against the original basis (det != 0)
        out = gauss_lattice_int([(7, 3, 2), (5, 11, 4)])
        for r in out.itertuples():
            v1 = (1, r.s)
            v2 = (r.t, 1 + r.s * r.t + r.u)
            det = v1[0] * v2[1] - v1[1] * v2[0]
            for vec in [(r.a1, r.b1), (r.a2, r.b2)]:
                # Cramer: coords = (vec x v2)/det, (v1 x vec)/det
                c1 = vec[0] * v2[1] - vec[1] * v2[0]
                c2 = v1[0] * vec[1] - v1[1] * vec[0]
                assert c1 % det == 0 and c2 % det == 0
                x, y = c1 // det, c2 // det
                assert (x * v1[0] + y * v2[0] == vec[0]
                        and x * v1[1] + y * v2[1] == vec[1])

    def test_minkowski_tightness_example(self):
        # hexagonal-ish worst case still satisfies the bound with
        # equality only for the hexagonal lattice; our integer
        # bases stay strictly inside unless degenerate
        out = gauss_lattice_int([(1, 1, 0)])
        assert 3 * out["n1"].iloc[0] ** 2 <= \
            4 * out["det_abs"].iloc[0] ** 2

    def test_random_many(self):
        rng = random.Random(89)
        trip = [(rng.randrange(50), rng.randrange(50),
                 rng.randrange(50)) for _ in range(20)]
        out = gauss_lattice_int(trip)
        assert len(out) == 20
        assert (out["min_norm_box"] == out["n1"]).all()


def test_comb_sanity():
    # the closed form used by both engines
    assert 2 * math.comb(12, 6) == 1848
