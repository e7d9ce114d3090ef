"""Abelian sandpile (aggregates.sandpile_abelian_int) and
totient/Moebius (aggregates.totient_moebius_int) kernel pins."""

import random

from documentai_ray.extras import sandpile_abelian_int, totient_moebius_int


class TestSandpile:
    def test_already_stable(self):
        out = sandpile_abelian_int([1, 0, 1, 0, 1, 0, 1, 0, 1, 0])
        assert (out["fires"] == 0).all()
        assert (out["stable"] == out["initial"]).all()

    def test_single_tall_pile_center(self):
        # all chips at one node topple outward symmetrically
        chips = [0] * 10
        chips[4] = 4
        out = sandpile_abelian_int(chips)
        assert (out["stable"] <= 1).all()
        assert out["stable"].sum() + out["fires"].iloc[0] \
            + out["fires"].iloc[9] == 4

    def test_boundary_loss(self):
        # 2 chips at node 0: fires once, one chip to the sink
        chips = [2] + [0] * 9
        out = sandpile_abelian_int(chips)
        assert out["fires"].iloc[0] == 1
        assert out["stable"].iloc[0] == 0
        assert out["stable"].iloc[1] == 1
        assert out["stable"].sum() == 1

    def test_conservation_random(self):
        # the abelian property (3 schedules agree) is asserted
        # in-kernel per call; check conservation externally
        rng = random.Random(109)
        for _ in range(10):
            chips = [rng.randrange(5) for _ in range(10)]
            out = sandpile_abelian_int(chips)
            assert sum(chips) == (out["stable"].sum()
                                  + out["fires"].iloc[0]
                                  + out["fires"].iloc[9])
            assert (out["stable"] <= 1).all()

    def test_big_pile_empties(self):
        # n chips on one node of a path eventually spread/drain;
        # stable config is 0/1-valued everywhere
        out = sandpile_abelian_int([0, 0, 0, 9, 0, 0, 9, 0, 0, 0])
        assert set(out["stable"]).issubset({0, 1})


class TestTotientMoebius:
    def test_known_values(self):
        out = totient_moebius_int([(0, 1), (1, 2), (2, 6),
                                   (3, 8), (4, 9), (5, 10),
                                   (6, 97), (7, 120)])
        got = {int(r.n): (int(r.phi), int(r.mu), int(r.n_divisors))
               for r in out.itertuples()}
        assert got[1] == (1, 1, 1)
        assert got[2] == (1, -1, 2)
        assert got[6] == (2, 1, 4)       # mu(6) = mu(2*3) = +1
        assert got[8] == (4, 0, 4)
        assert got[9] == (6, 0, 3)
        assert got[10] == (4, 1, 4)
        assert got[97] == (96, -1, 2)
        assert got[120] == (32, 0, 16)

    def test_multiplicativity_coprime(self):
        out = totient_moebius_int([(0, 3), (1, 8), (2, 24)])
        got = {int(r.n): int(r.phi) for r in out.itertuples()}
        assert got[24] == got[3] * got[8]

    def test_prime_power(self):
        # phi(p^k) = p^k - p^(k-1)
        out = totient_moebius_int([(0, 27), (1, 32)])
        got = {int(r.n): int(r.phi) for r in out.itertuples()}
        assert got[27] == 27 - 9
        assert got[32] == 32 - 16

    def test_identities_random(self):
        # Gauss/inversion identities are asserted in-kernel; run a
        # random sweep to exercise them
        rng = random.Random(113)
        vals = [(i, rng.randrange(1, 121)) for i in range(20)]
        out = totient_moebius_int(vals)
        assert len(out) == 20
        assert set(out["mu"]).issubset({-1, 0, 1})
