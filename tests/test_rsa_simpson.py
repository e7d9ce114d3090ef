"""Toy RSA with CRT decryption (aggregates.rsa_crt_int) and Simpson
quadrature exactness (aggregates.simpson_cubic_int) kernel pins."""

import random

from documentai_ray.extras import (_next_prime_2mod3, rsa_crt_int,
                                   simpson_cubic_int)


class TestRsaCrt:
    def test_next_prime_2mod3(self):
        # 101 is prime but 101 % 3 = 2? 101 = 3*33+2 -> yes, kept
        assert _next_prime_2mod3(101) == 101
        # 103 % 3 = 1 -> skipped; 107 % 3 = 2 prime
        assert _next_prime_2mod3(102) == 107
        assert _next_prime_2mod3(108) == 113
        for s in range(50, 900, 37):
            p = _next_prime_2mod3(s)
            assert p >= s and p % 3 == 2
            assert all(p % f for f in range(2, p))

    def test_roundtrip_all_residues_small_modulus(self):
        # exhaustive: EVERY residue class round-trips (Euler's
        # theorem needs gcd(m, n) = 1; RSA's textbook surprise is
        # that multiples of p and q round-trip too, via CRT)
        out = rsa_crt_int(100, 150, list(range(120)))
        assert (out["roundtrip_ok"] == 1).all()
        assert (out["crt_agree"] == 1).all()

    def test_key_arithmetic(self):
        out = rsa_crt_int(100, 150, [42])
        p, q = out["p"].iloc[0], out["q"].iloc[0]
        n, d = out["n"].iloc[0], out["d"].iloc[0]
        assert n == p * q
        assert (3 * d) % ((p - 1) * (q - 1)) == 1
        assert out["c"].iloc[0] == pow(42, 3, int(n))

    def test_equal_seeds_bump_q(self):
        out = rsa_crt_int(500, 500, [7])
        assert out["p"].iloc[0] != out["q"].iloc[0]

    def test_random_draws(self):
        rng = random.Random(97)
        for _ in range(15):
            out = rsa_crt_int(rng.randrange(50, 800),
                              rng.randrange(50, 800),
                              [rng.randrange(10 ** 7)
                               for _ in range(8)])
            assert (out["roundtrip_ok"] == 1).all()
            assert (out["crt_agree"] == 1).all()


class TestSimpson:
    def test_exact_on_cubics_random(self):
        # the kernel asserts simpson == closed form per call
        rng = random.Random(98)
        for _ in range(30):
            out = simpson_cubic_int(rng.randrange(7),
                                    rng.randrange(11),
                                    rng.randrange(13),
                                    rng.randrange(17))
            assert out["simpson"].iloc[0] == \
                out["exact_integral"].iloc[0]

    def test_trapezoid_euler_maclaurin_gap(self):
        out = simpson_cubic_int(2, 3, 5, 7)
        # 2T - 2I = 2 * (h^2/12) * (f'(24) - f'(0))
        #         = 2 * (1296a + 36b)
        assert out["trap_gap"].iloc[0] == 2 * (1296 * 2 + 36 * 3)

    def test_constant_and_linear_trapezoid_exact(self):
        # trapezoid IS exact on degree <= 1: gap must vanish
        out = simpson_cubic_int(0, 0, 5, 11)
        assert out["trap_gap"].iloc[0] == 0
        assert out["simpson"].iloc[0] == 5 * 288 + 11 * 24

    def test_quartic_not_exact(self):
        # f = 5 t^4 is NOT a cubic: composite Simpson misses the
        # integral 24^5 by exactly (b-a) h^4 f''''/180 = 1296 —
        # the error constant made visible (computed directly here,
        # outside the cubic kernel)
        def f(t):
            return 5 * t ** 4

        simpson = sum(w * f(3 * i) for i, w in enumerate(
            [1, 4, 2, 4, 2, 4, 2, 4, 1]))
        assert simpson == 24 ** 5 + 1296
