"""Gray code (aggregates.gray_code_int) and Collatz trajectories
(aggregates.collatz_int) kernel pins."""

from documentai_ray.extras import collatz_int, gray_code_int


class TestGrayCode:
    def test_window_from_zero(self):
        out = gray_code_int(0)
        assert list(out["gray"].iloc[:8]) == [0, 1, 3, 2, 6, 7,
                                              5, 4]
        assert (out["inverse_ok"] == 1).all()

    def test_bit_flipped_is_ruler_sequence(self):
        # flipped bit between g(n) and g(n+1) is the 2-adic
        # valuation of n+1 (the "ruler function")
        out = gray_code_int(0)
        for r in out.itertuples():
            v, k = int(r.n) + 1, 0
            while v % 2 == 0:
                v //= 2
                k += 1
            if r.n != 255:
                assert r.bit_flipped == k

    def test_wraparound_window(self):
        # start near the top: window crosses 255 -> 0; the cycle
        # property (asserted in-kernel) means the 255 -> 0 step
        # flips exactly the top bit
        out = gray_code_int(250)
        row = out[out["n"] == 255].iloc[0]
        assert row["bit_flipped"] == 7
        assert row["gray"] == 128

    def test_start_mod(self):
        out = gray_code_int(256 + 5)
        assert out["n"].iloc[0] == 5


class TestCollatz:
    def test_famous_27(self):
        out = collatz_int([25])          # 25 % 1000 + 2 = 27
        assert out["n0"].iloc[0] == 27
        assert out["steps"].iloc[0] == 111
        assert out["max_val"].iloc[0] == 9232

    def test_powers_of_two_glide(self):
        out = collatz_int([62, 254])     # 64, 256
        assert list(out["steps"]) == [6, 8]
        assert (out["odd_steps"] == 0).all()
        assert (out["first_drop"] == 1).all()

    def test_invariant_replay(self):
        out = collatz_int([7, 100, 500])
        for r in out.itertuples():
            n, steps, odd, mx, fd = int(r.n0), 0, 0, int(r.n0), -1
            while n != 1:
                if n % 2:
                    n = 3 * n + 1
                    odd += 1
                else:
                    n //= 2
                steps += 1
                mx = max(mx, n)
                if fd < 0 and n < r.n0:
                    fd = steps
            assert (steps, mx, odd, fd) == (r.steps, r.max_val,
                                            r.odd_steps,
                                            r.first_drop)
