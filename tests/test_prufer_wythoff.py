"""Prüfer/Cayley bijection (aggregates.prufer_cayley_int) and
Wythoff's game (aggregates.wythoff_game_int) kernel pins."""

import math
import random

from documentai_ray.extras import (_prufer_decode, _prufer_encode,
                                   prufer_cayley_int, wythoff_game_int)


class TestPrufer:
    def test_star_from_constant_sequence(self):
        # sequence (0,0,0,0) -> star centered at 0
        out = prufer_cayley_int(0)
        assert list(out["u"]) == [0, 0, 0, 0, 0]
        assert sorted(out["w"]) == [1, 2, 3, 4, 5]
        assert out["n_trees"].iloc[0] == 1296

    def test_path_sequence(self):
        # sequence (1,2,3,4) decodes to the path 0-1-2-3-4-5
        seq = [1, 2, 3, 4]
        edges = _prufer_decode(seq)
        assert edges == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        assert _prufer_encode(edges) == seq

    def test_roundtrip_random(self):
        rng = random.Random(199)
        for _ in range(20):
            seq = [rng.randrange(6) for _ in range(4)]
            edges = _prufer_decode(seq)
            assert _prufer_encode(edges) == seq
            deg = [0] * 6
            for u, w in edges:
                deg[u] += 1
                deg[w] += 1
            for v in range(6):
                assert deg[v] == seq.count(v) + 1

    def test_seed_digits(self):
        s = 1 + 2 * 6 + 3 * 36 + 4 * 216
        out = prufer_cayley_int(s)
        assert (out[["s0", "s1", "s2", "s3"]].iloc[0]
                == [1, 2, 3, 4]).all()


class TestWythoff:
    def test_classic_p_positions(self):
        pairs = [(1, 2), (3, 5), (4, 7), (6, 10), (8, 13),
                 (9, 15), (11, 18), (12, 20)]
        out = wythoff_game_int(pairs)
        assert (out["is_p"] == 1).all()
        assert list(out["beatty_n"]) == list(range(1, 9))

    def test_n_positions(self):
        out = wythoff_game_int([(1, 1), (2, 2), (5, 5), (2, 3),
                                (10, 7)])
        assert (out["is_p"] == 0).all()
        assert (out["beatty_n"] == -1).all()

    def test_origin(self):
        out = wythoff_game_int([(0, 0)])
        assert out["is_p"].iloc[0] == 1
        assert out["beatty_n"].iloc[0] == 0

    def test_beatty_floor_formula(self):
        phi = (1 + math.sqrt(5)) / 2
        for n in range(1, 38):
            lo = (n + math.isqrt(5 * n * n)) // 2
            assert lo == math.floor(n * phi)
