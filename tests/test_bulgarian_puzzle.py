"""Bulgarian solitaire (aggregates.bulgarian_solitaire_int) and
8-puzzle parity (aggregates.puzzle_parity_int) kernel pins."""

import random

from documentai_ray.extras import (_bulg_step, bulgarian_solitaire_int,
                                   puzzle_parity_int)


class TestBulgarian:
    def test_staircase_fixed_point(self):
        assert _bulg_step((5, 4, 3, 2, 1)) == (5, 4, 3, 2, 1)

    def test_single_pile(self):
        # (15) -> (14, 1) -> (13, 2, ...) ... reaches staircase
        cur = (15,)
        for _ in range(100):
            if cur == (5, 4, 3, 2, 1):
                break
            cur = _bulg_step(cur)
        assert cur == (5, 4, 3, 2, 1)

    def test_trajectory_ends_at_staircase(self):
        rng = random.Random(229)
        for _ in range(6):
            out = bulgarian_solitaire_int(rng.randrange(10 ** 6))
            assert out["partition_digits"].iloc[-1] == 54321
            assert out["n_piles"].iloc[-1] == 5

    def test_conservation(self):
        # total cards stay 15 wherever digits are printable
        out = bulgarian_solitaire_int(50)
        for r in out.itertuples():
            if r.partition_digits >= 0:
                s = sum(int(ch) for ch in str(r.partition_digits))
                assert s == 15


class TestPuzzleParity:
    def test_solved_state(self):
        # sel 0 -> identity permutation (0,1,...,8): blank first;
        # inversion count of (1..8) = 0 -> solvable
        out = puzzle_parity_int(0)
        assert list(out["tile"]) == list(range(9))
        assert out["solvable"].iloc[0] == 1
        assert out["n_reachable"].iloc[0] == 181440

    def test_single_swap_unsolvable(self):
        # permutation (0,1,2,3,4,5,6,8,7): one inversion -> no
        out = puzzle_parity_int(1)
        assert list(out["tile"]) == [0, 1, 2, 3, 4, 5, 6, 8, 7]
        assert out["solvable"].iloc[0] == 0

    def test_parity_formula_random(self):
        rng = random.Random(233)
        for _ in range(5):
            out = puzzle_parity_int(rng.randrange(362880))
            tiles = [t for t in out["tile"] if t != 0]
            inv = sum(1 for i in range(8) for j in range(i + 1, 8)
                      if tiles[i] > tiles[j])
            assert out["solvable"].iloc[0] == (1 if inv % 2 == 0
                                               else 0)
