"""2-SAT via implication-graph SCC vs exhaustive sweep
(aggregates.twosat_int) and Sprague-Grundy Nim vs Bouton
(aggregates.nim_grundy_int) kernel pins."""

import random

from documentai_ray.extras import nim_grundy_int, twosat_int


class TestTwoSat:
    def test_unsatisfiable_square(self):
        # (x0 v x1)(x0 v !x1)(!x0 v x1)(!x0 v !x1) exhausts the
        # four sign patterns on two vars: classically UNSAT
        out = twosat_int([(0, 1, 1, 1), (0, 1, 1, 0),
                          (0, 0, 1, 1), (0, 0, 1, 0)])
        assert out["satisfiable"].iloc[0] == 0
        assert out["n_sat_assignments"].iloc[0] == 0
        assert out["max_satisfiable"].iloc[0] == 3
        assert out["sat_under_canonical"].sum() == 3

    def test_tautology_always_satisfied(self):
        out = twosat_int([(0, 1, 0, 0)])
        assert out["satisfiable"].iloc[0] == 1
        assert out["n_sat_assignments"].iloc[0] == 256

    def test_forcing_chain(self):
        # (x0) then x0 -> x1 -> x2 -> x3: exactly the assignments
        # with x0..x3 true satisfy; 2^4 free vars remain
        clauses = [(0, 1, 0, 1), (0, 0, 1, 1), (1, 0, 2, 1),
                   (2, 0, 3, 1)]
        out = twosat_int(clauses)
        assert out["satisfiable"].iloc[0] == 1
        assert out["n_sat_assignments"].iloc[0] == 16
        assert out["canonical_mask"].iloc[0] == 0b1111

    def test_canonical_mask_lex_min(self):
        # (x0 v x1): any mask with bit0 or bit1 satisfies; the
        # canonical certificate is the smallest such mask = 1
        out = twosat_int([(0, 1, 1, 1)])
        assert out["canonical_mask"].iloc[0] == 1

    def test_random_vs_brute_force(self):
        # independent brute force in the test; the kernel already
        # cross-asserts Tarjan-SCC vs its own sweep per call
        rng = random.Random(53)
        for _ in range(25):
            m = rng.randrange(1, 12)
            clauses = [(rng.randrange(8), rng.randrange(2),
                        rng.randrange(8), rng.randrange(2))
                       for _ in range(m)]
            out = twosat_int(clauses)
            brute = any(
                all(((mask >> a) & 1) == sa or ((mask >> b) & 1) == sb
                    for a, sa, b, sb in clauses)
                for mask in range(256))
            assert out["satisfiable"].iloc[0] == (1 if brute else 0)


class TestNimGrundy:
    def test_terminal_and_pair_positions(self):
        out = nim_grundy_int([(0, 0, 0), (1, 1, 0), (5, 5, 0)])
        assert (out["is_p_position"] == 1).all()
        assert (out["win_move_heap"] == -1).all()
        assert (out["grundy"] == 0).all()

    def test_classic_345(self):
        out = nim_grundy_int([(3, 4, 5)])
        assert out["grundy"].iloc[0] == 2
        assert out["is_p_position"].iloc[0] == 0
        # lexicographically first winning move: heap 1 -> size 1
        # (leaves 1,4,5 with XOR 0)
        assert out["win_move_heap"].iloc[0] == 1
        assert out["win_move_newsize"].iloc[0] == 1

    def test_single_heap_take_all(self):
        out = nim_grundy_int([(7, 0, 0)])
        assert out["grundy"].iloc[0] == 7
        assert out["win_move_heap"].iloc[0] == 1
        assert out["win_move_newsize"].iloc[0] == 0

    def test_mod16_reduction(self):
        out = nim_grundy_int([(16, 17, 18)])
        assert (out[["a", "b", "c"]].iloc[0] == [0, 1, 2]).all()

    def test_winning_move_reaches_p_position(self):
        rng = random.Random(59)
        pos = [(rng.randrange(16), rng.randrange(16),
                rng.randrange(16)) for _ in range(20)]
        out = nim_grundy_int(pos)
        for r in out.itertuples():
            assert r.grundy == r.a ^ r.b ^ r.c
            if r.is_p_position:
                continue
            heaps = [r.a, r.b, r.c]
            heaps[r.win_move_heap - 1] = r.win_move_newsize
            assert heaps[0] ^ heaps[1] ^ heaps[2] == 0
            assert r.win_move_newsize < [r.a, r.b, r.c][
                r.win_move_heap - 1]
