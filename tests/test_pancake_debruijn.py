"""Pancake distances (aggregates.pancake_numbers_int) and the
prefer-one de Bruijn sequence (aggregates.debruijn_sequence_int)
kernel pins."""

from documentai_ray.extras import debruijn_sequence_int, pancake_numbers_int


class TestPancake:
    def test_histogram(self):
        out = pancake_numbers_int(0)
        assert list(out["distance"]) == list(range(8))
        assert list(out["n_perms"]) == [1, 5, 20, 79, 199, 281,
                                        133, 2]
        assert out["n_perms"].sum() == 720
        assert out["pancake_number"].iloc[0] == 7

    def test_identity_distance_zero(self):
        out = pancake_numbers_int(0)
        assert out["sel_distance"].iloc[0] == 0
        assert out["sel_perm_digits"].iloc[0] == 12345

    def test_single_flip_distance_one(self):
        # permutation (1,0,2,3,4,5) = rank ? digits 102345;
        # find its rank: permutations in lex order — it's the
        # 120th (first with leading 1)
        out = pancake_numbers_int(120)
        assert out["sel_perm_digits"].iloc[0] == 102345
        assert out["sel_distance"].iloc[0] == 1


class TestDeBruijn:
    def test_sequence(self):
        out = debruijn_sequence_int(0)
        assert list(out["bit"]) == [0, 0, 0, 0, 1, 1, 1, 1,
                                    0, 1, 1, 0, 0, 1, 0, 1]

    def test_all_windows_distinct(self):
        out = debruijn_sequence_int(3)
        assert out["window"].nunique() == 16
        assert set(out["window"]) == set(range(16))

    def test_rotation(self):
        a = debruijn_sequence_int(0)
        b = debruijn_sequence_int(4)
        assert list(b["bit"]) == (list(a["bit"])[4:]
                                  + list(a["bit"])[:4])
