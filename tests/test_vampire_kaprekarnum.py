"""Vampire numbers (aggregates.vampire_numbers_int) and Kaprekar
numbers (aggregates.kaprekar_numbers_int) kernel pins."""

from documentai_ray.extras import kaprekar_numbers_int, vampire_numbers_int


class TestVampire:
    def test_complete_list(self):
        out = vampire_numbers_int(0)
        assert list(out["n"]) == [1260, 1395, 1435, 1530, 1827,
                                  2187, 6880]

    def test_fangs_multiply_and_permute(self):
        out = vampire_numbers_int(3)
        for r in out.itertuples():
            assert r.fang1 * r.fang2 == r.n
            assert sorted(str(int(r.fang1)) + str(int(r.fang2))) \
                == sorted(str(int(r.n)))
            assert not (r.fang1 % 10 == 0 and r.fang2 % 10 == 0)

    def test_classic_1260(self):
        out = vampire_numbers_int(0)
        r = out.iloc[0]
        assert (r["fang1"], r["fang2"]) == (21, 60)


class TestKaprekarNumbers:
    def test_complete_list(self):
        out = kaprekar_numbers_int(0)
        assert list(out["n"]) == [1, 9, 45, 55, 99, 297, 703, 999]

    def test_split_identity(self):
        out = kaprekar_numbers_int(5)
        for r in out.itertuples():
            assert r.left + r.right == r.n
            assert r.square == r.n * r.n
            assert r.right > 0

    def test_celebrity_297(self):
        out = kaprekar_numbers_int(0)
        r = out[out["n"] == 297].iloc[0]
        assert (r["left"], r["right"]) == (88, 209)
