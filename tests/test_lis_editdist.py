"""LIS / Erdős–Szekeres (aggregates.lis_erdos_szekeres_int) and token
Levenshtein (textstats.token_edit_distance) kernel pins."""

import random

from documentai_ray.extras import lis_erdos_szekeres_int
from documentai_ray.stages.textstats import token_edit_distance


def _brute_lis_nondec(xs):
    best = 0
    n = len(xs)
    for mask in range(1 << n):
        sub = [xs[i] for i in range(n) if mask >> i & 1]
        if all(sub[i] <= sub[i + 1] for i in range(len(sub) - 1)):
            best = max(best, len(sub))
    return best


def _brute_lds_strict(xs):
    best = 0
    n = len(xs)
    for mask in range(1 << n):
        sub = [xs[i] for i in range(n) if mask >> i & 1]
        if all(sub[i] > sub[i + 1] for i in range(len(sub) - 1)):
            best = max(best, len(sub))
    return best


class TestLIS:
    def test_hand_cases(self):
        out = lis_erdos_szekeres_int([3, 1, 4, 1, 5, 9, 2, 6]).iloc[0]
        assert out["lis_nondec"] == 4   # 1 1 5 9 / 3 4 5 9...
        assert out["lds_strict"] == 2
        assert out["es_slack"] == 0

    def test_constant_sequence(self):
        out = lis_erdos_szekeres_int([5] * 9).iloc[0]
        # nondecreasing takes everything; strictly decreasing only 1
        assert out["lis_nondec"] == 9
        assert out["lds_strict"] == 1
        assert out["es_slack"] == 0

    def test_monotone_extremes(self):
        up = lis_erdos_szekeres_int(list(range(10))).iloc[0]
        assert up["lis_nondec"] == 10 and up["lds_strict"] == 1
        dn = lis_erdos_szekeres_int(list(range(10, 0, -1))).iloc[0]
        assert dn["lis_nondec"] == 1 and dn["lds_strict"] == 10

    def test_matches_brute_force(self):
        rng = random.Random(12)
        for _ in range(60):
            xs = [rng.randrange(6) for _ in range(rng.randrange(0, 13))]
            out = lis_erdos_szekeres_int(xs).iloc[0]
            assert out["lis_nondec"] == _brute_lis_nondec(xs)
            assert out["lds_strict"] == _brute_lds_strict(xs)
            assert out["es_slack"] >= 0  # Erdős–Szekeres

    def test_erdos_szekeres_tightness(self):
        # the (r-1)(s-1) grid pattern is the extremal case: slack 0
        # e.g. 3 blocks of 3 descending runs: 2 1 0 | 5 4 3 | 8 7 6
        xs = [2, 1, 0, 5, 4, 3, 8, 7, 6]
        out = lis_erdos_szekeres_int(xs).iloc[0]
        assert out["lis_nondec"] == 3
        assert out["lds_strict"] == 3
        assert out["es_slack"] == 0


class TestTokenEditDistance:
    def test_kitten_sitting(self):
        assert token_edit_distance(list("kitten"), list("sitting")) == 3

    def test_identity_and_empty(self):
        assert token_edit_distance(["a", "b"], ["a", "b"]) == 0
        assert token_edit_distance([], ["x", "y", "z"]) == 3
        assert token_edit_distance(["x"], []) == 1
        assert token_edit_distance([], []) == 0

    def test_symmetry_and_bounds(self):
        rng = random.Random(3)
        vocab = ["aa", "bb", "cc", "dd"]
        for _ in range(100):
            a = [rng.choice(vocab) for _ in range(rng.randrange(0, 10))]
            b = [rng.choice(vocab) for _ in range(rng.randrange(0, 10))]
            d = token_edit_distance(a, b)
            assert d == token_edit_distance(b, a)
            assert abs(len(a) - len(b)) <= d <= max(len(a), len(b),
                                                    0) + 0 or d == 0
            assert d >= abs(len(a) - len(b))
            assert d <= max(len(a), len(b)) if (a or b) else d == 0

    def test_triangle_inequality(self):
        rng = random.Random(17)
        vocab = ["u", "v", "w"]
        for _ in range(80):
            a, b, c = ([rng.choice(vocab)
                        for _ in range(rng.randrange(0, 8))]
                       for _ in range(3))
            assert token_edit_distance(a, c) <= \
                token_edit_distance(a, b) + token_edit_distance(b, c)

    def test_prefix_min_closed_form_equivalence(self):
        # the mirror's row recurrence: row[j] = min_{k<=j}(base[k]+j-k)
        rng = random.Random(23)
        vocab = ["p", "q", "r"]
        for _ in range(60):
            a = [rng.choice(vocab) for _ in range(rng.randrange(1, 8))]
            b = [rng.choice(vocab) for _ in range(rng.randrange(1, 8))]
            m = len(b)
            prev = list(range(m + 1))
            for i in range(1, len(a) + 1):
                base = [prev[0] + 1] + [
                    min(prev[k] + 1,
                        prev[k - 1] + (a[i - 1] != b[k - 1]))
                    for k in range(1, m + 1)]
                prev = [j + min(base[k] - k for k in range(j + 1))
                        for j in range(m + 1)]
            assert prev[m] == token_edit_distance(a, b)
