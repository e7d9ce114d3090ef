"""Deterministic Miller-Rabin primality (aggregates.miller_rabin_int)
and König matching/cover duality (aggregates.konig_matching_int)
kernel pins."""

import random
from itertools import combinations

from documentai_ray.extras import konig_matching_int, miller_rabin_int


def _sieve(limit):
    is_p = bytearray([1]) * (limit + 1)
    is_p[0] = is_p[1] = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if is_p[i]:
            is_p[i * i::i] = bytearray(len(is_p[i * i::i]))
    return is_p


def _trial_is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class TestMillerRabin:
    def test_exhaustive_vs_sieve(self):
        # every odd candidate in (37, 3*10^4]: is_prime must agree
        # with the sieve, and small_factor must be the least proper
        # divisor < 1000 (0 if none)
        limit = 30_000
        is_p = _sieve(limit)
        cands = list(range(39, limit + 1, 2))
        out = miller_rabin_int(cands)
        for n, ip, sm in zip(out["n"], out["is_prime"],
                             out["small_factor"]):
            assert ip == int(bool(is_p[n])), n
            if ip:
                assert sm == 0
            else:
                least = next(f for f in range(2, n)
                             if n % f == 0)
                assert sm == (least if least < 1000 else 0), n

    def test_random_draws_vs_trial_division(self):
        rng = random.Random(91)
        cands = [rng.randrange(20, 5 * 10 ** 8) * 2 + 1
                 for _ in range(40)]
        out = miller_rabin_int(cands)
        for n, ip in zip(out["n"], out["is_prime"]):
            assert ip == int(_trial_is_prime(int(n))), n

    def test_carmichael_561_caught(self):
        # 561 = 3*11*17 is the smallest Carmichael number: it passes
        # the FERMAT test to base 2 (2^560 = 1 mod 561) yet the
        # STRONG test catches it — the reason MR, not Fermat
        assert pow(2, 560, 561) == 1
        out = miller_rabin_int([561])
        assert out["is_prime"].iloc[0] == 0
        assert out["small_factor"].iloc[0] == 3
        assert out["n_sprp_bases"].iloc[0] < 12

    def test_strong_pseudoprime_2047_needs_more_bases(self):
        # 2047 = 23*89 is the smallest strong pseudoprime to base 2:
        # one base passes, the verdict is still composite — why the
        # deterministic set has 12 bases
        out = miller_rabin_int([2047])
        assert out["is_prime"].iloc[0] == 0
        assert out["n_sprp_bases"].iloc[0] >= 1
        assert out["small_factor"].iloc[0] == 23

    def test_known_prime_pins(self):
        out = miller_rabin_int([41, 104729])
        assert list(out["is_prime"]) == [1, 1]
        assert list(out["n_sprp_bases"]) == [12, 12]
        assert list(out["small_factor"]) == [0, 0]

    def test_composite_beyond_trial_range(self):
        # a product of two primes > 1000: trial division route finds
        # nothing (small_factor = 0) yet MR still says composite —
        # the routes are complementary, not redundant
        n = 1009 * 1013
        out = miller_rabin_int([n])
        assert out["is_prime"].iloc[0] == 0
        assert out["small_factor"].iloc[0] == 0


def _brute_matching(edges):
    # max matching by enumerating all partial injective left->right
    # assignments (6^5 codes, digit 5 = unmatched)
    es = set(edges)
    best = 0
    for code in range(6 ** 5):
        pairs = []
        c = code
        for i in range(5):
            d = c % 6
            c //= 6
            if d < 5:
                pairs.append((i, d))
        if all(p in es for p in pairs) and \
                len({b for _, b in pairs}) == len(pairs):
            best = max(best, len(pairs))
    return best


class TestKonig:
    def test_complete_k55(self):
        out = konig_matching_int([(a, b) for a in range(5)
                                  for b in range(5)])
        assert out["max_matching"].iloc[0] == 5
        assert out["min_cover"].iloc[0] == 5
        assert out["konig_gap"].iloc[0] == 0
        assert out["cover_mask"].iloc[0] == 31  # all-left is smallest
        assert out["n_edges"].iloc[0] == 25

    def test_star_graph(self):
        out = konig_matching_int([(0, b) for b in range(5)])
        assert out["max_matching"].iloc[0] == 1
        assert out["cover_mask"].iloc[0] == 1  # the hub alone

    def test_path_cover_on_right(self):
        # path L0-R0-L1-R1-L2: matching 2; the unique size-2 cover
        # is {R0, R1} = bits 5,6 -> mask 96
        out = konig_matching_int([(0, 0), (1, 0), (1, 1), (2, 1)])
        assert out["max_matching"].iloc[0] == 2
        assert out["min_cover"].iloc[0] == 2
        assert out["cover_mask"].iloc[0] == 96

    def test_augmenting_path_needed(self):
        # greedy left-order matches L0-R0 then blocks L1; the
        # augmenting path re-routes L0 to R1 -> matching 2
        out = konig_matching_int([(0, 0), (0, 1), (1, 0)])
        assert out["max_matching"].iloc[0] == 2
        assert out["cover_mask"].iloc[0] == 3  # {L0, L1} smallest

    def test_empty_graph(self):
        out = konig_matching_int([])
        assert out["max_matching"].iloc[0] == 0
        assert out["min_cover"].iloc[0] == 0
        assert out["cover_mask"].iloc[0] == 0
        assert out["n_edges"].iloc[0] == 0

    def test_duplicate_edges_deduped(self):
        out = konig_matching_int([(0, 0), (0, 0), (0, 0)])
        assert out["n_edges"].iloc[0] == 1
        assert out["max_matching"].iloc[0] == 1

    def test_random_draws_vs_brute_matching(self):
        rng = random.Random(92)
        all_edges = [(a, b) for a in range(5) for b in range(5)]
        for _ in range(20):
            k = rng.randrange(0, 12)
            edges = rng.sample(all_edges, k)
            out = konig_matching_int(edges)
            # independent brute-force matching; the kernel already
            # asserts cover = matching (König) per instance
            assert out["max_matching"].iloc[0] == \
                _brute_matching(edges)
            mask = int(out["cover_mask"].iloc[0])
            assert all((mask >> a) & 1 or (mask >> (5 + b)) & 1
                       for a, b in edges)
