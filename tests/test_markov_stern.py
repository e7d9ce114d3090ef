"""Markov tree (aggregates.markov_triples_int) and Stern diatomic
(aggregates.stern_diatomic_int) kernel pins."""

import math
from fractions import Fraction

from documentai_ray.extras import markov_triples_int, stern_diatomic_int


class TestMarkov:
    def test_root_and_counts(self):
        out = markov_triples_int(0)
        assert len(out) == 121
        assert (out["residual"] == 0).all()
        root = out[out["level"] == 0].iloc[0]
        assert (root["x"], root["y"], root["z"]) == (1, 1, 1)

    def test_classical_numbers_present(self):
        out = markov_triples_int(0)
        vals = set(out["x"]) | set(out["y"]) | set(out["z"])
        for m in (1, 2, 5, 13, 29, 34, 169, 194, 433):
            assert m in vals

    def test_known_triples(self):
        out = markov_triples_int(0)
        triples = {(int(r.x), int(r.y), int(r.z))
                   for r in out.itertuples()}
        assert (1, 2, 5) in triples
        assert (1, 5, 13) in triples
        assert (2, 5, 29) in triples


class TestStern:
    def test_sequence_prefix(self):
        out = stern_diatomic_int(0)
        assert list(out["fusc"].iloc[:13]) == \
            [1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5, 2, 5]

    def test_coprime_and_next(self):
        out = stern_diatomic_int(100)
        for r in out.itertuples():
            assert math.gcd(int(r.fusc), int(r.fusc_next)) == 1

    def test_calkin_wilf_distinct(self):
        # the enumeration is injective in-kernel; check the
        # reported window's fractions are pairwise distinct
        out = stern_diatomic_int(50)
        fracs = {Fraction(int(r.fusc), int(r.fusc_next))
                 for r in out.itertuples()}
        assert len(fracs) == 24
