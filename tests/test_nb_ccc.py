"""Naive Bayes integer classifier + Lin's CCC kernels."""
import random
from fractions import Fraction

import pandas as pd
import pytest

from documentai_ray.extras import lin_ccc_int, naive_bayes_int


def _cells(rows):
    """rows = [(cls, h, v, n)] -> census frame."""
    return pd.DataFrame(rows, columns=["cls", "h", "v", "n"])


def test_nb_separable_data_perfect_accuracy():
    out = naive_bayes_int(_cells(
        [("a", 0, 0, 50), ("b", 1, 1, 50)]))
    assert int(out["accuracy_ppm"].iloc[0]) == 1_000_000
    assert set(zip(out["actual"], out["predicted"])) == \
        {("a", "a"), ("b", "b")}


def test_nb_matches_fraction_argmax():
    rng = random.Random(31)
    for _ in range(25):
        rows = [(c, h, v, rng.randrange(1, 50))
                for c in ("a", "b", "c")
                for h in range(3) for v in range(2)
                if rng.random() < 0.7]
        if not rows:
            continue
        cells = _cells(rows)
        out = naive_bayes_int(cells)
        # rebuild exact rational scores per (h, v) cell
        nc = cells.groupby("cls")["n"].sum().to_dict()
        nh = cells.groupby(["cls", "h"])["n"].sum().to_dict()
        nv = cells.groupby(["cls", "v"])["n"].sum().to_dict()
        pred = {}
        for h, v in set(zip(cells["h"], cells["v"])):
            scores = {c: Fraction(
                nc[c] * (nh.get((c, h), 0) + 1)
                * (nv.get((c, v), 0) + 1),
                (nc[c] + 24) * (nc[c] + 10)) for c in sorted(nc)}
            mx = max(scores.values())
            # unique rational argmax -> must match (the 1e-12
            # quantum cannot flip a >=1/(den*den') gap at these
            # count scales); rational ties break by name in both
            pred[(h, v)] = min(c for c, s in scores.items()
                               if s == mx)
        conf = {}
        for r in cells.itertuples(index=False):
            k = (r.cls, pred[(r.h, r.v)])
            conf[k] = conf.get(k, 0) + r.n
        got = {(r.actual, r.predicted): r.n_events
               for r in out.itertuples(index=False)}
        assert got == conf


def test_nb_laplace_unseen_and_prior_tiebreak():
    # class 'b' never seen at h=5 but smoothing keeps it scoreable;
    # with equal priors and symmetric counts the tie breaks to 'a'
    out = naive_bayes_int(_cells(
        [("a", 5, 0, 10), ("b", 5, 0, 10)]))
    assert list(out["predicted"].unique()) == ["a"]


def _mom(x, y):
    n = len(x)
    return (n, sum(x), sum(y), sum(a * a for a in x),
            sum(b * b for b in y), sum(a * b for a, b in zip(x, y)))


def test_ccc_identity_and_shift_penalty():
    x = [3, 7, 11, 2, 9]
    assert int(lin_ccc_int(*_mom(x, x))["ccc_ppm"].iloc[0]) \
        == 1_000_000                      # exact, zero residue
    # pure shift: CCC = 2V / (2V + n^2 d^2), closed form
    d = 4
    y = [v + d for v in x]
    out = lin_ccc_int(*_mom(x, y))
    vx = int(out["var_x_n2"].iloc[0])
    n = len(x)
    assert int(out["ccc_ppm"].iloc[0]) == \
        1_000_000 * 2 * vx // (2 * vx + n * n * d * d)


def test_ccc_symmetry_bounds_and_discordance():
    rng = random.Random(37)
    for _ in range(25):
        n = rng.randrange(3, 20)
        x = [rng.randrange(0, 100) for _ in range(n)]
        y = [rng.randrange(0, 100) for _ in range(n)]
        a = int(lin_ccc_int(*_mom(x, y))["ccc_ppm"].iloc[0])
        b = int(lin_ccc_int(*_mom(y, x))["ccc_ppm"].iloc[0])
        assert a == b                      # bit-exact symmetry
        assert -1_000_000 <= a <= 1_000_000
    # anti-monotone pair with equal means: strictly negative
    x = [1, 2, 3, 4, 5]
    y = [5, 4, 3, 2, 1]
    assert int(lin_ccc_int(*_mom(x, y))["ccc_ppm"].iloc[0]) \
        == -1_000_000                     # perfect mirror discordance


def test_ccc_constant_conventions():
    assert int(lin_ccc_int(*_mom([5, 5], [5, 5]))
               ["ccc_ppm"].iloc[0]) == 1_000_000  # den=0 convention
    # constant vs varying: zero covariance, CCC = 0
    assert int(lin_ccc_int(*_mom([5, 5, 5], [1, 9, 2]))
               ["ccc_ppm"].iloc[0]) == 0
