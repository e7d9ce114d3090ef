"""Analytics/math kernels (part 2/4) — split out of ``stages/aggregates.py`` (VERDICT r2 #5). Chain link: star-imports the previous module so call-time backward references resolve."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pandas as pd
import pyarrow as pa

from documentai_ray.extras.analytics_extras_01 import *  # noqa: F401,F403,E402
from documentai_ray.extras.analytics_extras_01 import __all__ as _PREV_ALL  # noqa: E402




def bullwhip_int(demand: list, grid: list) -> pd.DataFrame:
    """Bullwhip-effect variance amplification (Lee-Padmanabhan-
    Whang 1997 / Chen et al. 2000) — SUPPLY-CHAIN DYNAMICS, a
    family the surface lacked: backlog_dam asks what a demand
    sequence does to a fixed-rate server, but the bullwhip asks
    what an ORDERING POLICY does to the demand signal itself — the
    order-up-to policy with a p-day moving-average forecast and
    lead L places orders o_t = d_t + L·(MA_t − MA_{t−1}), and the
    ratio Var(o)/Var(d) measures the amplification that whipsaws
    upstream suppliers.  Exact integer contract: clear the moving
    average by p — O_t = p·d_t + L·(S_t − S_{t−1}) on rolling sums
    S, compare against D_t = p·d_t on the SAME support
    t ∈ {p+1..n} (stated; clearing both sides by p leaves the
    ratio untouched), variances cleared by m², ONE ppm floor per
    grid cell.  Constant demand ⟹ VD = VO = 0, read as exactly
    10⁶ (no amplification — the convention is safe because
    constant d forces constant o, stated).  Pinned: LINEAR demand
    reads exactly 10⁶ (the MA difference is constant, so o = d +
    const and the variances agree bit-for-bit — the policy
    amplifies VARIABILITY, not trend), a demand step amplifies
    (> 10⁶) and more lead amplifies more on that step, and exact
    integer replays on seeded draws."""
    d = [int(v) for v in demand]
    n = len(d)
    rows = []
    for ell, p in grid:
        ell, p = int(ell), int(p)
        if n < p + 2:
            raise ValueError("series shorter than window + 2")
        s = [sum(d[t - p + 1:t + 1]) for t in range(p - 1, n)]
        # s[i] = rolling sum ending at day index i + p - 1
        big_o = [p * d[t] + ell * (s[t - p + 1] - s[t - p])
                 for t in range(p, n)]
        big_d = [p * d[t] for t in range(p, n)]
        m = n - p
        vd = m * sum(x * x for x in big_d) - sum(big_d) ** 2
        vo = m * sum(x * x for x in big_o) - sum(big_o) ** 2
        bw = 1_000_000 * vo // vd if vd > 0 else 1_000_000
        rows.append((ell, p, m, vd, vo, bw))
    out = pd.DataFrame(rows, columns=[
        "l_days", "p_days", "m_support", "var_d_x", "var_o_x",
        "bullwhip_ppm"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def necklace_count_int(bits: list, k: int = 7) -> pd.DataFrame:
    """Binary-necklace census under rotation (Burnside/Pólya) —
    COUNTING UNDER SYMMETRY, a family the surface lacked: the
    n-gram ops (subsequence_counts, ngram_novelty) count patterns
    as written, but two weekly on/off patterns that are rotations
    of each other are the SAME cyclic schedule, and Burnside's
    lemma counts the distinct classes exactly: #necklaces =
    (1/k)·Σ_{d|k} φ(d)·2^(k/d) — an integer BECAUSE the lemma
    says so (the divisibility is itself pinned for every k ≤ 16,
    and the k = 7 total is the classic 20).  The corpus's daily
    parity stream is cut into its k-day windows, each canonicalized
    to its lexicographically-least rotation (idempotence and
    rotation-invariance pinned), and the observed distinct
    necklaces are reported against the Burnside total.  ZERO
    floors except the coverage ppm."""
    bs = [int(v) % 2 for v in bits]
    k = int(k)
    n = len(bs)
    if n < k:
        raise ValueError("stream shorter than the window")

    def phi(m: int) -> int:
        out, x, f = m, m, 2
        while f * f <= x:
            if x % f == 0:
                while x % f == 0:
                    x //= f
                out -= out // f
            f += 1
        if x > 1:
            out -= out // x
        return out

    total2 = sum(phi(dd) * 2 ** (k // dd)
                 for dd in range(1, k + 1) if k % dd == 0)
    assert total2 % k == 0               # Burnside's divisibility
    possible = total2 // k
    raws = set()
    necks = set()
    for t in range(k - 1, n):
        w = "".join(str(b) for b in bs[t - k + 1:t + 1])
        raws.add(w)
        necks.add(min(w[i:] + w[:i] for i in range(k)))
    out = pd.DataFrame([(n - k + 1, len(raws), len(necks),
                         possible,
                         1_000_000 * len(necks) // possible)],
                       columns=["n_windows", "distinct_raw",
                                "distinct_necklaces",
                                "necklaces_possible",
                                "coverage_ppm"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def wardrop_poa_int(a1: int, a2: int, scenarios: list) -> pd.DataFrame:
    """Wardrop equilibrium + price of anarchy on a two-route
    network (Pigou 1920 / Wardrop 1952 / Roughgarden-Tardos 2002)
    — CONGESTION GAMES, a family the surface lacked: nash_2x2 and
    zerosum_value solve MATRIX games, but selfish ROUTING is the
    game where the players are a continuum of flow and the
    strategy is a path: with linear latencies l₁ = a₁ + b₁f,
    l₂ = a₂ + b₂(1−f) (f = fraction on route 1), the equilibrium
    equalizes latencies — f_eq = (a₂ + b₂ − a₁)/(b₁ + b₂), clamped
    to a corner when one route dominates — while the social
    optimum equalizes MARGINAL costs (a + 2bf), and the ratio of
    their total costs is the price of anarchy, ≤ 4/3 for linear
    latencies — the Roughgarden-Tardos theorem, pinned on seeded
    draws AND achieved exactly by Pigou's example (a₁ = c, b₁ = 0
    vs a₂ = 0, b₂ = c reads PoA = 4/3 bit-exactly).  Exact
    integer contract: f clears by D = b₁ + b₂ (fN ∈ [0, D]), the
    optimum by 2D, total costs clear to EQ = C_eq·D² and
    OPT = C_opt·4D² (both exact integers), poa_ppm = 4·10⁶·EQ //
    OPT is ONE floor, and the equilibrium CERTIFICATE rides along
    as latency_gap = l₁N − l₂N == 0 whenever f is interior
    (the engset visible-theorem discipline).  Degenerate
    b₁ = b₂ = 0: both routes constant — all flow takes the
    cheaper, PoA = 10⁶ (stated)."""
    a1, a2 = int(a1), int(a2)
    rows = []
    for b1, b2 in scenarios:
        b1, b2 = int(b1), int(b2)
        d = b1 + b2
        if d == 0:
            # both routes constant: all flow takes the cheaper
            # (ties take route 2 — stated), selfish == optimal
            rows.append((b1, b2, a1, a2,
                         1_000_000 if a1 < a2 else 0,
                         1_000_000, a1 - a2))
            continue
        fn = max(0, min(d, a2 + b2 - a1))
        l1n = a1 * d + b1 * fn
        l2n = a2 * d + b2 * (d - fn)
        eq = fn * l1n + (d - fn) * l2n          # C_eq * D^2
        gn = max(0, min(2 * d, a2 + 2 * b2 - a1))
        opt = (gn * (2 * d * a1 + b1 * gn)
               + (2 * d - gn) * (2 * d * a2 + b2 * (2 * d - gn)))
        poa = 4 * 1_000_000 * eq // opt if opt > 0 else 1_000_000
        rows.append((b1, b2, a1, a2, 1_000_000 * fn // d, poa,
                     l1n - l2n))
    out = pd.DataFrame(rows, columns=[
        "b1", "b2", "a1_cents", "a2_cents", "f_eq_ppm", "poa_ppm",
        "latency_gap"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def group_testing_int(p_ppm: int, k_grid: list) -> pd.DataFrame:
    """Dorfman pooled-testing design (1943) — GROUP TESTING, a
    family the surface lacked: acceptance_sampling disposes of a
    LOT from a sample, but pooling asks the design question that
    made wartime syphilis screening (and COVID lab pooling)
    tractable — test k specimens as one pool, retest individually
    only on a positive, for an expected per-person cost of
    1/k + 1 − (1−p)^k tests.  Exact floored contract: the pool-
    negative probability (1−p)^k runs as a ppm POWER CHAIN (one
    floor per step — the erlang/mm1 chain discipline, mirrored by
    a recursive CTE), the cost adds 10⁶//k (one floor) and the
    chain's complement; best_k marks the grid argmin (ties to the
    smaller pool, stated).  Pinned: the Dorfman regime boundary —
    pooling HELPS (cost < 10⁶) for small p and is USELESS for
    p ≳ 31% (1 − (1−p)^k < ... every k ≥ 2 costs over one test
    per person — both directions asserted), the textbook p = 1%
    optimum k = 11, cost → 10⁶//k + (k·p-ish) small-p behaviour
    via a Fraction bracket (the chain floors drift the power DOWN
    by ≤ k ppm, so the floored cost sits within k+1 ppm above the
    exact rational — stated and pinned), and monotone: the chain
    power strictly decreases in k for p > 0."""
    p = int(p_ppm)
    rows = []
    for k in k_grid:
        k = int(k)
        if k < 2:
            raise ValueError("pool size must be >= 2")
        pw = 1_000_000
        for _ in range(k):
            pw = pw * (1_000_000 - p) // 1_000_000
        cost = 1_000_000 // k + (1_000_000 - pw)
        rows.append((k, pw, cost))
    out = pd.DataFrame(rows, columns=[
        "k_pool", "neg_pool_ppm", "cost_ppm"])
    best = out.loc[out["cost_ppm"].idxmin(), "k_pool"]
    out["best_k"] = (out["k_pool"] == best).astype("int64")
    out["saves"] = (out["cost_ppm"] < 1_000_000).astype("int64")
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def bond_duration_int(face_cents: int) -> pd.DataFrame:
    """Macaulay duration + convexity of a 12-month coupon bond at
    1%/month yield — FIXED-INCOME RISK, a family the surface
    lacked: loan_amortization SCHEDULES cash flows and crr_option
    prices contingency, but "how much does this bond's price move
    when rates move" is the duration question, and on a RATIONAL
    yield the whole term structure is exact integers: v^t =
    100^t·101^(12−t)/101¹², so price numerator PVN = Σ CF_t·
    100^t·101^(12−t), duration = Σt·CF·w / ΣCF·w (one milli
    floor) and convexity_milli = 1000·Σt(t+1)·CF·w // ΣCF·w —
    the MACAULAY-style curvature (the modified version divides by
    (1+i)², a constant factor both engines could apply; it is
    omitted because the extra 10⁴/10201 rational pushes the
    numerator past HUGEINT at real faces — the overflow was caught
    live by the mirror, and the convention is stated rather than
    squeezed).  Four bonds ride in one output so
    the THEOREMS are visible rows (the engset discipline): the
    ZERO-coupon bond's duration is EXACTLY its maturity (12000
    milli — the defining fact of duration), and the PAR THEOREM —
    coupon rate == yield ⟺ price == face — holds BIT-EXACT
    (PVN == face·101¹², asserted in-kernel, price_ppm_of_face ==
    10⁶ on the par row) with the discount (½%) row strictly below
    par and the premium (2%) row strictly above.  Coupon rows'
    duration < maturity, monotone decreasing in the coupon
    (heavier early cash flows).  Envelope: 10⁶·PVN ≈ 2·10³⁷ keeps
    the face under ~10⁸ cents inside HUGEINT — documented.
    Mirror: the 100^t·101^(12−t) weights as builder-computed
    design literals (the acceptance_sampling discipline)."""
    face = int(face_cents)
    n = 12
    w = [100 ** t * 101 ** (n - t) for t in range(n + 1)]
    full = 101 ** n
    rows = []
    for name, coup in (("zero", 0), ("discount", face // 200),
                       ("par", face // 100), ("premium", face // 50)):
        cfs = [coup] * n
        cfs[n - 1] += face
        pvn = sum(cf * w[t + 1] for t, cf in enumerate(cfs))
        dn = sum((t + 1) * cf * w[t + 1] for t, cf in enumerate(cfs))
        cn = sum((t + 1) * (t + 2) * cf * w[t + 1]
                 for t, cf in enumerate(cfs))
        if coup == face // 100 and face % 100 == 0:
            assert pvn == face * full        # the par theorem
        rows.append((name, coup,
                     1_000_000 * pvn // (face * full),
                     1000 * dn // pvn,
                     1000 * cn // pvn))
    out = pd.DataFrame(rows, columns=[
        "bond", "coupon_cents", "price_ppm_of_face",
        "duration_milli", "convexity_milli"])
    for c in out.columns:
        if c != "bond":
            out[c] = out[c].astype("int64")
    return out


def linkage_diseq_int(n: int, n_a: int, n_b: int,
                      n_ab: int) -> pd.DataFrame:
    """Two-locus linkage disequilibrium — POPULATION GENETICS'
    second rung (hardy_weinberg tests ONE locus against its own
    allele frequencies; LD asks whether TWO loci travel together):
    D = p_AB − p_A·p_B (Lewontin 1964's D′ normalizes by the
    maximum |D| the margins allow; Hill-Robertson 1968's r² is the
    squared correlation — and r², unlike r, needs NO square root,
    which is why it is the integer-exact member).  Cleared by n²:
    DN = n·n_AB − n_A·n_B exact signed integer; D′ divides by
    Dmax⁺ = min(n_A·n_b̄, n_ā·n_B) when DN > 0 and
    Dmax⁻ = min(n_A·n_B, n_ā·n_b̄) when DN < 0 (sign-split, the
    repo discipline); r²_ppm = 10⁶·DN² // (n_A·n_ā·n_B·n_b̄).
    Monomorphic margins make every measure 0 with the flag set
    (stated).  Pinned: perfect coupling (AB and ab only) reads D′
    and r² EXACTLY 10⁶; an exact product table reads DN = 0;
    allele relabel flips DN's sign bit-exactly while |D′| and r²
    are invariant; r² ≤ 10⁶ (Cauchy-Schwarz on the 2×2) and
    r²_ppm ≤ dprime_ppm + 1 (|r| ≤ |D′|).  Envelope: 10⁶·DN² ~
    10⁶n⁴ caps the cohort at ~3·10⁸ subjects inside HUGEINT —
    documented."""
    n, n_a, n_b, n_ab = int(n), int(n_a), int(n_b), int(n_ab)
    na_, nb_ = n - n_a, n - n_b
    dn = n * n_ab - n_a * n_b
    mono = 1 if (n_a in (0, n) or n_b in (0, n)) else 0
    if mono:
        dp = r2 = 0
    else:
        dmax = (min(n_a * nb_, na_ * n_b) if dn > 0
                else min(n_a * n_b, na_ * nb_))
        dp = (0 if dn == 0 else
              (1_000_000 * dn // dmax if dn > 0
               else -(1_000_000 * (-dn) // dmax)))
        r2 = 1_000_000 * dn * dn // (n_a * na_ * n_b * nb_)
    out = pd.DataFrame([(n, n_a, n_b, n_ab, dn, dp, r2, mono)],
                       columns=["n_users", "n_a_even", "n_b_even",
                                "n_both_even", "d_x",
                                "dprime_ppm", "r2_ppm",
                                "monomorphic"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def index_coincidence_int(census: list, k_grid: list) -> pd.DataFrame:
    """Friedman's index of coincidence (1922) — CLASSICAL
    CRYPTANALYSIS, a family the surface lacked: lang_id and yule_k
    fingerprint text statistically, but the IC is codebreaking's
    founding statistic — the probability two randomly drawn letters
    match, Σn(n−1)/(N(N−1)) — and its KEY-LENGTH test splits the
    text into k positional streams (per document, positions of the
    KEPT letters mod k — the normalization is [a-z] only,
    lowercased, stated): at the true period the streams are
    monoalphabetic and the IC jumps.  ``census`` is [(k, stream,
    letter_ord, n)] from ONE bounded exchange (≤ k·k·26 cells per
    k).  Contract: per-stream ic_ppm = 10⁶·Σn(n−1) //
    (N_r(N_r−1)) (one floor; streams with N_r < 2 contribute 0 —
    stated), then ic_avg_ppm = Σ_r ic_r // k (the second,
    documented floor layer).  Pinned: a single repeated letter
    reads 10⁶ exactly, the uniform 26-letter census reads the
    (N/26−1)/(N−1) closed form exactly, and the Vigenère demo —
    'abc' repeated 100× reads IC = 331103 ppm at k = 1 (exact:
    3·9900/89700) but EXACTLY 10⁶ at k = 3, the period detection
    that broke polyalphabetics."""
    from collections import defaultdict

    cnt = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))
    for k, r, ch, n in census:
        cnt[int(k)][int(r)][int(ch)] += int(n)
    rows = []
    for k in k_grid:
        k = int(k)
        tot_ic = 0
        n_chars = 0
        for r in range(k):
            ns = cnt[k][r].values()
            nr = sum(ns)
            n_chars += nr
            if nr >= 2:
                tot_ic += (1_000_000 * sum(n * (n - 1) for n in ns)
                           // (nr * (nr - 1)))
        rows.append((k, n_chars, tot_ic // k))
    out = pd.DataFrame(rows, columns=["k_len", "n_chars",
                                      "ic_avg_ppm"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def lpt_makespan_int(jobs: list, m_grid: list) -> pd.DataFrame:
    """LPT multiprocessor scheduling + Graham's certificate (1966/
    1969) — APPROXIMATION ALGORITHMS WITH GUARANTEES, a family the
    surface lacked: wspt_schedule and johnson_flowshop are EXACT
    optima for their single/two-machine models, but multiprocessor
    makespan is NP-hard and the honest object is a heuristic WITH
    a proven certificate: longest-processing-time greedy (jobs
    sorted desc, each to the least-loaded machine, ties to the
    lowest index — stated) satisfies Graham's per-instance bound
    makespan ≤ total/m + (1 − 1/m)·max_job, carried as the exact
    integer slack m·makespan ≤ total + (m−1)·max_job (graham_slack
    ≥ 0 on EVERY instance — the visible certificate, engset
    discipline), and the a-priori ratio LPT/OPT ≤ 4/3 − 1/(3m) is
    pinned against brute-force optima on small instances.  Lower
    bounds lb = max(⌈total/m⌉, max_job) ride along with
    ratio_vs_lb_ppm = 10⁶·makespan // lb, the op's one floor.
    Equal jobs balance perfectly (pinned)."""
    js = sorted((int(v) for v in jobs), reverse=True)
    total = sum(js)
    mx = js[0] if js else 0
    rows = []
    for m in m_grid:
        m = int(m)
        loads = [0] * m
        for j in js:
            i = loads.index(min(loads))
            loads[i] += j
        mk = max(loads) if loads else 0
        lb = max((total + m - 1) // m, mx)
        rows.append((m, mk, (total + m - 1) // m, mx,
                     total + (m - 1) * mx - m * mk,
                     1_000_000 * mk // lb if lb else 1_000_000))
    out = pd.DataFrame(rows, columns=[
        "m_machines", "makespan", "lb_avg", "lb_max",
        "graham_slack", "ratio_vs_lb_ppm"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def periodogram_int(census, periods=(2, 3, 4, 6)):
    """Exact integer Schuster periodogram over an hourly count series
    — SPECTRAL ANALYSIS as exact arithmetic.  ``census`` is the
    bounded 12-cell exchange ``[(residue mod 12, total count)]``; the
    ordinate at period p needs only the residue-class sums
    S_r = Σ_{t ≡ r (mod p)} x_t because the complex exponential
    e^{-2πit/p} depends on t only through t mod p, so
    X(1/p) = Σ_r S_r ω^r for ω = e^{-2πi/p} — EXACT for the four
    periods whose roots of unity live in Z[i] (p = 2, 4: Gaussian
    integers) or Z[ω₃]/2 (p = 3, 6: Eisenstein halves, cleared by
    reporting 4·|X|², always an integer):

        p=2: 4|X|² = 4(S0−S1)²
        p=4: 4|X|² = 4[(S0−S2)² + (S3−S1)²]
        p=3: 4|X|² = (2S0−S1−S2)² + 3(S2−S1)²
        p=6: 4|X|² = (2S0+S1−S2−2S3−S4+S5)² + 3(S4+S5−S1−S2)²

    Convention stated honestly: this is the periodogram ordinate at
    frequency 1/p over the ENTIRE series (absent hours contribute 0
    and so never need densifying); it coincides with the orthogonal
    DFT bin only when p divides the series length — no division by N
    is ever taken, so the value is exact either way.  ``is_peak``
    marks the argmax row (ties → smaller period).  Arithmetic is
    Python int end-to-end; the mirror's HUGEINT squares cap the safe
    envelope at residue-sum differences ~1.3e19 — documented, far
    beyond any per-hour event census here."""
    s12 = [0] * 12
    for r, n in census:
        s12[int(r) % 12] += int(n)
    rows = []
    for p in periods:
        p = int(p)
        s = [sum(s12[j] for j in range(12) if j % p == r)
             for r in range(p)]
        if p == 2:
            pw = 4 * (s[0] - s[1]) ** 2
        elif p == 4:
            pw = 4 * ((s[0] - s[2]) ** 2 + (s[3] - s[1]) ** 2)
        elif p == 3:
            pw = ((2 * s[0] - s[1] - s[2]) ** 2
                  + 3 * (s[2] - s[1]) ** 2)
        elif p == 6:
            pw = ((2 * s[0] + s[1] - s[2] - 2 * s[3] - s[4]
                   + s[5]) ** 2
                  + 3 * (s[4] + s[5] - s[1] - s[2]) ** 2)
        else:  # pragma: no cover - guarded by the fixed grid
            raise ValueError(f"period {p} has no exact root table")
        rows.append((p, pw))
    best = min(range(len(rows)),
               key=lambda i: (-rows[i][1], rows[i][0]))
    out = pd.DataFrame(
        [(p, pw, 1 if i == best else 0)
         for i, (p, pw) in enumerate(rows)],
        columns=["period", "power_x4", "is_peak"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def maxflow_mincut_int(s_caps, mid_caps, t_caps):
    """Max flow = min cut on the layered s → regions → segments → t
    network, with LP DUALITY AS THE VISIBLE THEOREM.  ``s_caps[r]``
    (r = 0..4), ``mid_caps[(r, g)]`` and ``t_caps[g]`` (g = 0..4) are
    non-negative integer capacities; zero/absent means no edge.

    Two INDEPENDENT computations ride in one row: ``max_flow`` from
    Edmonds-Karp augmenting paths (BFS shortest augmenting, integral
    by the integrality theorem) and ``min_cut`` from brute-force
    enumeration of all 2¹⁰ source-side masks (bit r = region r on the
    source side, bit 5+g = segment g) — the mirror enumerates the
    SAME 1024 cuts in SQL, so the oracle's agreement with the Ray
    side's augmenting-path flow IS max-flow/min-cut duality checked
    per instance.  ``duality_gap = min_cut − max_flow`` is computed,
    not assumed, and asserted 0 in-kernel; ``cut_mask`` is the argmin
    mask (ties → smallest mask), ``n_cut_edges`` counts the
    positive-capacity edges crossing it, and ``total_supply`` =
    Σ s_caps rides along as the visible upper bound."""
    import collections

    S, T = 0, 11

    def cap_of(u, v):
        if u == S and 1 <= v <= 5:
            return int(s_caps.get(v - 1, 0))
        if 1 <= u <= 5 and 6 <= v <= 10:
            return int(mid_caps.get((u - 1, v - 6), 0))
        if 6 <= u <= 10 and v == T:
            return int(t_caps.get(u - 6, 0))
        return 0

    cap = {}
    for u in range(12):
        for v in range(12):
            c = cap_of(u, v)
            if c > 0:
                cap[(u, v)] = cap.get((u, v), 0) + c
                cap.setdefault((v, u), 0)
    flow = 0
    while True:
        parent = {S: None}
        q = collections.deque([S])
        while q and T not in parent:
            u = q.popleft()
            for (a, b), c in cap.items():
                if a == u and b not in parent and c > 0:
                    parent[b] = u
                    q.append(b)
        if T not in parent:
            break
        path, v = [], T
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        aug = min(cap[e] for e in path)
        for (a, b) in path:
            cap[(a, b)] -= aug
            cap[(b, a)] += aug
        flow += aug

    best_cut, best_mask, best_edges = None, None, 0
    for mask in range(1 << 10):
        cut, edges = 0, 0
        for r in range(5):
            c = int(s_caps.get(r, 0))
            if c and not (mask >> r) & 1:
                cut += c
                edges += 1
        for (r, g), c in mid_caps.items():
            c = int(c)
            if c and (mask >> r) & 1 and not (mask >> (5 + g)) & 1:
                cut += c
                edges += 1
        for g in range(5):
            c = int(t_caps.get(g, 0))
            if c and (mask >> (5 + g)) & 1:
                cut += c
                edges += 1
        if best_cut is None or cut < best_cut:
            best_cut, best_mask, best_edges = cut, mask, edges
    assert best_cut == flow, (best_cut, flow)
    out = pd.DataFrame([(flow, best_cut, best_cut - flow, best_mask,
                         best_edges,
                         sum(int(v) for v in s_caps.values()))],
                       columns=["max_flow", "min_cut", "duality_gap",
                                "cut_mask", "n_cut_edges",
                                "total_supply"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def spanning_trees_int(sup_census, cust_census):
    """Weighted spanning-tree count of the complete region graph by
    the MATRIX-TREE THEOREM (Kirchhoff 1847), with the theorem itself
    checked per instance: edge weight w(a,b) = 1 + (sup_a·cust_b +
    sup_b·cust_a) mod 97 (the mod folds census products into [1, 97]
    so the determinant stays in BIGINT at any scale — design choice
    stated; w ≥ 1 keeps K₅ support complete), the reduced 4×4
    Laplacian determinant is computed by fraction-free BAREISS
    elimination (pivots positive because the reduced Laplacian of a
    connected graph is positive definite), and the kernel ALSO sums
    Π w over all 5³ = 125 spanning trees by Prüfer decode — their
    difference ``prufer_gap`` is COMPUTED, asserted 0, and shipped as
    the visible certificate.  ``n_trees_unit`` is the unit-weight
    det, which Cayley's formula pins at 5³ = 125 (asserted).  Mirror:
    the 24-term Leibniz expansion of the same reduced Laplacian."""
    sup = [int(sup_census.get(r, 0)) for r in range(5)]
    cust = [int(cust_census.get(r, 0)) for r in range(5)]
    w = {}
    for a in range(5):
        for b in range(a + 1, 5):
            w[(a, b)] = 1 + (sup[a] * cust[b] + sup[b] * cust[a]) % 97

    def wt(a, b):
        return w[(min(a, b), max(a, b))]

    def reduced_det(weight_fn):
        m = [[0] * 4 for _ in range(4)]
        for i in range(1, 5):
            for j in range(1, 5):
                if i == j:
                    m[i - 1][j - 1] = sum(weight_fn(i, b)
                                          for b in range(5) if b != i)
                else:
                    m[i - 1][j - 1] = -weight_fn(i, j)
        a = [row[:] for row in m]
        prev = 1
        for k in range(3):
            assert a[k][k] != 0  # PD reduced Laplacian: never fires
            for i in range(k + 1, 4):
                for j in range(k + 1, 4):
                    a[i][j] = (a[i][j] * a[k][k]
                               - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return a[3][3]

    det_w = reduced_det(wt)
    det_u = reduced_det(lambda a, b: 1)
    assert det_u == 5 ** 3  # Cayley

    # Prüfer brute force: every sequence in {0..4}^3 is one tree
    brute = 0
    for s0 in range(5):
        for s1 in range(5):
            for s2 in range(5):
                seq = [s0, s1, s2]
                deg = [1] * 5
                for v in seq:
                    deg[v] += 1
                edges, prod = [], 1
                for v in seq:
                    leaf = min(u for u in range(5) if deg[u] == 1)
                    edges.append((leaf, v))
                    deg[leaf] -= 1
                    deg[v] -= 1
                rest = [u for u in range(5) if deg[u] == 1]
                edges.append((rest[0], rest[1]))
                for (a, b) in edges:
                    prod *= wt(a, b)
                brute += prod
    gap = det_w - brute
    assert gap == 0, (det_w, brute)
    out = pd.DataFrame([(5, 10, det_w, det_u, gap)],
                       columns=["n_nodes", "n_edges", "tree_weight",
                                "n_trees_unit", "prufer_gap"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def knapsack_dp_int(items, capacity):
    """0/1 knapsack exact DP with its two classical certificates —
    COMBINATORIAL OPTIMIZATION BY EXACT DP, the pseudo-polynomial
    counterpart to lpt_makespan's bounded greedy.  ``items`` =
    [(key, weight ≥ 1, value ≥ 0)]; DP over capacities 0..W in key
    order gives ``opt_value``; the DANTZIG LP BOUND (sort by exact
    value/weight ratio desc, tie → smaller key; fill whole items to
    the break item, then the fractional remainder, ONE milli floor)
    rides as lp_bound_milli with lp_slack_milli = lp_bound_milli −
    1000·opt ≥ 0 (the relaxation theorem, computed not assumed), and
    the ½-APPROXIMATION theorem max(greedy, best single) ≥ OPT/2
    ships as half_slack = 2·max(greedy_value, best_single) − opt ≥ 0.
    Ratio sorting by double is exact here (value < 2⁵³/weight —
    distinct rationals with these bounds never collide in float64;
    the mirror sorts the same way)."""
    from fractions import Fraction

    items = [(int(k), max(1, int(w)), int(v)) for k, w, v in items]
    items.sort()
    W = int(capacity)
    dp = [0] * (W + 1)
    for _, w, v in items:
        for c in range(W, w - 1, -1):
            if dp[c - w] + v > dp[c]:
                dp[c] = dp[c - w] + v
    opt = dp[W]

    by_ratio = sorted(items,
                      key=lambda t: (-Fraction(t[2], t[1]), t[0]))
    rem, greedy = W, 0
    for _, w, v in by_ratio:
        if w <= rem:
            greedy += v
            rem -= w
    cumw = cumv = 0
    lp_milli = None
    for _, w, v in by_ratio:
        if cumw + w > W:
            lp_milli = (1000 * cumv
                        + 1000 * v * (W - cumw) // w)
            break
        cumw += w
        cumv += v
    if lp_milli is None:
        lp_milli = 1000 * cumv
    best_single = max([v for _, w, v in items if w <= W],
                      default=0)
    out = pd.DataFrame(
        [(len(items), W, opt, greedy, best_single, lp_milli,
          lp_milli - 1000 * opt,
          2 * max(greedy, best_single) - opt)],
        columns=["n_items", "capacity", "opt_value", "greedy_value",
                 "best_single", "lp_bound_milli", "lp_slack_milli",
                 "half_slack"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def mdp_value_iter_int(g_milli):
    """Floored VALUE ITERATION on the 5-state recrawl MDP —
    SEQUENTIAL DECISION MAKING, a family the surface lacked: the
    iterative ops relax a map to ITS OWN fixed point (PageRank,
    logistic_map); an MDP relaxes to the fixed point of a MAX over
    actions, and Bellman optimality is the visible theorem.  States
    s = 0..4 are staleness levels; wait earns (4−s)·1000 milli and
    decays s → min(s+1, 4); crawl earns ``g_milli`` and resets to 0;
    discount 9/10 applied as ONE floor 9·V // 10 per backup (values
    stay ≥ 0 so floor == trunc and the mirror's // agrees — stated).
    From V = 0 the floored operator is monotone nondecreasing and
    bounded, so it converges to the least fixed point EXACTLY; the
    kernel iterates to bit-exact convergence, asserts it within 200
    sweeps (the mirror runs exactly 200 — identical because a fixed
    point stays fixed), and re-computes the Bellman residual
    post-hoc as the shipped certificate.  Tie → wait (action 0),
    stated."""
    G = int(g_milli)
    assert G >= 0
    V = [0] * 5
    for it in range(201):
        NV = []
        for s in range(5):
            wait = (4 - s) * 1000 + 9 * V[min(s + 1, 4)] // 10
            crawl = G + 9 * V[0] // 10
            NV.append(max(wait, crawl))
        if NV == V:
            break
        V = NV
    assert it < 200, "value iteration failed to converge"
    rows = []
    for s in range(5):
        wait = (4 - s) * 1000 + 9 * V[min(s + 1, 4)] // 10
        crawl = G + 9 * V[0] // 10
        rows.append((s, V[s], 1 if crawl > wait else 0,
                     V[s] - max(wait, crawl)))
    out = pd.DataFrame(rows, columns=["state", "v_milli",
                                      "best_action",
                                      "bellman_residual"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def heat_diffusion_int(census, steps=10):
    """Explicit finite-difference heat equation on the 24-hour RING
    — NUMERICAL PDE as exact integer arithmetic, a family the
    surface lacked: the series ops read or score the diurnal profile;
    diffusion EVOLVES it, and scaling the initial condition by 4^T
    makes every step's averaging u'_i = (u_{i−1} + 2u_i + u_{i+1})/4
    an EXACT division (each u at step t is a multiple of 4^(T−t),
    asserted in-kernel — so floor-vs-trunc semantics never matter
    and the mirror's // agrees bit for bit).  Two theorems ride as
    columns: MASS CONSERVATION (total_mass0 = Σ u_0 and mass_drift =
    Σ u_T/4^T − Σ u_0 — exactly 0 because each step's exact average
    preserves the sum) and, in tests, the MAXIMUM PRINCIPLE (the
    range never grows).  u10_milli = 1000·u_T // 4^T is the op's one
    floor.  ``census`` = [(hour 0..23, count)]."""
    T = int(steps)
    u0 = [0] * 24
    for h, n in census:
        u0[int(h) % 24] += int(n)
    scale = 4 ** T
    u = [x * scale for x in u0]
    for _ in range(T):
        nxt = []
        for i in range(24):
            tot = u[(i - 1) % 24] + 2 * u[i] + u[(i + 1) % 24]
            assert tot % 4 == 0
            nxt.append(tot // 4)
        u = nxt
    mass0 = sum(u0)
    drift = sum(u) // scale - mass0 if sum(u) % scale == 0 else None
    assert sum(u) % scale == 0 and drift == 0, "mass not conserved"
    rows = [(i, u0[i], 1000 * u[i] // scale, mass0, 0)
            for i in range(24)]
    out = pd.DataFrame(rows, columns=["hour", "u0", "u10_milli",
                                      "total_mass0", "mass_drift"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def lis_erdos_szekeres_int(values):
    """Longest nondecreasing + longest strictly-decreasing subsequence
    of an integer series, with the ERDŐS–SZEKERES/DILWORTH certificate
    — PERMUTATION COMBINATORICS, a family the surface lacked:
    kendall_tau counts inversions pairwise and ``runs_test_int`` counts
    maximal runs; the LIS is the global order statistic (Ulam's
    problem).  Patience sorting gives both lengths in O(n log n); the
    mirror runs the O(n²) DP — two DIFFERENT algorithms agreeing is
    the check.  The certificate: labelling each element with the
    length of the longest nondecreasing subsequence ending there,
    same-label elements are pairwise strictly decreasing, so
    lis_nondec · lds_strict ≥ n — es_slack = lis·lds − n ≥ 0 is
    COMPUTED and shipped (the theorem as a column; brute-force
    pinned in tests)."""
    import bisect

    xs = [int(v) for v in values]
    n = len(xs)
    tails = []
    for x in xs:
        k = bisect.bisect_right(tails, x)
        if k == len(tails):
            tails.append(x)
        else:
            tails[k] = x
    lis = len(tails)
    tails = []
    for x in xs:  # strictly decreasing == strictly increasing of -x
        k = bisect.bisect_left(tails, -x)
        if k == len(tails):
            tails.append(-x)
        else:
            tails[k] = -x
    lds = len(tails)
    assert lis * lds >= n
    out = pd.DataFrame([(n, lis, lds, lis * lds - n)],
                       columns=["n_periods", "lis_nondec",
                                "lds_strict", "es_slack"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def buzen_network_int(loads, n_jobs=6):
    """Gordon–Newell CLOSED queueing network solved by BUZEN'S
    CONVOLUTION (1973) — the teletraffic family's missing member:
    mm1/mg1/erlang/engset are OPEN systems; a closed network
    circulates a fixed population N and its stationary law is
    product-form with normalization G(N) = Σ_{Σn_i=N} Π t_i^{n_i},
    an INTEGER for integer relative loads t_i.  Buzen's DP
    G_m(n) = G_{m-1}(n) + t_m·G_m(n−1) computes it in O(MN) — and
    the kernel ALSO enumerates every composition of N over M
    stations and asserts the brute-force sum equals the DP (the
    algorithm's correctness checked per instance, the maxflow
    discipline).  Shipped per station: util_ppm = 10⁶·t_i·G(N−1) //
    G(N) (≤ 10⁶ by the bottleneck law t_i·X ≤ 1, asserted) and
    nbar_milli = 10³·Σ_k t_i^k·G(N−k) // G(N) (ONE floor — the
    numerator is summed exactly first); the JOBS-CONSERVATION
    identity Σ_i Σ_k t_i^k G(N−k) = N·G(N) is EXACT pre-floor and
    ships as conservation_gap = 0, computed in both engines."""
    from itertools import combinations

    t = [int(x) for x in loads]
    M, N = len(t), int(n_jobs)
    assert all(x >= 1 for x in t)
    G = [1] + [0] * N          # G_0(n) = [n == 0]
    for m in range(M):
        for n in range(1, N + 1):
            G[n] = G[n] + t[m] * G[n - 1]
        # note: in-place forward scan IS the convolution recurrence

    # brute force: stars-and-bars enumeration of all compositions
    brute = 0
    for bars in combinations(range(N + M - 1), M - 1):
        prev, prod = -1, 1
        parts = []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(N + M - 1 - prev - 1)
        for ti, ni in zip(t, parts):
            prod *= ti ** ni
        brute += prod
    assert brute == G[N], (brute, G[N])

    # G(N-k) needs the full G table: recompute per k via the same DP
    def g_of(n):
        gg = [1] + [0] * n
        for m in range(M):
            for j in range(1, n + 1):
                gg[j] = gg[j] + t[m] * gg[j - 1]
        return gg[n]

    Gk = [g_of(k) for k in range(N + 1)]  # Gk[k] = G(k)
    assert Gk[N] == G[N]
    total = 0
    rows = []
    for i, ti in enumerate(t):
        num_nbar = sum(ti ** k * Gk[N - k] for k in range(1, N + 1))
        total += num_nbar
        util = 1_000_000 * ti * Gk[N - 1] // Gk[N]
        assert util <= 1_000_000  # bottleneck law
        rows.append((i, ti, util, 1000 * num_nbar // Gk[N]))
    gap = total - N * Gk[N]
    assert gap == 0, gap
    out = pd.DataFrame(
        [(s, ti, u, nb, Gk[N - 1], Gk[N], 0)
         for (s, ti, u, nb) in rows],
        columns=["station", "t_load", "util_ppm", "nbar_milli",
                 "g_nm1", "g_n", "conservation_gap"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def tsp_heldkarp_int(weights):
    """Exact TSP on the 5-region complete graph — EXACT
    COMBINATORIAL OPTIMIZATION over tours, the knapsack_dp
    discipline on a permutation space: lpt bounded a greedy,
    knapsack DP'd subsets; Held–Karp (1962) DPs subsets × endpoints.
    ``weights[(a, b)]`` for a < b.  The kernel runs Held–Karp AND
    enumerates all (5−1)!/2 = 12 distinct tours, asserting equality
    (algorithm correctness per instance); the mirror enumerates the
    same 24 fixed-start permutations in SQL.  Two classical lower
    bounds ride as computed columns: the DEGREE bound
    Σ_v(two cheapest edges at v) ≤ 2·OPT (slack ×2, exact) and the
    1-TREE bound MST(V∖{0}) + two cheapest edges at 0 ≤ OPT (the
    MST found by brute force over the 4² = 16 Prüfer trees)."""
    from itertools import permutations

    def w(a, b):
        return int(weights[(min(a, b), max(a, b))])

    # Held–Karp over subsets of {1..4}, start/end at 0
    best_dp = None
    dp = {}
    for j in range(1, 5):
        dp[(1 << j, j)] = w(0, j)
    for size in range(2, 5):
        for sub in range(16):
            S = [j + 1 for j in range(4) if sub >> j & 1]
            if len(S) != size:
                continue
            mask = sum(1 << j for j in S)
            for j in S:
                prev_mask = mask ^ (1 << j)
                dp[(mask, j)] = min(
                    dp[(prev_mask, k)] + w(k, j)
                    for k in S if k != j)
    full = 0b11110
    best_dp = min(dp[(full, j)] + w(j, 0) for j in range(1, 5))

    best_brute = None
    for perm in permutations(range(1, 5)):
        cost = w(0, perm[0]) + sum(
            w(perm[i], perm[i + 1]) for i in range(3)) + w(perm[3], 0)
        if best_brute is None or cost < best_brute:
            best_brute = cost
    assert best_dp == best_brute, (best_dp, best_brute)

    # degree bound: sum over v of its two cheapest incident edges
    deg2 = 0
    for v in range(5):
        inc = sorted(w(v, u) for u in range(5) if u != v)
        deg2 += inc[0] + inc[1]
    assert deg2 <= 2 * best_dp

    # 1-tree: MST over {1..4} by Prüfer brute force + 2 cheapest at 0
    mst = None
    for s0 in range(4):
        for s1 in range(4):
            seq = [s0, s1]
            deg = [1] * 4
            for v in seq:
                deg[v] += 1
            cost = 0
            dd = deg[:]
            for v in seq:
                leaf = min(u for u in range(4) if dd[u] == 1)
                cost += w(leaf + 1, v + 1)
                dd[leaf] -= 1
                dd[v] -= 1
            rest = [u for u in range(4) if dd[u] == 1]
            cost += w(rest[0] + 1, rest[1] + 1)
            if mst is None or cost < mst:
                mst = cost
    at0 = sorted(w(0, u) for u in range(1, 5))
    onetree = mst + at0[0] + at0[1]
    assert onetree <= best_dp
    out = pd.DataFrame(
        [(best_dp, 12, 2 * best_dp - deg2, onetree,
          best_dp - onetree)],
        columns=["opt_cost", "n_tours", "degree_slack_x2",
                 "onetree_lb", "onetree_slack"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def ffd_binpack_int(sizes, capacity):
    """FIRST-FIT DECREASING bin packing — the approximation family's
    other canonical member (lpt_makespan bounds makespan; FFD bounds
    bin count, with Dósa's tight FFD ≤ 11/9·OPT + 6/9 pinned against
    brute-force optima in tests).  Items sorted descending (ties
    keep input order — stable sort, stated), each placed in the
    FIRST bin with room, new bin if none.  The size lower bound
    lb = ⌈total/cap⌉ ships with slack = n_bins − lb ≥ 0 COMPUTED,
    plus waste = n_bins·cap − total ≥ 0; items larger than the
    capacity are rejected (asserted — the query's size domain makes
    them impossible, stated)."""
    szs = [int(s) for s in sizes]
    cap = int(capacity)
    assert all(1 <= s <= cap for s in szs)
    bins = []
    for s in sorted(szs, reverse=True):
        for i, b in enumerate(bins):
            if b + s <= cap:
                bins[i] = b + s
                break
        else:
            bins.append(s)
    total = sum(szs)
    lb = -(-total // cap) if szs else 0
    out = pd.DataFrame(
        [(len(szs), cap, len(bins), lb, len(bins) - lb,
          len(bins) * cap - total)],
        columns=["n_items", "capacity", "n_bins_ffd", "lb_size",
                 "lb_slack", "waste"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def huffman_cost_int(letter_census):
    """Optimal prefix-code cost by HUFFMAN'S GREEDY (1952) — SOURCE
    CODING, a family the surface lacked: Lempel–Ziv complexity measures a
    UNIVERSAL parse; Huffman is the optimal KNOWN-statistics code,
    and its total cost Σ w_i·len_i equals the sum of the internal
    node weights created by the merges — a tie-break-invariant
    integer (every Huffman tree is optimal, so the total is
    well-defined even though depth profiles differ; stated), which
    is what lets the mirror carry only a sorted weight multiset.
    OPTIMALITY is pinned against brute force over ALL binary code
    trees on small alphabets, and the Shannon bound
    H ≤ cost/W < H+1 is pinned in floats.  Zero-count letters are
    excluded (stated); a 1-symbol alphabet costs 0 by the merge
    definition (no merge happens — the degenerate convention,
    stated).  Shipped: the cost, the fixed-length baseline
    W·⌈log₂n⌉ and savings_ppm = 10⁶·cost // fixed (ONE floor)."""
    ws = sorted(int(n) for _, n in letter_census if int(n) > 0)
    n = len(ws)
    total_w = sum(ws)
    heap = ws[:]
    cost = 0
    while len(heap) > 1:
        heap.sort()
        a, b = heap[0], heap[1]
        heap = heap[2:] + [a + b]
        cost += a + b
    fixed_bits = 0 if n <= 1 else (n - 1).bit_length()
    fixed = total_w * fixed_bits
    out = pd.DataFrame(
        [(n, total_w, cost, fixed,
          1_000_000 * cost // fixed if fixed else 0)],
        columns=["n_symbols", "total_weight", "huffman_cost",
                 "fixed_cost", "savings_ppm"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def coupon_collector_micro(n_types, completion_draws):
    """COUPON-COLLECTOR occupancy arithmetic: expected draws to see
    all n types is n·H_n; the micro chain Σ_k ⌊10⁶·n / k⌋ floors
    once per harmonic term (the group_testing discipline — drift
    DOWN by < n micro vs the exact rational, bracketed in tests).
    ratio_ppm = 10¹²·observed // expected_micro compares the
    corpus's actual completion time against the theory."""
    n = int(n_types)
    obs = int(completion_draws)
    exp_micro = sum(1_000_000 * n // k for k in range(1, n + 1))
    out = pd.DataFrame(
        [(n, obs, exp_micro,
          10 ** 12 * obs // exp_micro if exp_micro else 0)],
        columns=["n_types", "completion_draws", "expected_micro",
                 "ratio_ppm"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


BATCHER8 = [(0, 1), (2, 3), (4, 5), (6, 7),
            (0, 2), (1, 3), (4, 6), (5, 7),
            (1, 2), (5, 6),
            (0, 4), (1, 5), (2, 6), (3, 7),
            (2, 4), (3, 5),
            (1, 2), (3, 4), (5, 6)]


def batcher_sort_int(values):
    """Batcher ODD-EVEN MERGESORT network on 8 wires — SORTING
    NETWORKS / data-oblivious parallel algorithms, a family the
    surface lacked: every other sort here is data-dependent; a
    network is a FIXED sequence of 19 compare-exchange gates whose
    correctness on ALL inputs follows from the 0-1 PRINCIPLE
    (correct on all 2⁸ binary vectors ⇒ correct on everything —
    pinned EXHAUSTIVELY in tests).  Ships one row per wire with the
    input and output values, the per-instance is_sorted certificate
    (computed by scanning the output, not assumed), and the gate
    count.  The mirror replays the identical gate list as generated
    chained least/greatest CTEs."""
    v = [int(x) for x in values]
    assert len(v) == 8
    inp = v[:]
    for (a, b) in BATCHER8:
        if v[a] > v[b]:
            v[a], v[b] = v[b], v[a]
    ok = 1 if all(v[i] <= v[i + 1] for i in range(7)) else 0
    assert ok == 1
    out = pd.DataFrame(
        [(i, inp[i], v[i], ok, len(BATCHER8)) for i in range(8)],
        columns=["wire", "in_value", "out_value", "is_sorted",
                 "n_comparators"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


VITERBI_W = [[3, 1], [1, 3]]   # sticky transition weights
VITERBI_E = [[3, 1], [1, 3]]   # emission weights E[state][obs]


def viterbi_decode_int(obs):
    """Exact MAX-PRODUCT Viterbi decoding of a 2-state HMM over the
    hourly parity observations — PROBABILISTIC GRAPHICAL MODELS, a
    family the surface lacked: naive_bayes scores i.i.d. features
    and ``markov_kstep_int`` folds a chain forward; Viterbi finds the single
    best LATENT PATH, and integer weights (sticky 3/1 transitions,
    3/1 emissions — design constants shared with the mirror) make
    every score an exact integer (≤ 3·9²³ < 2¹²⁸, HUGEINT envelope
    stated).  Ties → lower state index, stated.  The carry-the-path
    trick (each state drags its argmax path string) replaces
    backtracking — what lets the mirror be ONE forward recursive
    CTE.  Certificates: the decoded score ≥ both constant paths'
    scores, COMPUTED and shipped as flags; exhaustive optimality
    over all 2^T paths pinned in tests at T = 8."""
    T = len(obs)
    obs = [int(o) & 1 for o in obs]
    if T == 0:
        return pd.DataFrame(columns=[
            "t", "obs", "state", "n_switches", "beats_const0",
            "beats_const1"]).astype("int64")
    v = [VITERBI_E[s][obs[0]] for s in range(2)]
    path = ["0", "1"]
    for t in range(1, T):
        nv, np_ = [], []
        for s in range(2):
            cand = [v[sp] * VITERBI_W[sp][s] for sp in range(2)]
            sp = 0 if cand[0] >= cand[1] else 1  # tie -> lower
            nv.append(cand[sp] * VITERBI_E[s][obs[t]])
            np_.append(path[sp] + str(s))
        v, path = nv, np_
    best = 0 if v[0] >= v[1] else 1
    dec = [int(c) for c in path[best]]

    def score(states):
        sc = VITERBI_E[states[0]][obs[0]]
        for t in range(1, T):
            sc *= VITERBI_W[states[t - 1]][states[t]] \
                * VITERBI_E[states[t]][obs[t]]
        return sc

    sc_best = v[best]
    assert sc_best == score(dec)
    b0 = 1 if sc_best >= score([0] * T) else 0
    b1 = 1 if sc_best >= score([1] * T) else 0
    assert b0 == 1 and b1 == 1
    sw = sum(1 for t in range(1, T) if dec[t] != dec[t - 1])
    out = pd.DataFrame(
        [(t, obs[t], dec[t], sw, b0, b1) for t in range(T)],
        columns=["t", "obs", "state", "n_switches", "beats_const0",
                 "beats_const1"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def rule90_ring_int(bits, steps=8):
    """Elementary cellular automaton RULE 90 on the 24-cell ring —
    ADDITIVE CA, a family the surface lacked: heat_diffusion evolves
    a LINEAR (averaging) grid; rule 90 is the GF(2) linear one
    (cell' = left XOR right), so SUPERPOSITION holds exactly
    (CA(a⊕b) = CA(a)⊕CA(b), pinned in tests along with the
    Pascal-triangle single-seed evolution).  The ring state is ONE
    24-bit integer; a step is two rotates and an xor — identical in
    both engines.  The visible theorem: after ANY step, every
    reachable state has EVEN weight (each cell feeds exactly two
    neighbours, so the new total parity XORs every bit twice) —
    even_weight is COMPUTED on the evolved state and asserted."""
    n = 24
    m = 0
    for i, b in enumerate(bits):
        if int(b) & 1:
            m |= 1 << i
    m0 = m
    mask = (1 << n) - 1
    for _ in range(int(steps)):
        left = ((m << 1) & mask) | (m >> (n - 1))
        right = (m >> 1) | ((m & 1) << (n - 1))
        m = left ^ right
    even = 1 if bin(m).count("1") % 2 == 0 else 0
    if steps >= 1:
        assert even == 1
    out = pd.DataFrame(
        [(i, (m0 >> i) & 1, (m >> i) & 1, even)
         for i in range(n)],
        columns=["cell", "bit0", "bit_t", "even_weight"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def miller_rabin_int(candidates):
    """Deterministic MILLER-RABIN primality over the corpus-derived
    odd candidates — COMPUTATIONAL NUMBER THEORY, a family the
    surface lacked (cf_convergents is Diophantine approximation;
    this is modular arithmetic): the 12 bases 2..37 are a proven
    deterministic witness set for every n < 3.3·10²⁴ (Sorenson &
    Webster), far above any corpus-derived candidate — stated.
    Per candidate: strong-probable-prime test to every base
    (n−1 = d·2^s; pass iff a^d ≡ 1 or a^(d·2^j) ≡ −1 for some
    j < s), is_prime = all bases pass, plus small_factor = the
    least PROPER divisor < 1000 (0 if none) as the cross-checkable
    certificate: is_prime = 1 forces small_factor = 0, and every
    composite with a small factor is caught by both routes
    (agreement asserted in-kernel; exhaustive sieve pin < 3·10⁴
    plus random draws < 10⁹ in tests — both far inside the proven
    deterministic range).  Mirror: recursive square-and-multiply
    modpow + the squaring chain per (candidate, base)."""
    rows = []
    for n in candidates:
        n = int(n)
        assert n % 2 == 1 and n > 37
        d, s = n - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        passes = 0
        for a in MR_BASES:
            x = pow(a % n, d, n)
            ok = x == 1 or x == n - 1
            for _ in range(s - 1):
                if ok:
                    break
                x = x * x % n
                if x == n - 1:
                    ok = True
            passes += 1 if ok else 0
        is_prime = 1 if passes == len(MR_BASES) else 0
        small = 0
        for f in range(2, min(1000, n)):
            if n % f == 0:
                small = f
                break
        if is_prime:
            assert small == 0
        if small:
            assert is_prime == 0
        rows.append((n, is_prime, passes, small))
    out = pd.DataFrame(rows, columns=["n", "is_prime",
                                      "n_sprp_bases",
                                      "small_factor"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def konig_matching_int(edges):
    """Maximum bipartite matching = minimum vertex cover — KÖNIG'S
    THEOREM (1931) as the oracle, the bipartite sibling of
    maxflow_mincut's LP duality: ``edges`` ⊆ {0..4}×{0..4} (left =
    regions, right = segments).  The kernel computes the matching by
    Hungarian augmenting paths AND the min cover by brute force over
    all 2¹⁰ vertex subsets (tie → smallest mask, bits 0-4 left /
    5-9 right); the mirror enumerates the SAME subsets in SQL —
    agreement per instance IS König's theorem.  konig_gap is
    COMPUTED and asserted 0."""
    edges = sorted(set((int(a), int(b)) for a, b in edges))
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)

    match_r = {}

    def augment(a, seen):
        for b in adj.get(a, []):
            if b in seen:
                continue
            seen.add(b)
            if b not in match_r or augment(match_r[b], seen):
                match_r[b] = a
                return True
        return False

    matching = 0
    for a in sorted(adj):
        if augment(a, set()):
            matching += 1

    best, best_mask = None, None
    for mask in range(1 << 10):
        if all((mask >> a) & 1 or (mask >> (5 + b)) & 1
               for a, b in edges):
            size = bin(mask).count("1")
            if best is None or size < best:
                best, best_mask = size, mask
    gap = best - matching
    assert gap == 0, (best, matching)
    out = pd.DataFrame(
        [(matching, best, gap, best_mask, len(edges))],
        columns=["max_matching", "min_cover", "konig_gap",
                 "cover_mask", "n_edges"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def convex_hull_int(points):
    """Planar convex hull over the corpus-derived integer points —
    COMPUTATIONAL GEOMETRY, a family the surface lacked entirely
    (grid bucketing of coordinates, no geometric
    structure): Andrew's monotone chain (1979) builds the hull in
    O(n log n), and every vertex flag is cross-certified against
    the EXTREME-POINT characterization p is a vertex iff
    p ∉ conv(S∖{p}) — by Carathéodory in the plane, iff no closed
    NON-DEGENERATE triangle of other points contains p and p lies
    on no closed segment between two other points (the degenerate
    cases: duplicates removed up front, collinear runs caught by
    the segment test).  diam2 = max squared distance over ALL
    distinct pairs — equal to the vertex-pair maximum because the
    diameter of a set is attained at extreme points (stated), so
    the mirror needs no hull ORDER at all; the chain==brute
    agreement is asserted per instance, shoelace area2 == 0 iff
    hull_size <= 2 likewise.  Mirror: the same brute
    characterization as EXISTS over segment pairs and signed-area
    triple tests."""
    pts = sorted(set((int(x), int(y)) for x, y in points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) \
            - (a[1] - o[1]) * (b[0] - o[0])

    if len(pts) <= 2:
        hull = list(pts)
    else:
        lower = []
        for p in pts:
            while len(lower) >= 2 and \
                    cross(lower[-2], lower[-1], p) <= 0:
                lower.pop()
            lower.append(p)
        upper = []
        for p in reversed(pts):
            while len(upper) >= 2 and \
                    cross(upper[-2], upper[-1], p) <= 0:
                upper.pop()
            upper.append(p)
        hull = lower[:-1] + upper[:-1]
    hset = set(hull)

    from itertools import combinations
    for p in pts:
        others = [q for q in pts if q != p]
        notv = False
        for q, r in combinations(others, 2):
            if cross(q, r, p) == 0 and \
                    (p[0] - q[0]) * (p[0] - r[0]) \
                    + (p[1] - q[1]) * (p[1] - r[1]) <= 0:
                notv = True
                break
        if not notv:
            for q, r, s in combinations(others, 3):
                if cross(q, r, s) == 0:
                    continue
                d1 = cross(q, r, p)
                d2 = cross(r, s, p)
                d3 = cross(s, q, p)
                neg = d1 < 0 or d2 < 0 or d3 < 0
                pos = d1 > 0 or d2 > 0 or d3 > 0
                if not (neg and pos):
                    notv = True
                    break
        assert (p in hset) == (not notv), p

    area2 = abs(sum(hull[i][0] * hull[(i + 1) % len(hull)][1]
                    - hull[(i + 1) % len(hull)][0] * hull[i][1]
                    for i in range(len(hull)))) if hull else 0
    assert (area2 == 0) == (len(hull) <= 2)
    diam2 = max(((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
                 for a in pts for b in pts), default=0)
    if len(pts) > 1:
        vd = max((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
                 for a in hull for b in hull)
        assert vd == diam2

    out = pd.DataFrame(
        [(x, y, 1 if (x, y) in hset else 0, len(hull), diam2,
          len(pts)) for x, y in pts],
        columns=["x", "y", "is_vertex", "hull_size", "diam2",
                 "n_distinct"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def josephus_int(k, n_max=40):
    """The JOSEPHUS elimination circle for every n = 1..n_max at
    corpus-derived step k — COMBINATORIAL ELIMINATION RECURRENCES,
    a family the surface lacked (secretary_stop is optimal
    stopping; this is exact survivor position): J(1) = 0,
    J(n) = (J(n-1) + k) mod n, and the kernel SIMULATES the actual
    circle (pop every k-th, 0-indexed) for every n asserting the
    recurrence per instance — the algorithm and its closed
    recurrence cross-certify.  The k = 2 bit-rotation closed form
    J(2^m + l) = 2l is pinned in tests.  Mirror: ONE forward
    recursive CTE on the recurrence."""
    k = int(k)
    assert k >= 1
    rows, j = [], 0
    for n in range(1, n_max + 1):
        j = 0 if n == 1 else (j + k) % n
        people, idx = list(range(n)), 0
        while len(people) > 1:
            idx = (idx + k - 1) % len(people)
            people.pop(idx)
        assert people[0] == j, (n, k, people[0], j)
        rows.append((n, j, k))
    out = pd.DataFrame(rows, columns=["n", "survivor", "k"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _next_prime_2mod3(x):
    """Least prime p >= x with p % 3 == 2 (so gcd(3, p-1) = 1 and
    e = 3 is a valid RSA exponent) — shared derivation, stated."""
    p = max(int(x), 5)
    while True:
        if p % 3 == 2 and all(p % f for f in range(2, int(p ** 0.5) + 1)):
            return p
        p += 1


def rsa_crt_int(seed_p, seed_q, messages):
    """Toy RSA round-trip with CRT decryption — PUBLIC-KEY
    CRYPTOGRAPHY, a family the surface lacked (index_coincidence is
    classical-cipher cryptanalysis; luhn/crc/hamming are checksums
    and channel codes; nothing here was asymmetric): p, q = least
    primes >= the corpus seeds with p ≡ 2 (mod 3) — the congruence
    guarantees gcd(3, p−1) = 1 so e = 3 is valid, and makes the
    private exponent a CLOSED FORM d = (2φ+1)/3 if φ ≡ 1 (mod 3)
    else (φ+1)/3 (φ = (p−1)(q−1) is never ≡ 0: both engines use
    the same formula, stated).  Per message m < n: c = m³ mod n,
    decrypt TWICE — directly m' = c^d mod n, and by CRT/Garner
    (m_p = c^(d mod p−1) mod p, m_q likewise, q_inv = q^(p−2) mod p
    by Fermat, m = m_q + q·((q_inv·(m_p − m_q)) mod p)) — Euler's
    theorem says both give m back, asserted per message
    (roundtrip_ok, crt_agree COMPUTED).  Mirror: the same
    next-prime search and modpow chains in recursive SQL."""
    p = _next_prime_2mod3(seed_p)
    q = _next_prime_2mod3(seed_q)
    if q == p:
        q = _next_prime_2mod3(p + 1)
    n, phi = p * q, (p - 1) * (q - 1)
    assert phi % 3 != 0
    d = (2 * phi + 1) // 3 if phi % 3 == 1 else (phi + 1) // 3
    assert (3 * d) % phi == 1
    q_inv = pow(q, p - 2, p)
    assert (q_inv * q) % p == 1
    rows = []
    for i, m in enumerate(messages):
        m = int(m) % n
        c = pow(m, 3, n)
        md = pow(c, d, n)
        mp = pow(c, d % (p - 1), p)
        mq = pow(c, d % (q - 1), q)
        mcrt = mq + q * ((q_inv * (mp - mq)) % p)
        assert md == m, (m, md)
        assert mcrt == md
        rows.append((i, m, c, p, q, n, d,
                     1 if md == m else 0,
                     1 if mcrt == md else 0))
    out = pd.DataFrame(rows, columns=["i", "m", "c", "p", "q", "n",
                                      "d", "roundtrip_ok",
                                      "crt_agree"])
    for col in out.columns:
        out[col] = out[col].astype("int64")
    return out


def simpson_cubic_int(a, b, c, d):
    """Composite Simpson quadrature of the corpus-seeded cubic
    f(t) = a·t³ + b·t² + c·t + d over [0, 24] with 8 panels
    (h = 3, so h/3 = 1 and the rule is the INTEGER weighted sum
    1,4,2,...,4,1) — NUMERICAL QUADRATURE, a family the surface
    lacked (heat_diffusion evolves a PDE; nothing integrated):
    Simpson's error term carries f⁗, so on a cubic the rule is
    EXACT — simpson == the closed-form integral
    a·24⁴/4 + b·24³/3 + c·24²/2 + d·24 (all integer because
    4 | 24⁴·... design choice), asserted.  The trapezoid rule is
    NOT exact, and Euler–Maclaurin says its error on a cubic is
    EXACTLY h²/12·(f′(24) − f′(0)) (the f‴ term cancels — f‴ is
    constant): trap_gap = 2T − 2I == 2·(1296a + 36b) asserted,
    carried doubled to stay integral.  Mirror: the same integer
    arithmetic over generate_series."""
    a, b, c, d = int(a), int(b), int(c), int(d)

    def f(t):
        return a * t ** 3 + b * t ** 2 + c * t + d

    simpson = sum(w * f(3 * i) for i, w in enumerate(
        [1, 4, 2, 4, 2, 4, 2, 4, 1]))
    exact = a * 24 ** 4 // 4 + b * 24 ** 3 // 3 \
        + c * 24 ** 2 // 2 + d * 24
    twice_trap = 3 * sum(w * f(3 * i) for i, w in enumerate(
        [1, 2, 2, 2, 2, 2, 2, 2, 1]))
    assert simpson == exact
    trap_gap = twice_trap - 2 * exact
    assert trap_gap == 2 * (1296 * a + 36 * b)
    out = pd.DataFrame(
        [(a, b, c, d, simpson, exact, twice_trap, trap_gap)],
        columns=["a", "b", "c", "d", "simpson", "exact_integral",
                 "twice_trap", "trap_gap"])
    for col in out.columns:
        out[col] = out[col].astype("int64")
    return out


RAMSEY_EDGES = [(i, j) for i in range(6) for j in range(i + 1, 6)]
RAMSEY_EIDX = {e: k for k, e in enumerate(RAMSEY_EDGES)}
RAMSEY_TRIS = [(i, j, k) for i in range(6) for j in range(i + 1, 6)
               for k in range(j + 1, 6)]


def ramsey_k6_int(bits):
    """Two-coloring of K6's 15 edges from the corpus parity census —
    RAMSEY THEORY, a family the surface lacked (necklace_count is
    symmetry counting; this is unavoidable-structure): R(3,3) = 6
    says EVERY 2-coloring contains a monochromatic triangle, and
    GOODMAN (1959) sharpens it — at least 2 of the 20 triangles are
    mono, via the angle identity #mono = 20 − ½·Σ_v r_v(5−r_v)
    (each bichromatic triangle has exactly two bichromatic angles;
    the sum is always even) — the identity is COMPUTED per instance
    and asserted, and the bound is verified EXHAUSTIVELY: the
    kernel minimizes mono count over ALL 2¹⁵ colorings and asserts
    the minimum is exactly 2 (attained), the mirror re-runs the
    same 32768-coloring sweep in SQL.  Output: one row per
    triangle + the census coloring's mono total, the Goodman
    formula value, and the global minimum."""
    bits = [int(b) & 1 for b in bits]
    assert len(bits) == 15

    def mono_count(bb):
        c = 0
        for i, j, k in RAMSEY_TRIS:
            e1 = bb[RAMSEY_EIDX[(i, j)]]
            e2 = bb[RAMSEY_EIDX[(i, k)]]
            e3 = bb[RAMSEY_EIDX[(j, k)]]
            if e1 == e2 == e3:
                c += 1
        return c

    total = mono_count(bits)
    rdeg = [sum(bits[RAMSEY_EIDX[(min(v, u), max(v, u))]]
                for u in range(6) if u != v) for v in range(6)]
    ang = sum(r * (5 - r) for r in rdeg)
    assert ang % 2 == 0
    formula = 20 - ang // 2
    assert formula == total
    assert total >= 2

    gmin = min(mono_count([(m >> e) & 1 for e in range(15)])
               for m in range(1 << 15))
    assert gmin == 2

    rows = []
    for i, j, k in RAMSEY_TRIS:
        e1 = bits[RAMSEY_EIDX[(i, j)]]
        e2 = bits[RAMSEY_EIDX[(i, k)]]
        e3 = bits[RAMSEY_EIDX[(j, k)]]
        rows.append((i, j, k, 1 if e1 == e2 == e3 else 0,
                     total, formula, gmin))
    out = pd.DataFrame(rows, columns=["i", "j", "k", "mono",
                                      "mono_total", "mono_formula",
                                      "min_all_colorings"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


SHAMIR_P = 103


def shamir_shares_int(secret, a1, a2):
    """Shamir (3, 6) secret sharing over GF(103) — SECRET SHARING /
    polynomial interpolation, a family the surface lacked (rsa_crt
    is public-key; this is information-theoretic): the degree-2
    polynomial f(x) = s + a1·x + a2·x² mod p evaluated at x = 1..6
    gives 6 shares; EVERY 3-subset (all C(6,3) = 20 of them)
    reconstructs s by Lagrange interpolation at 0 — asserted per
    subset (the THRESHOLD property), and PERFECT SECRECY is
    verified exhaustively for the pair (1, 2): for every candidate
    secret s' in GF(p) the 3×3 Vandermonde system through the two
    shares and f(0) = s' has exactly one solution, so two shares
    reveal NOTHING (asserted over all 103 candidates).  Mirror:
    the same Lagrange sum with inverses found by the list brute
    z·a ≡ 1 (p is tiny, stated)."""
    p = SHAMIR_P
    s, a1, a2 = int(secret) % p, int(a1) % p, int(a2) % p

    def f(x):
        return (s + a1 * x + a2 * x * x) % p

    shares = {x: f(x) for x in range(1, 7)}

    from itertools import combinations
    rows = []
    for xs in combinations(range(1, 7), 3):
        rec = 0
        for xi in xs:
            num, den = 1, 1
            for xj in xs:
                if xj != xi:
                    num = num * xj % p
                    den = den * (xj - xi) % p
            rec = (rec + shares[xi] * num
                   * pow(den % p, p - 2, p)) % p
        assert rec == s, (xs, rec, s)
        rows.append((xs[0], xs[1], xs[2], shares[xs[0]],
                     shares[xs[1]], shares[xs[2]], rec, s,
                     1 if rec == s else 0))

    # perfect secrecy at the pair (1, 2): every candidate secret is
    # consistent with exactly one degree-2 polynomial
    for sp in range(p):
        sols = 0
        for b1 in range(p):
            b2 = (shares[1] - sp - b1) % p
            if (sp + b1 * 2 + b2 * 4) % p == shares[2]:
                sols += 1
        assert sols == 1, sp

    out = pd.DataFrame(rows, columns=["x1", "x2", "x3", "y1", "y2",
                                      "y3", "recovered", "secret",
                                      "ok"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def twosat_int(clauses):
    """2-SAT over 8 variables — SATISFIABILITY / complexity theory,
    a family the surface lacked (konig_cover is duality,
    maxflow_mincut is LP; this is the tractable face of SAT):
    clauses are (a, sa, b, sb) meaning (x_a = sa) OR (x_b = sb).
    The kernel decides satisfiability TWICE — by the
    Aspvall-Plass-Tarjan implication-graph SCC criterion (linear
    time; x and NOT-x in one strongly connected component iff
    unsatisfiable) with Tarjan's algorithm implemented directly,
    AND by the exhaustive 2^8 assignment sweep — and asserts the
    two verdicts agree; the SCC-derived assignment (reverse
    topological component order) is checked against every clause
    when satisfiable.  The EMITTED certificate is sweep-canonical
    so the SQL mirror can re-derive it without Tarjan: the
    assignment mask maximizing #satisfied clauses, ties -> smallest
    mask (a satisfying assignment whenever one exists, and the
    exact MAX-2-SAT optimum otherwise).  Output: one row per
    clause with its satisfied-under-canonical-mask flag plus the
    global (satisfiable, n_sat_assignments, max_satisfiable,
    canonical_mask) columns."""
    n = 8
    m = len(clauses)
    clauses = [(int(a) % n, int(sa) & 1, int(b) % n, int(sb) & 1)
               for a, sa, b, sb in clauses]

    # --- implication graph: node 2v = (x_v true), 2v+1 = (x_v false)
    def lit_node(v, s):
        return 2 * v + (0 if s else 1)

    adj = [[] for _ in range(2 * n)]
    for a, sa, b, sb in clauses:
        # (a=sa) OR (b=sb): not(a=sa) -> (b=sb), not(b=sb) -> (a=sa)
        adj[lit_node(a, 1 - sa)].append(lit_node(b, sb))
        adj[lit_node(b, 1 - sb)].append(lit_node(a, sa))

    # Tarjan SCC (iterative)
    index = [None] * (2 * n)
    low = [0] * (2 * n)
    on_stack = [False] * (2 * n)
    comp = [-1] * (2 * n)
    stack, counter, ncomp = [], [0], [0]

    def strongconnect(v0):
        work = [(v0, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] is None:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
            if not recurse:
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = ncomp[0]
                        low[w] = low[v]
                        if w == v:
                            break
                    ncomp[0] += 1
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])

    for v in range(2 * n):
        if index[v] is None:
            strongconnect(v)

    scc_sat = all(comp[2 * v] != comp[2 * v + 1] for v in range(n))
    if scc_sat:
        # Tarjan numbers components in REVERSE topological order, so
        # x_v = (comp[x_v] < comp[not x_v]) is the standard assignment
        scc_assign = [1 if comp[2 * v] < comp[2 * v + 1] else 0
                      for v in range(n)]
        for a, sa, b, sb in clauses:
            assert scc_assign[a] == sa or scc_assign[b] == sb

    # --- exhaustive sweep (the mirror's route)
    best_cnt, best_mask, n_sat = -1, -1, 0
    for mask in range(1 << n):
        cnt = 0
        for a, sa, b, sb in clauses:
            if ((mask >> a) & 1) == sa or ((mask >> b) & 1) == sb:
                cnt += 1
        if cnt == m:
            n_sat += 1
        if cnt > best_cnt:
            best_cnt, best_mask = cnt, mask
    sweep_sat = n_sat > 0
    assert scc_sat == sweep_sat
    assert sweep_sat == (best_cnt == m)

    rows = []
    for idx, (a, sa, b, sb) in enumerate(clauses):
        sat_flag = 1 if (((best_mask >> a) & 1) == sa
                         or ((best_mask >> b) & 1) == sb) else 0
        rows.append((idx, a, sa, b, sb, sat_flag,
                     1 if sweep_sat else 0, n_sat, best_cnt,
                     best_mask))
    out = pd.DataFrame(rows, columns=["clause", "a", "sa", "b",
                                      "sb", "sat_under_canonical",
                                      "satisfiable",
                                      "n_sat_assignments",
                                      "max_satisfiable",
                                      "canonical_mask"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


NIM_MAX_HEAP = 15


def nim_grundy_int(positions):
    """Sprague-Grundy values of 3-heap Nim — COMBINATORIAL GAME
    THEORY, a family the surface lacked (zerosum_value is von
    Neumann matrix games, penney_game is nontransitive odds; this
    is the additive theory of perfect-information games): the
    kernel computes grundy(a,b,c) for ALL (max+1)^3 positions by
    the mex recursion over the move graph (reduce any one heap),
    then asserts BOUTON 1901 exhaustively — grundy == a XOR b XOR c
    everywhere, and P-positions (previous-player wins, grundy 0)
    are exactly the zero-XOR positions.  Per input position it
    emits the DP grundy value, the XOR, the P/N verdict, and the
    lexicographically first winning move (heap index 1..3 and the
    new size — the move to XOR 0 that Bouton's proof constructs),
    (-1, -1) at P-positions where every move loses.  The mirror
    re-derives everything from the XOR closed form (bit ops +
    the CASE chain for the first reducible heap) — theorem vs
    game-tree DP, cross-certified per instance."""
    mx = NIM_MAX_HEAP
    grundy = {}
    for a in range(mx + 1):
        for b in range(mx + 1):
            for c in range(mx + 1):
                opts = set()
                for na in range(a):
                    opts.add(grundy[(na, b, c)])
                for nb in range(b):
                    opts.add(grundy[(a, nb, c)])
                for nc in range(c):
                    opts.add(grundy[(a, b, nc)])
                g = 0
                while g in opts:
                    g += 1
                grundy[(a, b, c)] = g
                assert g == a ^ b ^ c, (a, b, c, g)

    rows = []
    for i, (a, b, c) in enumerate(positions):
        a, b, c = int(a) % (mx + 1), int(b) % (mx + 1), \
            int(c) % (mx + 1)
        g = grundy[(a, b, c)]
        x = a ^ b ^ c
        assert g == x
        if x == 0:
            mh, ms = -1, -1
            # every move leaves a nonzero XOR (P-position): spot-check
            for na in range(a):
                assert na ^ b ^ c != 0
        else:
            mh, ms = -1, -1
            for h, (own, others) in enumerate(
                    [(a, b ^ c), (b, a ^ c), (c, a ^ b)], start=1):
                if others < own:
                    mh, ms = h, others
                    break
            assert mh != -1  # Bouton: some heap has high bit of x
            nt = [a, b, c]
            nt[mh - 1] = ms
            assert nt[0] ^ nt[1] ^ nt[2] == 0
        rows.append((i, a, b, c, g, x, 1 if x == 0 else 0, mh, ms))
    out = pd.DataFrame(rows, columns=["pos", "a", "b", "c",
                                      "grundy", "xor_value",
                                      "is_p_position",
                                      "win_move_heap",
                                      "win_move_newsize"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


PARTITION_NMAX = 40


def partition_numbers_int(hour_mods):
    """Integer-partition counts p(n) — PARTITION THEORY, a family
    the surface lacked (necklace_count counts orbits, josephus is
    an elimination recurrence; this is additive combinatorics'
    central function): the kernel computes p(0..40) TWICE — by the
    parts-DP (unbounded coin-style fold) and by EULER's pentagonal
    number theorem p(n) = Σ_k (−1)^{k−1} [p(n−k(3k−1)/2) +
    p(n−k(3k+1)/2)] — and asserts the two tables agree entry-wise;
    EULER's distinct-equals-odd identity (partitions into distinct
    parts == partitions into odd parts) is verified for every
    n ≤ 40 by two further independent DPs.  Input: (h, n) pairs
    with n ≤ 40; output one row per hour with p(n).  The mirror
    re-runs the PENTAGONAL recurrence as a recursive list-carrying
    CTE — DP vs theorem, one route per engine."""
    N = PARTITION_NMAX

    dp = [0] * (N + 1)
    dp[0] = 1
    for part in range(1, N + 1):
        for i in range(part, N + 1):
            dp[i] += dp[i - part]

    pp = [0] * (N + 1)
    pp[0] = 1
    for n in range(1, N + 1):
        s, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            term = pp[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                term += pp[n - g2]
            s += sign * term
            k += 1
        pp[n] = s
    assert pp == dp, "pentagonal recurrence != parts DP"

    dq = [0] * (N + 1)          # distinct parts (0/1 each)
    dq[0] = 1
    for part in range(1, N + 1):
        for i in range(N, part - 1, -1):
            dq[i] += dq[i - part]
    do_ = [0] * (N + 1)         # odd parts, unbounded
    do_[0] = 1
    for part in range(1, N + 1, 2):
        for i in range(part, N + 1):
            do_[i] += do_[i - part]
    assert dq == do_, "Euler distinct != odd"

    rows = [(int(h), int(n), dp[int(n)], dq[int(n)])
            for h, n in hour_mods]
    out = pd.DataFrame(rows, columns=["h", "n", "p_n",
                                      "p_distinct"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


FOUR_SQ_NMAX = 200


def four_squares_int(hour_mods):
    """Sums of four squares — ADDITIVE NUMBER THEORY / theta-series
    arithmetic, a family the surface lacked (miller_rabin is
    multiplicative, rsa_crt is congruential; this is representation
    counting): the kernel enumerates the FULL signed lattice grid
    [−14,14]^4 (707k points) with one vectorized bincount, giving
    r4(n) = #{(a,b,c,d) ∈ Z^4 : Σ a_i² = n} for every n ≤ 200, and
    asserts JACOBI's theorem exhaustively — r4(n) = 8·σ'(n) with
    σ'(n) the sum of divisors NOT divisible by 4 — for all
    1 ≤ n ≤ 200 (the theorem verified in full, not sampled);
    LAGRANGE's four-square theorem rides along as r4(n) > 0
    everywhere, witnessed per input row by the lexicographically
    smallest 0 ≤ a ≤ b ≤ c ≤ d representation.  The mirror
    re-enumerates the same signed grid in SQL (group-by-sum) and
    reads the witness off the ordered-quadruple join — enumeration
    vs enumeration, with the 8·σ' identity visible cross-engine as
    the r4/sigma_no4 column pair."""
    N = FOUR_SQ_NMAX
    B = math.isqrt(N)
    r = np.arange(-B, B + 1)
    sq = r * r
    g = (sq[:, None, None, None] + sq[None, :, None, None]
         + sq[None, None, :, None] + sq[None, None, None, :])
    counts = np.bincount(g.ravel(), minlength=4 * B * B + 1)

    def sigma_no4(n):
        return sum(d for d in range(1, n + 1)
                   if n % d == 0 and d % 4 != 0)

    for n in range(1, N + 1):
        assert counts[n] == 8 * sigma_no4(n), n
        assert counts[n] > 0  # Lagrange

    def witness(n):
        # range bounds keep every remainder non-negative
        for a in range(math.isqrt(n // 4) + 1):
            ra = n - a * a
            for b in range(a, math.isqrt(ra) + 1):
                rb = ra - b * b
                for c_ in range(b, math.isqrt(rb) + 1):
                    rc = rb - c_ * c_
                    d = math.isqrt(rc)
                    if d * d == rc and d >= c_:
                        return a, b, c_, d
        raise AssertionError(n)

    rows = []
    for h, n in hour_mods:
        n = int(n)
        wa, wb, wc, wd = witness(n)
        assert wa * wa + wb * wb + wc * wc + wd * wd == n
        rows.append((int(h), n, int(counts[n]),
                     0 if n == 0 else sigma_no4(n),
                     wa, wb, wc, wd))
    out = pd.DataFrame(rows, columns=["h", "n", "r4", "sigma_no4",
                                      "wa", "wb", "wc", "wd"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def permutation_cycles_int(perm):
    """Cycle structure of a permutation — SYMMETRIC-GROUP structure
    theory, a family the surface lacked (necklace_count applies
    Burnside to a fixed cyclic action; this analyses a DATA-DERIVED
    group element): cycle decomposition (canonical min-element
    labels), the element's ORDER as the lcm of cycle lengths —
    certified by π^order == id via binary composition AND
    π^(order/prime) != id for every prime dividing the order (true
    minimality, not just an upper bound) — and the SIGN computed by
    two theorems at once, (−1)^inversions and (−1)^(n − #cycles),
    asserted equal (both sides of the sign-homomorphism
    well-definedness).  The mirror walks orbits with a recursive
    CTE, counts inversions by self-join, and folds lcm over the
    distinct cycle lengths with list_reduce — independent routes
    to every column."""
    n = len(perm)
    perm = [int(x) for x in perm]
    assert sorted(perm) == list(range(n)), "not a bijection"

    seen = [False] * n
    cyc_min = [0] * n
    cyc_len = [0] * n
    lengths = []
    for s in range(n):
        if seen[s]:
            continue
        orbit, cur = [], s
        while not seen[cur]:
            seen[cur] = True
            orbit.append(cur)
            cur = perm[cur]
        assert cur == s  # closed orbit
        lengths.append(len(orbit))
        m = min(orbit)
        for v in orbit:
            cyc_min[v] = m
            cyc_len[v] = len(orbit)
    n_cycles = len(lengths)

    order = 1
    for ln in lengths:
        order = order * ln // math.gcd(order, ln)

    def compose(f, g):
        return [f[g[i]] for i in range(n)]

    def perm_pow(k):
        res, base = list(range(n)), perm[:]
        while k:
            if k & 1:
                res = compose(base, res)
            base = compose(base, base)
            k >>= 1
        return res

    ident = list(range(n))
    assert perm_pow(order) == ident
    rem, pr = order, 2
    primes = set()
    while rem > 1:
        if rem % pr == 0:
            primes.add(pr)
            while rem % pr == 0:
                rem //= pr
        pr += 1
    for pr in primes:
        assert perm_pow(order // pr) != ident  # minimality

    n_inv = sum(1 for i in range(n) for j in range(i + 1, n)
                if perm[i] > perm[j])
    sign_inv = 1 if n_inv % 2 == 0 else -1
    sign_cyc = 1 if (n - n_cycles) % 2 == 0 else -1
    assert sign_inv == sign_cyc

    rows = [(h, perm[h], cyc_min[h], cyc_len[h], n_cycles, n_inv,
             sign_inv, order) for h in range(n)]
    out = pd.DataFrame(rows, columns=["h", "pi", "cycle_min",
                                      "cycle_len", "n_cycles",
                                      "n_inversions", "sign",
                                      "perm_order"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _next_odd_prime(s):
    v = max(int(s), 3)
    while True:
        if all(v % f for f in range(2, math.isqrt(v) + 1)):
            return v
        v += 1


def legendre_reciprocity_int(seed_pairs):
    """Quadratic reciprocity on corpus-seeded odd-prime pairs —
    MULTIPLICATIVE number theory's crown theorem, a family the
    surface lacked (miller_rabin decides primality; this computes
    the Legendre SYMBOL): for each pair p ≠ q the kernel evaluates
    (p|q) and (q|p) THREE independent ways — Euler's criterion
    a^((m−1)/2) mod m, GAUSS's lemma (−1)^#{k ≤ (m−1)/2 :
    ak mod m > m/2}, and the solvability DEFINITION (∃x: x² ≡ a) —
    asserts all three agree, then asserts the reciprocity law
    (p|q)(q|p) = (−1)^(((p−1)/2)((q−1)/2)) per pair.  The mirror
    takes the definitional route only (EXISTS over x² mod m — no
    modpow CTE needed) plus the same next-prime trial-division
    search, so the law is visible cross-engine as the
    product/predicted column pair."""
    rows = []
    for i, (s1, s2) in enumerate(seed_pairs):
        p = _next_odd_prime(int(s1) % 500 + 3)
        q = _next_odd_prime(int(s2) % 500 + 3)
        if q == p:
            q = _next_odd_prime(p + 1)

        def leg_euler(a, m):
            r = pow(a % m, (m - 1) // 2, m)
            assert r in (1, m - 1)
            return 1 if r == 1 else -1

        def leg_gauss(a, m):
            cnt = sum(1 for k in range(1, (m - 1) // 2 + 1)
                      if (a * k) % m > m // 2)
            return -1 if cnt % 2 else 1

        def leg_def(a, m):
            return (1 if any(x * x % m == a % m
                             for x in range(1, m)) else -1)

        lp, lq = leg_euler(p, q), leg_euler(q, p)
        assert lp == leg_gauss(p, q) == leg_def(p, q)
        assert lq == leg_gauss(q, p) == leg_def(q, p)
        pred = -1 if ((p - 1) // 2) * ((q - 1) // 2) % 2 else 1
        assert lp * lq == pred  # the reciprocity law, per pair
        rows.append((i, p, q, lp, lq, lp * lq, pred))
    out = pd.DataFrame(rows, columns=["pair", "p", "q", "leg_pq",
                                      "leg_qp", "product",
                                      "predicted"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


ISING_N = 12


def ising_ring_int(census_mask):
    """Domain-wall census of the n=12 Ising ring — STATISTICAL
    MECHANICS / transfer matrices, a family the surface lacked
    (heat_diffusion evolves the dynamics; this counts the
    equilibrium ensemble): N(k) = # spin configurations with
    exactly k unequal adjacent pairs, computed by FULL 2^12
    enumeration and asserted against the closed form N(k) =
    2·C(n,k) for even k, 0 for odd k (walls pair up on a cycle);
    the partition polynomial Z(x) = Σ_k N(k)·x^k is then evaluated
    at every integer x = 0..12 through the actual TRANSFER MATRIX
    — trace of [[1,x],[x,1]]^n by binary integer matrix power —
    and asserted equal to the enumeration sum (13 points pin a
    degree-12 polynomial identity; the eigenvalue closed form
    (1+x)^n + (1−x)^n is asserted as a third route).  The corpus
    enters as the 12-bit hour-parity mask whose own wall count is
    reported.  Mirror: SQL re-enumerates the 4096 configs with
    bit_count/xor/rotate, factorials for the closed form, and
    exact small-integer powers for Z."""
    n = ISING_N
    mask = int(census_mask) & ((1 << n) - 1)

    def walls(m):
        rot = ((m >> 1) | ((m & 1) << (n - 1))) & ((1 << n) - 1)
        return bin(m ^ rot).count("1")

    counts = [0] * (n + 1)
    for m in range(1 << n):
        counts[walls(m)] += 1

    for k in range(n + 1):
        closed = 2 * math.comb(n, k) if k % 2 == 0 else 0
        assert counts[k] == closed, (k, counts[k], closed)

    def mat_mul(A, B):
        return [[A[0][0] * B[0][0] + A[0][1] * B[1][0],
                 A[0][0] * B[0][1] + A[0][1] * B[1][1]],
                [A[1][0] * B[0][0] + A[1][1] * B[1][0],
                 A[1][0] * B[0][1] + A[1][1] * B[1][1]]]

    def transfer_trace(x):
        res = [[1, 0], [0, 1]]
        base = [[1, x], [x, 1]]
        e = n
        while e:
            if e & 1:
                res = mat_mul(res, base)
            base = mat_mul(base, base)
            e >>= 1
        return res[0][0] + res[1][1]

    rows = []
    cw = walls(mask)
    for k in range(n + 1):
        z_poly = sum(counts[j] * k ** j for j in range(n + 1))
        z_trace = transfer_trace(k)
        assert z_poly == z_trace
        assert z_trace == (1 + k) ** n + (1 - k) ** n  # eigenvalues
        rows.append((k, counts[k],
                     2 * math.comb(n, k) if k % 2 == 0 else 0,
                     z_poly, z_trace, mask, cw))
    out = pd.DataFrame(rows, columns=["k", "n_configs", "n_closed",
                                      "z_poly", "z_trace",
                                      "census_mask",
                                      "census_walls"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


GAUSS_MAX_STEPS = 60


def _floor_div(t, d):
    """Floor division for positive d, written so the SQL mirror
    (whose // truncates toward zero) can replicate it with a sign
    split."""
    if t >= 0:
        return t // d
    return -((-t + d - 1) // d)


def gauss_lattice_int(triples):
    """Gauss/Lagrange reduction of 2-D integer lattice bases —
    LATTICE REDUCTION / geometry of numbers, a family the surface
    lacked (convex_hull is point-set geometry; this is the
    algorithmic theory of quadratic forms, the 2-D case of LLL):
    each (s, t, u) seeds the basis v1 = (1, s), v2 = (t, 1+st+u)
    whose determinant is 1+u BY CONSTRUCTION (nonzero, closed
    form — stated).  The kernel runs the classical reduction loop
    (swap-shorter-first, subtract the rounded projection
    μ = ⌊(2·dot+n1)/(2·n1)⌋ — round-half-up via floor division,
    so μ=0 ⟺ −n1 ≤ 2·dot < n1) to a Lagrange-reduced basis, then
    certifies: |det| preserved; u1 is the EXACT shortest nonzero
    lattice vector by exhaustive search over the coefficient box
    [−5,5]² (for a reduced basis the minimum sits at coefficients
    in {−1,0,1} — the box is overkill, stated); and HERMITE's
    bound λ1² ≤ (2/√3)·|det| in the exact integer form
    3·λ1⁴ ≤ 4·det².  Sign-canonicalized (lex-positive vectors).
    Mirror: the same loop as a bounded recursive CTE with the
    sign-split floor division, same box search."""
    rows = []
    for i, (s, t, u) in enumerate(triples):
        s, t, u = int(s), int(t), int(u)
        v1 = (1, s)
        v2 = (t, 1 + s * t + u)
        det0 = v1[0] * v2[1] - v1[1] * v2[0]
        assert det0 == 1 + u != 0

        def nrm(v):
            return v[0] * v[0] + v[1] * v[1]

        steps = 0
        while True:
            if nrm(v1) > nrm(v2):
                v1, v2 = v2, v1
            n1 = nrm(v1)
            dot = v1[0] * v2[0] + v1[1] * v2[1]
            mu = _floor_div(2 * dot + n1, 2 * n1)
            if mu == 0:
                break
            v2 = (v2[0] - mu * v1[0], v2[1] - mu * v1[1])
            steps += 1
            assert steps < GAUSS_MAX_STEPS

        def canon(v):
            if v[0] < 0 or (v[0] == 0 and v[1] < 0):
                return (-v[0], -v[1])
            return v

        v1, v2 = canon(v1), canon(v2)
        n1, n2 = nrm(v1), nrm(v2)
        dot = v1[0] * v2[0] + v1[1] * v2[1]
        assert n1 <= n2 and 2 * abs(dot) <= n1  # Lagrange-reduced
        det = v1[0] * v2[1] - v1[1] * v2[0]
        assert abs(det) == abs(det0)

        mn = min(nrm((x * v1[0] + y * v2[0], x * v1[1] + y * v2[1]))
                 for x in range(-5, 6) for y in range(-5, 6)
                 if (x, y) != (0, 0))
        assert mn == n1  # u1 attains the lattice minimum
        assert 3 * n1 * n1 <= 4 * det * det  # Hermite gamma_2

        rows.append((i, s, t, u, v1[0], v1[1], v2[0], v2[1],
                     n1, n2, dot, abs(det), mn))
    out = pd.DataFrame(rows, columns=["inst", "s", "t", "u",
                                      "a1", "b1", "a2", "b2",
                                      "n1", "n2", "dot12",
                                      "det_abs", "min_norm_box"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


DFA_N_STATES = 10


def dfa_minimize_int(delta0, delta1, accept):
    """DFA minimization — AUTOMATA THEORY, a family the surface
    lacked (periodicity / bwt_runs are combinatorics on words;
    this is the machine side of Kleene's theorem): a 10-state
    binary-alphabet DFA (start 0) is minimized TWO independent
    ways — MOORE's partition refinement (split classes by
    successor-class signature until stable) and the MYHILL-NERODE
    table-filling closure (distinguishable := accept-disagreeing
    pairs, closed backwards under the transition relation) — and
    the two equivalences are asserted identical on reachable
    states; the refinement's stability and the table's fixpoint
    are each certified per call.  Output: per state its
    reachability, canonical class label (min member), class size,
    accept bit, and the global minimized-state count.  Mirror:
    recursive-CTE reachability + the table-filling fixpoint (SQL
    takes the Myhill-Nerode route only)."""
    n = DFA_N_STATES
    delta0 = [int(x) % n for x in delta0]
    delta1 = [int(x) % n for x in delta1]
    accept = [int(x) & 1 for x in accept]
    assert len(delta0) == len(delta1) == len(accept) == n

    # reachability from start 0
    reach = [False] * n
    frontier = [0]
    reach[0] = True
    while frontier:
        s = frontier.pop()
        for t in (delta0[s], delta1[s]):
            if not reach[t]:
                reach[t] = True
                frontier.append(t)
    R = [s for s in range(n) if reach[s]]

    # Moore refinement over reachable states
    cls = {s: accept[s] for s in R}
    while True:
        sig = {s: (cls[s], cls[delta0[s]], cls[delta1[s]])
               for s in R}
        uniq = sorted(set(sig.values()))
        new = {s: uniq.index(sig[s]) for s in R}
        if all(((new[p] == new[q]) == (cls[p] == cls[q]))
               for p in R for q in R):
            cls = new
            break
        cls = new
    # stability certificate: signatures constant within classes
    for p in R:
        for q in R:
            if cls[p] == cls[q]:
                assert accept[p] == accept[q]
                assert cls[delta0[p]] == cls[delta0[q]]
                assert cls[delta1[p]] == cls[delta1[q]]

    # Myhill-Nerode table filling (independent route)
    dist = set()
    for p in R:
        for q in R:
            if accept[p] != accept[q]:
                dist.add((p, q))
    changed = True
    while changed:
        changed = False
        for p in R:
            for q in R:
                if (p, q) in dist:
                    continue
                if ((delta0[p], delta0[q]) in dist
                        or (delta1[p], delta1[q]) in dist):
                    dist.add((p, q))
                    dist.add((q, p))
                    changed = True
    for p in R:
        for q in R:
            assert ((p, q) not in dist) == (cls[p] == cls[q]), \
                (p, q)

    label = {c: min(s for s in R if cls[s] == c)
             for c in set(cls.values())}
    n_classes = len(label)
    rows = []
    for s in range(n):
        if reach[s]:
            lab = label[cls[s]]
            size = sum(1 for t in R if cls[t] == cls[s])
        else:
            lab, size = -1, 0
        rows.append((s, 1 if reach[s] else 0, lab, size,
                     accept[s], n_classes))
    out = pd.DataFrame(rows, columns=["state", "reachable",
                                      "class_label", "class_size",
                                      "accept", "n_classes"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


PELL_YMAX = 2500


def pell_equation_int(seeds):
    """Fundamental solutions of Pell's equation x² − d·y² = 1 —
    QUADRATIC DIOPHANTINE EQUATIONS, a family the surface lacked
    (cf_convergents does Diophantine APPROXIMATION; Pell is the
    equation Lagrange solved WITH those continued fractions): each
    seed maps to a nonsquare d ∈ [2,30] (single bump past the
    squares 4/9/16/25 — sufficient since 5/10/17/26 are nonsquare,
    stated); the kernel expands √d's periodic continued fraction
    by the exact (m, q, a) integer recurrence, walks convergents
    h/k until h² − d·k² = 1 (Lagrange's theorem guarantees arrival
    by period 2ℓ), asserts MINIMALITY by brute sweep over every
    smaller y, and asserts the GROUP LAW — (x² + d·y², 2xy) is
    again a solution — per instance.  d ≤ 31 keeps the worst
    fundamental y at 1820 (d = 29), inside the sweep bound
    (stated).  Output: (inst, d, x, y, period, x2, y2).  Mirror:
    pure brute minimal-y search (ORDER BY y LIMIT 1) — CF route vs
    search route, cross-certified."""
    rows = []
    for i, s in enumerate(seeds):
        d = int(s) % 29 + 2            # 2..30
        if d in (4, 9, 16, 25):
            d += 1
        a0 = math.isqrt(d)
        assert a0 * a0 != d

        # continued fraction of sqrt(d): m,q,a recurrence
        m, q, a = 0, 1, a0
        h0, h1 = 1, a0
        k0, k1 = 0, 1
        period = 0
        x = y = None
        for _ in range(200):
            if h1 * h1 - d * k1 * k1 == 1:
                x, y = h1, k1
                break
            m = a * q - m
            q = (d - m * m) // q
            a = (a0 + m) // q
            period += 1
            h0, h1 = h1, a * h1 + h0
            k0, k1 = k1, a * k1 + k0
        assert x is not None and y is not None

        # minimality: no smaller y works (brute, both engines' floor)
        for yy in range(1, y):
            t = 1 + d * yy * yy
            r = math.isqrt(t)
            assert r * r != t
        assert y <= PELL_YMAX

        x2, y2 = x * x + d * y * y, 2 * x * y
        assert x2 * x2 - d * y2 * y2 == 1  # group law
        assert period >= 0
        rows.append((i, d, x, y, x2, y2))
    out = pd.DataFrame(rows, columns=["inst", "d", "x", "y",
                                      "x2", "y2"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def three_distance_int(p, q, n):
    """The three-distance (Steinhaus) theorem on rational rotations
    — EQUIDISTRIBUTION THEORY, a family the surface lacked
    (dft_period finds cycles; this is the fine structure of the
    orbit {k·p mod q}): the first n multiples of p modulo q,
    sorted, partition the circle [0,q) into n gaps taking AT MOST
    THREE distinct lengths, and when three occur the largest is
    the SUM of the other two — both asserted per instance (the
    theorem, not a sample), with p reduced so gcd(p', q) = 1 keeps
    points distinct (p' = p//g, stated; n ≤ q forced by n mod q).
    Output: one row per gap position with the gap value, plus the
    distinct-gap census columns.  Mirror: SQL sort + wraparound
    lag differences + distinct-gap aggregation."""
    p, q, n = int(p), int(q), int(n)
    assert q >= 2
    g = math.gcd(p, q)
    p1 = (p // g) if g else 1
    if math.gcd(p1, q) != 1:      # p = 0, or gcd(p/g, q) > 1
        p1 = 1                    # (e.g. p = 12, q = 18)
    n1 = n % q
    if n1 == 0:
        n1 = 1
    pts = sorted((k * p1) % q for k in range(n1))
    assert len(set(pts)) == n1    # gcd(p1, q) = 1 keeps distinct
    gaps = [pts[(i + 1) % n1] - pts[i] + (q if i == n1 - 1 else 0)
            for i in range(n1)]
    assert sum(gaps) == q
    dis = sorted(set(gaps))
    assert 1 <= len(dis) <= 3     # Steinhaus
    if len(dis) == 3:
        assert dis[2] == dis[0] + dis[1]
    rows = []
    for i in range(n1):
        rows.append((i, pts[i], gaps[i], len(dis), dis[0],
                     dis[-1], p1, q, n1))
    out = pd.DataFrame(rows, columns=["idx", "point", "gap",
                                      "n_distinct_gaps",
                                      "gap_min", "gap_max",
                                      "p_reduced", "q", "n_points"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


ZECK_FIBS = []
_a, _b = 1, 2
while _a <= 10 ** 6:
    ZECK_FIBS.append(_a)
    _a, _b = _b, _a + _b


def zeckendorf_int(values):
    """Zeckendorf representation — NUMERATION SYSTEMS, a family
    the surface lacked (huffman_code is optimal coding,
    delta+varint is wire format; this is the arithmetic of
    non-standard positional systems): every n ≥ 1 is UNIQUELY a
    sum of non-consecutive Fibonacci numbers (F2=1, F3=2, …); the
    kernel computes the greedy representation, asserts the
    non-adjacency invariant, asserts the sum, and for n ≤ 300
    certifies UNIQUENESS exhaustively — enumerating ALL subsets of
    Fibonacci numbers ≤ n and counting non-adjacent ones summing
    to n (exactly 1, Zeckendorf's theorem verified, not cited);
    the digit-count column is the 'Fibonacci weight' and the
    LEKKERKERKER average rides in tests.  Output: one row per
    (value, term).  Mirror: greedy via recursive CTE over the same
    Fibonacci list."""
    rows = []
    for i, v in enumerate(values):
        v = int(v)
        assert v >= 1
        rem = v
        terms = []
        for f in reversed(ZECK_FIBS):
            if f <= rem:
                terms.append(f)
                rem -= f
        assert rem == 0
        assert sum(terms) == v
        idxs = [ZECK_FIBS.index(t) for t in terms]
        assert all(idxs[j] - idxs[j + 1] >= 2
                   for j in range(len(idxs) - 1))  # non-adjacent

        if v <= 300:
            fits = [f for f in ZECK_FIBS if f <= v]
            cnt = 0
            for m in range(1 << len(fits)):
                sel = [j for j in range(len(fits)) if (m >> j) & 1]
                if any(sel[t + 1] - sel[t] == 1
                       for t in range(len(sel) - 1)):
                    continue
                if sum(fits[j] for j in sel) == v:
                    cnt += 1
            assert cnt == 1       # uniqueness, exhaustively

        for rank, t in enumerate(terms):
            rows.append((i, v, rank, t, len(terms)))
    out = pd.DataFrame(rows, columns=["inst", "value", "rank",
                                      "term", "n_terms"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


STIRLING_NMAX = 12


def stirling_bell_int(n_census):
    """Stirling set-partition numbers S(n,k) and Bell numbers —
    ENUMERATIVE SET-PARTITION combinatorics, a family the surface
    lacked (partition_numbers counts INTEGER partitions — a
    different object): the kernel builds the full triangle to
    n = 12 by the recurrence S(n,k) = k·S(n−1,k) + S(n−1,k−1),
    asserts the EXPLICIT inclusion-exclusion formula
    S(n,k) = (1/k!)·Σ_j (−1)^j C(k,j)(k−j)^n entry-wise (the
    divisibility by k! certified en route), asserts Bell numbers
    BOTH as row sums and via the Aitken/Bell-triangle recurrence
    B(n+1) = Σ_k C(n,k)B(k), and certifies S(6,·) by EXHAUSTIVE
    enumeration of all 203 set partitions of a 6-set (restricted
    growth strings).  Output: the triangle row for the
    census-selected n (7 ≤ n ≤ 12).  Mirror: the explicit formula
    + factorial Bell sum — formula route vs recurrence route."""
    N = STIRLING_NMAX
    S = [[0] * (N + 1) for _ in range(N + 1)]
    S[0][0] = 1
    for n in range(1, N + 1):
        for k in range(1, n + 1):
            S[n][k] = k * S[n - 1][k] + S[n - 1][k - 1]

    for n in range(N + 1):
        for k in range(n + 1):
            acc = sum((-1) ** j * math.comb(k, j) * (k - j) ** n
                      for j in range(k + 1))
            fk = math.factorial(k)
            assert acc % fk == 0
            assert S[n][k] == acc // fk, (n, k)

    bell = [sum(S[n]) for n in range(N + 1)]
    # Aitken triangle route
    bt = [1]
    for n in range(N):
        bt.append(sum(math.comb(n, k) * bt_k
                      for k, bt_k in enumerate(bt[:n + 1])))
        assert bt[n + 1] == bell[n + 1]

    # exhaustive: restricted growth strings over a 6-set
    def rgs_count():
        by_blocks = {}

        def rec(prefix, mx):
            if len(prefix) == 6:
                b = mx + 1
                by_blocks[b] = by_blocks.get(b, 0) + 1
                return
            for v in range(mx + 2):
                rec(prefix + [v], max(mx, v))

        rec([0], 0)
        return by_blocks

    byb = rgs_count()
    assert sum(byb.values()) == bell[6] == 203
    for k in range(1, 7):
        assert byb.get(k, 0) == S[6][k]

    n_sel = int(n_census) % 6 + 7          # 7..12
    rows = [(n_sel, k, S[n_sel][k], bell[n_sel])
            for k in range(n_sel + 1)]
    out = pd.DataFrame(rows, columns=["n", "k", "stirling",
                                      "bell"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def derangements_int(hour_mods):
    """Derangement counts — INCLUSION-EXCLUSION, a family the
    surface lacked as an explicit object (the sieve is implicit in
    several ops; here it IS the op): D(n) computed by THREE routes
    — the two-term recurrence D(n) = (n−1)(D(n−1)+D(n−2)), the
    one-term D(n) = n·D(n−1) + (−1)^n, and the inclusion-exclusion
    sum Σ_k (−1)^k n!/k! — all asserted equal for every n ≤ 12,
    plus an EXHAUSTIVE certificate at n = 6 (exactly 265 of the
    720 permutations are fixed-point-free, counted by actual
    enumeration).  Input: (h, n) pairs; output per hour D(n) and
    n!.  Mirror: the inclusion-exclusion route only (factorials +
    alternating sum) — sieve vs recurrence, cross-certified."""
    N = 12
    D = [1, 0]
    for n in range(2, N + 1):
        D.append((n - 1) * (D[n - 1] + D[n - 2]))
    for n in range(1, N + 1):
        assert D[n] == n * D[n - 1] + (-1) ** n
    for n in range(N + 1):
        ie = sum((-1) ** k * math.factorial(n) // math.factorial(k)
                 for k in range(n + 1))
        assert D[n] == ie, n

    # exhaustive at n=6
    from itertools import permutations
    cnt = sum(1 for p in permutations(range(6))
              if all(p[i] != i for i in range(6)))
    assert cnt == D[6] == 265

    rows = [(int(h), int(n) % (N + 1), D[int(n) % (N + 1)],
             math.factorial(int(n) % (N + 1)))
            for h, n in hour_mods]
    out = pd.DataFrame(rows, columns=["h", "n", "derangements",
                                      "n_factorial"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


POLYA_DRAWS = 8


def polya_urn_int(r0, b0):
    """Pólya urn exchangeability — URN MODELS / exchangeable
    sequences, a family the surface lacked (an absorbing chain is
    Markov with fixed transitions; the urn's reinforcement makes
    the PATH matter — except, by de Finetti-flavoured magic, it
    doesn't): starting from (r, b) with unit reinforcement, the
    kernel runs the ACTUAL urn dynamics along every one of the 2^8
    draw sequences (numerator = product of the counts drawn at
    each step over the common rising-factorial denominator
    (r+b)^(8 rising)) and asserts EXCHANGEABILITY by enumeration —
    every sequence with the same red count k has the identical
    probability numerator seq_num(k) = r^(k rising)·b^(8−k rising)
    — and the MARTINGALE property of the red fraction in exact
    cross-multiplied integers: Σ_k C(8,k)·seq_num(k)·(r+k)·(r+b)
    == r·(r+b+8)·denominator.  Output: one row per k.  Mirror:
    the rising-factorial closed forms via list_product (products
    < 2^53 keep doubles exact — stated)."""
    n = POLYA_DRAWS
    r0, b0 = int(r0), int(b0)
    assert r0 >= 1 and b0 >= 1

    def rising(a, m):
        out = 1
        for t in range(m):
            out *= a + t
        return out

    denom = rising(r0 + b0, n)

    seq_num = {}
    for m in range(1 << n):
        r, b = r0, b0
        num = 1
        k = 0
        for step in range(n):
            if (m >> step) & 1:          # draw red
                num *= r
                r += 1
                k += 1
            else:
                num *= b
                b += 1
        if k in seq_num:
            assert seq_num[k] == num     # exchangeability
        else:
            seq_num[k] = num

    for k in range(n + 1):
        assert seq_num[k] == rising(r0, k) * rising(b0, n - k)

    # martingale of the red fraction, cross-multiplied
    lhs = sum(math.comb(n, k) * seq_num[k] * (r0 + k)
              for k in range(n + 1)) * (r0 + b0)
    rhs = r0 * (r0 + b0 + n) * denom
    assert lhs == rhs

    total = sum(math.comb(n, k) * seq_num[k] for k in range(n + 1))
    assert total == denom                # probabilities sum to 1

    rows = [(k, seq_num[k], math.comb(n, k),
             math.comb(n, k) * seq_num[k], denom, r0, b0)
            for k in range(n + 1)]
    out = pd.DataFrame(rows, columns=["k", "seq_num", "n_seqs",
                                      "prob_num", "denom",
                                      "r0", "b0"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def dyck_catalan_int(hour_mods):
    """Catalan numbers — CATALAN STRUCTURES / the reflection
    principle as an enumeration identity, a family the surface
    lacked as an explicit object (ballot_walk applies Bertrand to
    one data walk; this certifies the counting theory): C_n for
    n ≤ 10 computed FOUR ways in-kernel — lattice-path DP (paths
    staying ≥ 0), the closed form C(2n,n)/(n+1) with the
    divisibility certified, the reflection principle
    C(2n,n) − C(2n,n+1), and Segner's convolution recurrence —
    all asserted equal, plus the EXHAUSTIVE n = 6 certificate
    (exactly 132 of the 4096 12-step walks are Dyck).  Output:
    (h, n, catalan, central_binom) per census hour.  Mirror: the
    closed form and reflection difference (factorial arithmetic
    only)."""
    N = 10
    # lattice-path DP: f[h] = walks of current length ending at h
    cat_dp = []
    for n in range(N + 1):
        f = [0] * (n + 2)
        f[0] = 1
        for _ in range(2 * n):
            g = [0] * (n + 2)
            for h in range(n + 1):
                if f[h]:
                    if h + 1 <= n + 1:
                        g[h + 1] += f[h]
                    if h - 1 >= 0:
                        g[h - 1] += f[h]
            f = g
        cat_dp.append(f[0])

    for n in range(N + 1):
        cb = math.comb(2 * n, n)
        assert cb % (n + 1) == 0
        closed = cb // (n + 1)
        refl = cb - math.comb(2 * n, n + 1)
        assert cat_dp[n] == closed == refl, n
    for n in range(N):                   # Segner
        assert cat_dp[n + 1] == sum(cat_dp[i] * cat_dp[n - i]
                                    for i in range(n + 1))

    cnt = 0
    for m in range(1 << 12):             # exhaustive n = 6
        h = 0
        ok = True
        for s in range(12):
            h += 1 if (m >> s) & 1 else -1
            if h < 0:
                ok = False
                break
        if ok and h == 0:
            cnt += 1
    assert cnt == cat_dp[6] == 132

    rows = [(int(h), int(n) % (N + 1), cat_dp[int(n) % (N + 1)],
             math.comb(2 * (int(n) % (N + 1)), int(n) % (N + 1)))
            for h, n in hour_mods]
    out = pd.DataFrame(rows, columns=["h", "n", "catalan",
                                      "central_binom"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


SANDPILE_N = 10


def sandpile_abelian_int(chips):
    """Abelian sandpile stabilization on the 10-node path with
    open boundary — CHIP-FIRING / self-organized criticality, a
    family the surface lacked (rule90_ca is a synchronous linear
    CA; chip-firing is ASYNCHRONOUS and nonlinear, and its
    headline theorem is that asynchrony doesn't matter): a node
    with ≥ 2 chips fires, sending one chip to each neighbour
    (boundary chips fall off the ends into the sink).  The kernel
    stabilizes the census configuration THREE ways — always-fire-
    lowest-index, always-fire-highest-index, and fully parallel
    rounds — and asserts Dhar's ABELIAN property: identical stable
    configuration AND identical per-node odometer (fire counts)
    under all three orders.  Conservation is certified: initial
    total = stable total + odometer-weighted boundary loss.
    Output: per node (node, initial, stable, fires).  Mirror: the
    lowest-index schedule replayed as a recursive list-carrying
    CTE."""
    n = SANDPILE_N
    init = [int(c) for c in chips]
    assert len(init) == n and all(c >= 0 for c in init)

    def stabilize(order):
        l = init[:]
        fires = [0] * n
        while True:
            unstable = [i for i in range(n) if l[i] >= 2]
            if not unstable:
                break
            if order == "low":
                targets = [unstable[0]]
            elif order == "high":
                targets = [unstable[-1]]
            else:                        # parallel round
                targets = unstable
            for i in targets:
                l[i] -= 2
                fires[i] += 1
                if i > 0:
                    l[i - 1] += 1
                if i < n - 1:
                    l[i + 1] += 1
        return l, fires

    stable, fires = stabilize("low")
    s2, f2 = stabilize("high")
    s3, f3 = stabilize("parallel")
    assert stable == s2 == s3            # Dhar: abelian
    assert fires == f2 == f3
    assert all(c in (0, 1) for c in stable)

    # conservation: chips lost only at the two boundary nodes,
    # one per firing there
    assert sum(init) == sum(stable) + fires[0] + fires[n - 1]

    rows = [(i, init[i], stable[i], fires[i]) for i in range(n)]
    out = pd.DataFrame(rows, columns=["node", "initial", "stable",
                                      "fires"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def totient_moebius_int(hour_mods):
    """Euler φ and Möbius μ with the classical identities —
    ARITHMETIC FUNCTIONS / MÖBIUS INVERSION, a family the surface
    lacked (miller_rabin decides, legendre_reciprocity evaluates
    symbols; this is the algebra of multiplicative functions):
    for each census n ≤ 120 the kernel computes φ TWICE (the
    factorization product n·∏(1−1/p) in exact integers and the
    gcd-count definition), μ from the factorization, and asserts
    per n: GAUSS's identity Σ_{d|n} φ(d) = n, the Möbius column
    sum Σ_{d|n} μ(d) = [n=1], and the INVERSION
    φ(n) = Σ_{d|n} μ(d)·(n/d).  Output: (h, n, phi, mu,
    n_divisors).  Mirror: φ by gcd-count, μ by squarefree trial
    division — definitional routes only."""
    rows = []
    for h, n in hour_mods:
        n = int(n)
        assert 1 <= n <= 120

        fac = {}
        m, p = n, 2
        while m > 1:
            while m % p == 0:
                fac[p] = fac.get(p, 0) + 1
                m //= p
            p += 1
        phi = n
        for p in fac:
            phi = phi // p * (p - 1)
        phi_def = sum(1 for k in range(1, n + 1)
                      if math.gcd(k, n) == 1)
        assert phi == phi_def

        mu = 0 if any(e >= 2 for e in fac.values()) \
            else (-1) ** len(fac)

        divs = [d for d in range(1, n + 1) if n % d == 0]

        def phi_of(d):
            return sum(1 for k in range(1, d + 1)
                       if math.gcd(k, d) == 1)

        def mu_of(d):
            f = {}
            mm, pp = d, 2
            while mm > 1:
                while mm % pp == 0:
                    f[pp] = f.get(pp, 0) + 1
                    mm //= pp
                pp += 1
            return 0 if any(e >= 2 for e in f.values()) \
                else (-1) ** len(f)

        assert sum(phi_of(d) for d in divs) == n        # Gauss
        assert sum(mu_of(d) for d in divs) == (1 if n == 1 else 0)
        assert phi == sum(mu_of(d) * (n // d) for d in divs)

        rows.append((int(h), n, phi, mu, len(divs)))
    out = pd.DataFrame(rows, columns=["h", "n", "phi", "mu",
                                      "n_divisors"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def discrete_log_int(seed_pairs):
    """Discrete logarithms in (Z/p)* — COMPUTATIONAL GROUP THEORY,
    a family the surface lacked (rsa_crt exponentiates; this
    INVERTS exponentiation): for each census pair a prime
    p ≤ ~211, its SMALLEST primitive root g (order p−1 certified
    via the prime factors of p−1, and every smaller candidate
    certified non-primitive by brute order), a target
    a ∈ [2, p−1], and x = log_g(a) computed by BABY-STEP
    GIANT-STEP (m = ⌈√(p−1)⌉ table + giant strides with the
    Fermat inverse) AND by brute power walk — asserted equal, and
    g^x ≡ a (mod p) re-asserted.  Output: (inst, p, g, a, x, m).
    Mirror: the brute walk only, powers via one recursive CTE over
    (inst, candidate-g) pairs — BSGS vs exhaustion."""
    rows = []
    for i, (s1, s2) in enumerate(seed_pairs):
        p = _next_odd_prime(int(s1) % 200 + 5)

        # prime factors of p-1
        fac = set()
        m0 = p - 1
        f = 2
        while f * f <= m0:
            while m0 % f == 0:
                fac.add(f)
                m0 //= f
            f += 1
        if m0 > 1:
            fac.add(m0)

        def order(g):
            k, v = 1, g % p
            while v != 1:
                v = v * g % p
                k += 1
            return k

        g = None
        for cand in range(2, p):
            if all(pow(cand, (p - 1) // q, p) != 1 for q in fac):
                g = cand
                break
            assert order(cand) < p - 1   # certified non-primitive
        assert g is not None and order(g) == p - 1

        a = int(s2) % (p - 2) + 2        # 2..p-1

        # baby-step giant-step
        m = math.isqrt(p - 1)
        if m * m < p - 1:
            m += 1
        baby = {}
        v = 1
        for j in range(m):
            baby.setdefault(v, j)
            v = v * g % p
        ginv_m = pow(pow(g, m, p), p - 2, p)   # Fermat inverse
        x = None
        cur = a % p
        for q in range(m + 1):
            if cur in baby:
                x = q * m + baby[cur]
                break
            cur = cur * ginv_m % p
        assert x is not None
        assert pow(g, x, p) == a % p
        assert 0 <= x < p - 1

        # brute cross-check (the mirror's route)
        k, v = 0, 1
        while v != a % p:
            v = v * g % p
            k += 1
            assert k < p
        assert k == x

        rows.append((i, p, g, a, x, m))
    out = pd.DataFrame(rows, columns=["inst", "p", "g", "a", "x",
                                      "m"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _partitions_of(n):
    """All partitions of n as decreasing tuples, lexicographically
    decreasing — the canonical rank order BOTH engines use."""
    out = []

    def rec(rem, mx, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rem, mx), 0, -1):
            rec(rem - part, part, acc + [part])

    rec(n, n, [])
    return out


HOOK_N = 7
HOOK_PARTITIONS = _partitions_of(HOOK_N)


def hook_lengths_int(sel_census):
    """Standard Young tableaux via the FRAME-ROBINSON-THRALL hook
    length formula — ALGEBRAIC COMBINATORICS / representation
    theory of S_n, a family the surface lacked: for every
    partition λ ⊢ 7 the kernel computes f^λ = 7!/∏hooks (the
    divisibility certified), verifies it by EXHAUSTIVE SYT
    enumeration (backtracking over column-strict fillings), and
    asserts the RSK identity Σ_λ (f^λ)² = 7! = 5040 — the
    dimensions of the irreducible S_7 representations squaring to
    the group order, verified not cited.  Output: one row per
    partition (rank, shape digits, hook product, f, the RSK sum,
    and the census-selected flag).  Mirror: the hook formula from
    the SAME canonical partition list shipped as literal rows,
    hooks re-derived in SQL from arm + leg lengths."""
    n = HOOK_N
    parts = HOOK_PARTITIONS

    def hooks(lam):
        conj = [sum(1 for r in lam if r > j)
                for j in range(lam[0])]
        hs = []
        for i, ln in enumerate(lam):
            for j in range(ln):
                hs.append((ln - j) + (conj[j] - i) - 1)
        return hs

    def count_syt(lam):
        rows_fill = [0] * len(lam)

        def rec(v):
            if v > n:
                return 1
            tot = 0
            for r in range(len(lam)):
                if rows_fill[r] < lam[r] and \
                        (r == 0 or rows_fill[r] < rows_fill[r - 1]):
                    rows_fill[r] += 1
                    tot += rec(v + 1)
                    rows_fill[r] -= 1
            return tot

        return rec(1)

    fs = []
    for lam in parts:
        hs = hooks(lam)
        prod = 1
        for h_ in hs:
            prod *= h_
        fact = math.factorial(n)
        assert fact % prod == 0
        f = fact // prod
        assert f == count_syt(lam), lam   # enumeration certificate
        fs.append((lam, prod, f))

    rsk = sum(f * f for _, _, f in fs)
    assert rsk == math.factorial(n)       # RSK / Burnside

    sel = int(sel_census) % len(parts)
    rows = []
    for rank, (lam, prod, f) in enumerate(fs):
        shape_digits = int("".join(str(x) for x in lam))
        rows.append((rank, shape_digits, len(lam), prod, f, rsk,
                     1 if rank == sel else 0))
    out = pd.DataFrame(rows, columns=["rank", "shape", "n_rows",
                                      "hook_product", "f_lambda",
                                      "rsk_sum", "selected"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


GRAY_BITS = 8


def gray_code_int(start_census):
    """Binary-reflected Gray code — COMBINATORIAL GRAY CODES /
    Hamiltonian cycles on the hypercube, a family the surface
    lacked (batcher_sort is oblivious comparison networks; this is
    minimal-change enumeration): the kernel builds the full 2^8
    sequence TWICE — by the reflect-and-prefix construction and by
    the closed form g(n) = n XOR (n >> 1) — asserts them equal,
    certifies the defining property over the ENTIRE cycle
    (successive codes, including the wraparound, differ in exactly
    one bit), certifies bijectivity, and inverts the code by the
    prefix-XOR fold (asserted on every value).  The census picks a
    window start; output: 24 rows (offset, n, gray, bit_flipped,
    inverse_ok).  Mirror: the closed form + popcount adjacency
    re-checked in SQL."""
    N = 1 << GRAY_BITS

    # reflect construction
    seq = [0, 1]
    while len(seq) < N:
        seq = seq + [(1 << (seq.__len__().bit_length() - 1)) | v
                     for v in reversed(seq)]
    closed = [n ^ (n >> 1) for n in range(N)]
    assert seq == closed

    for n in range(N):
        d = closed[n] ^ closed[(n + 1) % N]
        assert bin(d).count("1") == 1     # one-bit steps + wrap
    assert len(set(closed)) == N          # bijection

    def inv(g):
        n = 0
        while g:
            n ^= g
            g >>= 1
        return n

    for n in range(N):
        assert inv(closed[n]) == n

    start = int(start_census) % N
    rows = []
    for off in range(24):
        n = (start + off) % N
        g = closed[n]
        flipped = (g ^ closed[(n + 1) % N]).bit_length() - 1
        rows.append((off, n, g, flipped, 1 if inv(g) == n else 0))
    out = pd.DataFrame(rows, columns=["off", "n", "gray",
                                      "bit_flipped",
                                      "inverse_ok"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


COLLATZ_CAP = 10 ** 7


def collatz_int(seeds):
    """Collatz (3n+1) trajectories — INTEGER ITERATION DYNAMICS, a
    family the surface lacked (logistic_map iterates a real map on
    a lattice; this is THE arithmetic open problem, verified on
    the corpus range): for each census seed the kernel walks the
    trajectory to 1, recording total stopping time, the maximum
    excursion, and the odd-step count, asserting the trajectory
    invariant n_{i+1} = n_i/2 or 3n_i+1 exactly and the excursion
    cap (every value < 10^7 on this seed range — stated); the
    glide certificate rides along: the first index where the
    trajectory drops below its start.  Output: (inst, n0, steps,
    max_val, odd_steps, first_drop).  Mirror: the same walk as a
    recursive CTE (one row per step, bounded by the measured
    stopping times)."""
    rows = []
    for i, s in enumerate(seeds):
        n0 = int(s) % 1000 + 2           # 2..1001
        n = n0
        steps = odd = 0
        mx = n0
        first_drop = -1
        while n != 1:
            if n % 2:
                n = 3 * n + 1
                odd += 1
            else:
                n //= 2
            steps += 1
            mx = max(mx, n)
            assert mx < COLLATZ_CAP
            if first_drop < 0 and n < n0:
                first_drop = steps
        rows.append((i, n0, steps, mx, odd, first_drop))
    out = pd.DataFrame(rows, columns=["inst", "n0", "steps",
                                      "max_val", "odd_steps",
                                      "first_drop"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def turan_extremal_int(bits):
    """Turán's theorem on K6 — EXTREMAL GRAPH THEORY, a family the
    surface lacked (ramsey_k6 colors ALL edges and asks for
    unavoidable structure; Turán asks how many edges a graph can
    CARRY while avoiding a triangle): the census bits select a
    6-vertex graph; the kernel counts its edges and triangles,
    then verifies Turán EXHAUSTIVELY — sweeping ALL 2^15 graphs,
    the maximum edge count among triangle-free ones is exactly
    ⌊6²/4⌋ = 9, attained (K_{3,3}) — and asserts the contrapositive
    on the instance (≥ 10 edges ⟹ a triangle exists).  Output:
    one row per K6 edge slot with membership and
    triangle-participation count, plus the global census/extremal
    columns.  Mirror: the same 32768-graph sweep in SQL over the
    shared edge/triangle constants."""
    bits = [int(b) & 1 for b in bits]
    assert len(bits) == 15

    def tri_count(bb):
        c = 0
        for i, j, k in RAMSEY_TRIS:
            if (bb[RAMSEY_EIDX[(i, j)]] and bb[RAMSEY_EIDX[(i, k)]]
                    and bb[RAMSEY_EIDX[(j, k)]]):
                c += 1
        return c

    n_edges = sum(bits)
    n_tri = tri_count(bits)

    best = -1
    for m in range(1 << 15):
        bb = [(m >> e) & 1 for e in range(15)]
        if tri_count(bb) == 0:
            s = sum(bb)
            if s > best:
                best = s
    assert best == 9                      # Turán, exhaustively
    if n_edges >= 10:
        assert n_tri >= 1                 # contrapositive

    per_edge_tri = [0] * 15
    for i, j, k in RAMSEY_TRIS:
        es = [RAMSEY_EIDX[(i, j)], RAMSEY_EIDX[(i, k)],
              RAMSEY_EIDX[(j, k)]]
        if all(bits[e] for e in es):
            for e in es:
                per_edge_tri[e] += 1

    rows = []
    for e, (i, j) in enumerate(RAMSEY_EDGES):
        rows.append((e, i, j, bits[e], per_edge_tri[e], n_edges,
                     n_tri, 9, best))
    out = pd.DataFrame(rows, columns=["edge", "i", "j", "present",
                                      "in_triangles", "n_edges",
                                      "n_triangles", "turan_bound",
                                      "max_trianglefree_edges"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


GOLDBACH_MAX = 202


def goldbach_int(seeds):
    """Goldbach representation counts — ADDITIVE PRIME NUMBER
    THEORY, a family the surface lacked (four_squares is additive
    over squares; this is the binary Goldbach question, VERIFIED
    on the whole working range): for every even n in [4, 202] the
    kernel asserts r(n) = #{p ≤ q prime : p + q = n} ≥ 1
    (exhaustive range verification, not just the census rows);
    per census row it emits r(n) and the minimal prime witness.
    Mirror: prime pairs by trial-division joins — sieve vs
    join."""
    def is_prime(v):
        return v >= 2 and all(v % f for f in
                              range(2, math.isqrt(v) + 1))

    primes = [v for v in range(2, GOLDBACH_MAX) if is_prime(v)]

    def reps(n):
        return [(p, n - p) for p in primes
                if p <= n - p and is_prime(n - p)]

    for n in range(4, GOLDBACH_MAX + 1, 2):
        assert len(reps(n)) >= 1          # Goldbach on the range

    rows = []
    for i, s in enumerate(seeds):
        n = 2 * (int(s) % 100 + 2)        # 4..202 even
        rr = reps(n)
        rows.append((i, n, len(rr), rr[0][0], rr[0][1]))
    out = pd.DataFrame(rows, columns=["inst", "n", "n_reps",
                                      "min_p", "max_q"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def graeco_latin_int(a_seed, b_seed):
    """Orthogonal (Graeco-)Latin squares of order 5 — DESIGN
    THEORY, a family the surface lacked (konig_cover is matching
    duality; designs are the combinatorics of balanced incidence):
    the cyclic squares L_c[i][j] = i + c·j (mod 5) are Latin for
    every c ∈ {1..4} (5 is prime so c is invertible — stated), and
    L_a ⊥ L_b iff a ≠ b; the kernel verifies BOTH facts
    EXHAUSTIVELY — Latinity for every c, orthogonality (all 25
    ordered pairs distinct) for every a ≠ b, and the FAILURE of
    orthogonality for every a = b — then emits the census-selected
    pair (a ≠ b forced by construction).  The classical
    application rides along: the 25 (row, column, letter, greek)
    cells form a net where every pair of 'coordinates' determines
    the cell.  Output: 25 cell rows.  Mirror: the same
    construction + COUNT(DISTINCT) orthogonality re-check."""
    n = 5
    for c in range(1, n):
        sq = [[(i + c * j) % n for j in range(n)] for i in range(n)]
        for i in range(n):
            assert len(set(sq[i])) == n                  # rows
            assert len(set(sq[r][i] for r in range(n))) == n
    for a in range(1, n):
        for b in range(1, n):
            pairs = {((i + a * j) % n, (i + b * j) % n)
                     for i in range(n) for j in range(n)}
            if a != b:
                assert len(pairs) == 25                  # orthogonal
            else:
                assert len(pairs) == 5                   # degenerate

    a = int(a_seed) % 4 + 1
    b = int(b_seed) % 4 + 1
    if b == a:
        b = b % 4 + 1
    assert a != b

    rows = []
    for i in range(n):
        for j in range(n):
            l1 = (i + a * j) % n
            l2 = (i + b * j) % n
            rows.append((i, j, l1, l2, 5 * l1 + l2, a, b))
    out = pd.DataFrame(rows, columns=["i", "j", "latin", "greek",
                                      "pair_code", "a", "b"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


BIRKHOFF_PERMS = []
def _bk_perms():
    from itertools import permutations
    return [list(p) for p in permutations(range(4))]
BIRKHOFF_PERMS = _bk_perms()


def birkhoff_int(weights):
    """Birkhoff-von Neumann decomposition of an integer doubly
    stochastic matrix — POLYTOPE DECOMPOSITION, a family the
    surface lacked (an optimal assignment finds ONE best permutation;
    Birkhoff writes the whole matrix as a sum of them): the 4×4
    matrix is BUILT as a census-weighted sum of four fixed
    permutation matrices (doubly-balanced by construction), then
    DECOMPOSED from scratch by the greedy algorithm — each round
    picks the lexicographically smallest of the 24 permutations
    whose support lies in the positive entries (one EXISTS by
    Birkhoff/Hall — asserted, not cited) and subtracts its
    bottleneck weight.  Termination at zero, exact reconstruction,
    and weight-sum conservation are asserted.  Output: one row per
    extraction round (perm rank in S4 lex order, its one-line
    digits, weight, remaining mass).  Mirror: the same greedy
    replayed as a recursive CTE over the 24 literal
    permutations."""
    ws = [int(w) % 9 + 1 for w in weights]
    assert len(ws) == 4
    build = [BIRKHOFF_PERMS[0], BIRKHOFF_PERMS[9],
             BIRKHOFF_PERMS[16], BIRKHOFF_PERMS[23]]
    M = [[0] * 4 for _ in range(4)]
    for w, pm in zip(ws, build):
        for i in range(4):
            M[i][pm[i]] += w
    S = sum(ws)
    for i in range(4):
        assert sum(M[i]) == S
        assert sum(M[r][i] for r in range(4)) == S

    rows = []
    rnd = 0
    remaining = 4 * S
    while any(M[i][j] for i in range(4) for j in range(4)):
        pick = None
        for rank, pm in enumerate(BIRKHOFF_PERMS):
            if all(M[i][pm[i]] > 0 for i in range(4)):
                pick = (rank, pm)
                break
        assert pick is not None          # Birkhoff / Hall
        rank, pm = pick
        w = min(M[i][pm[i]] for i in range(4))
        for i in range(4):
            M[i][pm[i]] -= w
        remaining -= 4 * w
        digits = int("".join(str(d) for d in pm))
        rows.append((rnd, rank, digits, w, remaining))
        rnd += 1
        assert rnd <= 24

    # reconstruction check
    R = [[0] * 4 for _ in range(4)]
    for _, rank, _, w, _ in rows:
        pm = BIRKHOFF_PERMS[rank]
        for i in range(4):
            R[i][pm[i]] += w
    M2 = [[0] * 4 for _ in range(4)]
    for w, pm in zip(ws, build):
        for i in range(4):
            M2[i][pm[i]] += w
    assert R == M2
    assert sum(r[3] for r in rows) == S

    out = pd.DataFrame(rows, columns=["round", "perm_rank",
                                      "perm_digits", "weight",
                                      "remaining"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


# Sperner: side-3 triangulation of a triangle, barycentric
# vertices (i, j, k), i+j+k = 3.  Corners fixed, edge vertices
# restricted, the single interior vertex free.
SPERNER_VERTS = [(i, j, 3 - i - j) for i in range(4)
                 for j in range(4 - i)]
SPERNER_VIDX = {v: n for n, v in enumerate(SPERNER_VERTS)}
SPERNER_TRIS = []
for i in range(3):
    for j in range(3 - i):
        k = 3 - i - j
        SPERNER_TRIS.append((SPERNER_VIDX[(i + 1, j, k - 1)],
                             SPERNER_VIDX[(i, j + 1, k - 1)],
                             SPERNER_VIDX[(i, j, k)]))
        if k >= 2 and i + j <= 2:
            SPERNER_TRIS.append((SPERNER_VIDX[(i + 1, j, k - 1)],
                                 SPERNER_VIDX[(i, j + 1, k - 1)],
                                 SPERNER_VIDX[(i + 1, j + 1,
                                               k - 2)]))

__all__ = sorted(set(_PREV_ALL) | set(['BATCHER8', 'BIRKHOFF_PERMS', 'COLLATZ_CAP', 'DFA_N_STATES', 'FOUR_SQ_NMAX', 'GAUSS_MAX_STEPS', 'GOLDBACH_MAX', 'GRAY_BITS', 'HOOK_N', 'HOOK_PARTITIONS', 'ISING_N', 'MR_BASES', 'NIM_MAX_HEAP', 'PARTITION_NMAX', 'PELL_YMAX', 'POLYA_DRAWS', 'RAMSEY_EDGES', 'RAMSEY_EIDX', 'RAMSEY_TRIS', 'SANDPILE_N', 'SHAMIR_P', 'SPERNER_TRIS', 'SPERNER_VERTS', 'SPERNER_VIDX', 'STIRLING_NMAX', 'VITERBI_E', 'VITERBI_W', 'ZECK_FIBS', '_a', '_b', '_bk_perms', '_floor_div', '_next_odd_prime', '_next_prime_2mod3', '_partitions_of', 'batcher_sort_int', 'birkhoff_int', 'bond_duration_int', 'bullwhip_int', 'buzen_network_int', 'collatz_int', 'convex_hull_int', 'coupon_collector_micro', 'derangements_int', 'dfa_minimize_int', 'discrete_log_int', 'dyck_catalan_int', 'ffd_binpack_int', 'four_squares_int', 'gauss_lattice_int', 'goldbach_int', 'graeco_latin_int', 'gray_code_int', 'group_testing_int', 'heat_diffusion_int', 'hook_lengths_int', 'huffman_cost_int', 'i', 'index_coincidence_int', 'ising_ring_int', 'j', 'josephus_int', 'k', 'knapsack_dp_int', 'konig_matching_int', 'legendre_reciprocity_int', 'linkage_diseq_int', 'lis_erdos_szekeres_int', 'lpt_makespan_int', 'maxflow_mincut_int', 'mdp_value_iter_int', 'miller_rabin_int', 'necklace_count_int', 'nim_grundy_int', 'partition_numbers_int', 'pell_equation_int', 'periodogram_int', 'permutation_cycles_int', 'polya_urn_int', 'ramsey_k6_int', 'rsa_crt_int', 'rule90_ring_int', 'sandpile_abelian_int', 'shamir_shares_int', 'simpson_cubic_int', 'spanning_trees_int', 'stirling_bell_int', 'three_distance_int', 'totient_moebius_int', 'tsp_heldkarp_int', 'turan_extremal_int', 'twosat_int', 'viterbi_decode_int', 'wardrop_poa_int', 'zeckendorf_int']))
