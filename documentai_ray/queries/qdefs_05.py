"""Driver query functions (part 5/6) — split out of ``__ray_entry__.py``."""
from __future__ import annotations

from documentai_ray.queries._helpers import *  # noqa: F401,F403


def _q_survival_cindex(sf_dir: str):
    """Harrell's concordance index — the MODEL-EVAL layer the
    survival family lacks: Kaplan–Meier describes the population
    curve, competing_risks splits it by cause, but "does per-user
    activity PREDICT who goes quiet sooner" scores a risk score
    against censored outcomes, and no ROC applies (AUC needs
    uncensored labels).  Conventions shared verbatim with
    ``windows.km_survival_int``: lifetime T = whole days first→last event, death
    observed iff the user went quiet ≥ 6 h before corpus max; risk
    score S = the user's event count.  The pair contract:

        comparable: (T_i < T_j ∧ E_i=1) ∨ (T_i = T_j ∧ E_i=1 ∧ E_j=0)
        credit:     2 if S_i > S_j, 1 if S_i = S_j (doubled units)
        c_index_ppm = 10⁶·c2 // comp2   (one floor; 500000 = chance)

    Physical plan: ONE user exchange → a bounded (T, E, S) histogram
    (≤ days×2×|scores|) → an O(cells·|scores|) suffix-cumulative
    fold driver-side — NO pair enumeration anywhere distributed.
    The oracle is deliberately a DIFFERENT algorithm (the direct
    quadratic pair join DuckDB can afford at test scale), so the
    suffix fold is checked against first principles rather than a
    mirror of itself."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Max, Min

    day_us = 86_400_000_000
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])

    def to_us(batch: pa.Table) -> pa.Table:
        t = batch.column("ts").cast(pa.timestamp("us")).cast(pa.int64())
        return pa.table({"user_id": batch.column("user_id"),
                         "t_us": t})

    t = ev.map_batches(to_us, batch_format="pyarrow")
    t_max = int(t.max("t_us"))
    per_user = (t.groupby("user_id")
                .aggregate(Min("t_us", alias_name="f"),
                           Max("t_us", alias_name="l"),
                           Count(alias_name="s")))

    def cells(batch: pa.Table) -> pa.Table:
        f = batch.column("f").to_numpy()
        l = batch.column("l").to_numpy()
        s = batch.column("s").to_numpy().astype("int64")
        td = (l - f) // day_us
        e = ((t_max - l) >= 6 * 3_600_000_000).astype("int64")
        df = pd.DataFrame({"t": td.astype("int64"), "e": e, "s": s,
                           "n": 1})
        g = df.groupby(["t", "e", "s"], as_index=False)["n"].sum()
        for c in g.columns:
            g[c] = g[c].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False) \
                       .replace_schema_metadata(None)

    from ray.data.aggregate import Sum
    h = (per_user.map_batches(cells, batch_format="pyarrow")
         .groupby(["t", "e", "s"])
         .aggregate(Sum("n", alias_name="n"))).to_pandas()
    scores = np.sort(h["s"].unique())
    idx = {v: i for i, v in enumerate(scores)}
    suffix = np.zeros(len(scores), dtype=object)   # counts with T > t
    c2 = comp2 = 0
    for tt in sorted(h["t"].unique(), reverse=True):
        at_t = h[h["t"] == tt]
        cens = np.zeros(len(scores), dtype=object)
        for _, r in at_t[at_t["e"] == 0].iterrows():
            cens[idx[int(r["s"])]] += int(r["n"])
        suf_prefix = np.cumsum(suffix)
        cen_prefix = np.cumsum(cens)
        suf_tot = int(suf_prefix[-1]) if len(scores) else 0
        cen_tot = int(cen_prefix[-1]) if len(scores) else 0
        for _, r in at_t[at_t["e"] == 1].iterrows():
            si, ni = idx[int(r["s"])], int(r["n"])
            lower = int(suf_prefix[si - 1]) if si else 0
            equal = int(suffix[si])
            c_lower = int(cen_prefix[si - 1]) if si else 0
            c_equal = int(cens[si])
            c2 += ni * (2 * (lower + c_lower) + equal + c_equal)
            comp2 += ni * 2 * (suf_tot + cen_tot)
        for _, r in at_t.iterrows():
            suffix[idx[int(r["s"])]] += int(r["n"])
    out = pd.DataFrame([{
        "n_users": int(h["n"].sum()),
        "n_events": int(h.loc[h["e"] == 1, "n"].sum()),
        "comp2": comp2, "c2": c2,
        "c_index_ppm": 1_000_000 * c2 // comp2 if comp2 else 0}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_selectivity_audit(sf_dir: str):
    """Attribute-value-independence (AVI) selectivity audit — the
    QUERY-PLANNER statistic the profiling family lacks:
    profile_columns gives per-column stats, fd_mine finds exact
    dependencies, but a cost-based optimizer multiplies single-column
    selectivities (the AVI assumption) and the interesting question
    is WHERE that lie is worst.  For the three lineitem predicates
    return (l_returnflag = 'R'), bigqty (qty ≥ 30), lsF
    (l_linestatus = 'F'), each pair/triple row reports

        actual_ppm = 10⁶·c_combo // n           (one floor)
        avi_ppm    = 10⁶·Πc_i // n^k            (one floor)
        diff_ppm   = actual − avi   (signed; ≈0 ⟺ independent)

    This corpus draws all three columns independently, so the audit
    READS ≈0 everywhere (|diff| ≲ 10² ppm sampling noise at sf0.01 —
    a verified-independence finding is still a finding: the planner
    may multiply); the hand test plants a fully dependent corpus
    where AVI under-estimates 4× .  Πc_i ≤ n³ ~ 10²⁰ at sf1 —
    HUGEINT, documented.  ONE scan of 8 FILTER counters; no
    exchange beyond the scalar partials.  Mirror: the same FILTER
    counts + identical floors."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    def partial(batch: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc
        r = pc.equal(batch.column("l_returnflag"), "R").to_numpy(
            zero_copy_only=False)
        q = np.rint(batch.column("l_quantity").to_numpy()) >= 30
        f = pc.equal(batch.column("l_linestatus"), "F").to_numpy(
            zero_copy_only=False)
        vals = [batch.num_rows, int(r.sum()), int(q.sum()),
                int(f.sum()), int((r & q).sum()), int((r & f).sum()),
                int((q & f).sum()), int((r & q & f).sum())]
        names = ["n", "c_r", "c_q", "c_f", "c_rq", "c_rf", "c_qf",
                 "c_rqf"]
        return pa.table({k: pa.array([v], pa.int64())
                         for k, v in zip(names, vals)})

    g = (ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_returnflag", "l_quantity", "l_linestatus"])
         .map_batches(partial, batch_format="pyarrow")
         .sum(["n", "c_r", "c_q", "c_f", "c_rq", "c_rf", "c_qf",
               "c_rqf"]))
    n = int(g["sum(n)"])
    c = {k: int(g[f"sum({k})"]) for k in
         ["c_r", "c_q", "c_f", "c_rq", "c_rf", "c_qf", "c_rqf"]}
    combos = [
        ("return&bigqty", c["c_rq"], c["c_r"] * c["c_q"], n * n),
        ("return&lsF", c["c_rf"], c["c_r"] * c["c_f"], n * n),
        ("bigqty&lsF", c["c_qf"], c["c_q"] * c["c_f"], n * n),
        ("return&bigqty&lsF", c["c_rqf"],
         c["c_r"] * c["c_q"] * c["c_f"], n * n * n)]
    recs = []
    for name, actual, prod, den in combos:
        a_ppm = 1_000_000 * actual // n
        avi = 1_000_000 * prod // den
        recs.append((name, n, a_ppm, avi, a_ppm - avi))
    out = pd.DataFrame(recs, columns=["pred", "n_rows", "actual_ppm",
                                      "avi_ppm", "diff_ppm"])
    for col in out.columns[1:]:
        out[col] = out[col].astype("int64")
    return out


def _q_yule_k(sf_dir: str):
    """Yule's characteristic K + Simpson repeat rate — the
    LENGTH-INVARIANT lexical-diversity constants the richness family
    doesn't give: vocab/TTR shrinks as any corpus grows (Heaps), so
    two corpora of different sizes can't be compared on it;
    Yule's K and Simpson's repeat probability are (asymptotically)
    length-free, and both are pure functions of the SAME
    frequency-of-frequency exchange species_richness ships:

        S2          = Σ_m m²·V_m  (= Σ_tokens freq² — computed as
                      Σ m·mass_m, mass already on the exchange)
        yule_k_milli = 10⁷·(S2 − N) // N²       (K ≈ 100-200 for
                       natural text; milli-K, one floor)
        simpson_ppm  = 10⁶·(S2 − N) // (N·(N−1))  (the chance two
                       tokens drawn WITHOUT replacement coincide)

    10⁷·S2 ≲ 10⁷·N·max_f — HUGEINT at web scale, documented.
    Mirror: unnest + two GROUP BYs + the identical fold."""
    import collections

    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        c = collections.Counter()
        for t in batch.column("text").to_pylist():
            c.update((t or "").split())
        return pa.table({
            "token": pa.array(list(c.keys()), pa.string()),
            "n": pa.array(list(c.values()), pa.int64())})

    tf = (ds.map_batches(partial, batch_format="pyarrow")
          .groupby("token")
          .aggregate(Sum("n", alias_name="n")))

    def freq_partial(batch: pa.Table) -> pa.Table:
        c = collections.Counter(batch.column("n").to_pylist())
        return pa.table({
            "freq": pa.array(list(c.keys()), pa.int64()),
            "n_tokens": pa.array(list(c.values()), pa.int64()),
            "mass": pa.array([k * v for k, v in c.items()],
                             pa.int64())})

    ff = (tf.map_batches(freq_partial, batch_format="pyarrow")
          .groupby("freq")
          .aggregate(Sum("n_tokens", alias_name="n_tokens"),
                     Sum("mass", alias_name="mass"))).to_pandas()
    s_obs = int(ff["n_tokens"].sum())
    n = int(ff["mass"].sum())
    s2 = int(sum(int(m) * int(ms)
                 for m, ms in zip(ff["freq"], ff["mass"])))
    out = pd.DataFrame([{
        "n_tokens": n, "vocab": s_obs, "s2": s2,
        "yule_k_milli": 10_000_000 * (s2 - n) // (n * n),
        "simpson_ppm": 1_000_000 * (s2 - n) // (n * (n - 1))}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_mann_whitney(sf_dir: str):
    """Mann-Whitney U with tie-corrected normal significance — the
    INFERENCE layer a bare AUC lacks: AUC = U/(n₁n₂) says
    HOW WELL quantity ranks returns, but not whether the separation
    beats chance at this sample size; the U test is that answer, and
    every piece is rational.  Doubled midranks (the kruskal_wallis
    discipline): U' = R'₊ − n₁(n₁+1) is the DOUBLED U, the centered
    statistic D = U' − n₁n₂ = 2(U − μ), and with the tie cubic
    T₃ = Σ(t³−t),

        var12     = n₁n₂·(n(n−1)(n+1) − T₃) // (n(n−1))
                    (12·Var(U), ONE shared floor)
        z2_milli  = 3000·D² // var12
        sig       = 3·10⁶·D² > 3841459·var12
                    (z² vs the chi²₁ 5% bound, exact on the shared
                     var12)

    D ≤ n₁n₂ keeps 3·10⁶·D² ≲ 2·10³² at sf1 — HUGEINT, documented.
    All-tied corpora have var12 = 0 → z2 = 0, not significant (the
    guard).  Same ONE bounded (qty, returned) histogram exchange as
    youden_threshold.  Mirror: histogram + window midranks +
    identical HUGEINT fold."""
    import pandas as pd

    h = _score_label_hist(sf_dir)
    v = h.groupby("qty", as_index=False)["n"].sum().sort_values("qty")
    v["cl"] = v["n"].cumsum().shift(fill_value=0)
    rp = {q: 2 * int(c) + int(m) + 1
          for q, c, m in zip(v["qty"], v["cl"], v["n"])}
    t3 = sum(int(m) ** 3 - int(m) for m in v["n"])
    pos = h[h["returned"]]
    neg = h[~h["returned"]]
    n1 = int(pos["n"].sum())
    n2 = int(neg["n"].sum())
    n = n1 + n2
    rsum2 = sum(int(m) * rp[q] for q, m in zip(pos["qty"], pos["n"]))
    u2 = rsum2 - n1 * (n1 + 1)
    d = u2 - n1 * n2
    var12 = n1 * n2 * (n * (n - 1) * (n + 1) - t3) // (n * (n - 1))
    if var12 > 0:
        z2 = 3000 * d * d // var12
        sig = 3_000_000 * d * d > 3_841_459 * var12
    else:
        z2, sig = 0, False
    out = pd.DataFrame([{
        "n_pos": n1, "n_neg": n2, "u2": u2, "t3": t3,
        "var12": var12, "z2_milli": z2, "significant": bool(sig)}])
    for c in out.columns[:-1]:
        out[c] = out[c].astype("int64")
    return out


def _q_kr20_reliability(sf_dir: str):
    """Kuder-Richardson 20 (Cronbach's α for binary items) over the
    four technique-agreement indicators — the INTERNAL-CONSISTENCY
    question the agreement family hasn't asked: fleiss_kappa scores
    raters against each other, mcnemar_test compares two of them,
    but "do the four indicators measure ONE underlying thing"
    (page classifiability) is reliability, and with binary items
    x_ui = [technique i matched the fused verdict on page u] every
    term clears to integers: item totals c_i, page totals X_u,

        V = n·ΣX² − (ΣX)²          (n²·the total-score variance)
        S = Σ_i c_i·(n − c_i)      (n²·Σ p_i·q_i)
        α = k/(k−1) · (V − S)/V    → alpha_milli, trunc-toward-zero

    (V = 0 — every page the same total — reads 1000 by convention.)
    The planted corpus makes α CLOSED-FORM: only ambiguous POs
    defect, and both defectors (regex, tokenset) defect on the SAME
    pages, so S = 2b(n−b), V = 4b(n−b), α = (4/3)·(1/2) = 2/3 →
    exactly 666 at every scale — the perfectly-correlated-defectors
    signature, pinned.  ΣX and ΣX² are single-row per-batch
    partials; ONE 4-integer fold.  Mirror: the census closed form."""
    import pandas as pd
    import pyarrow as pa

    from documentai_ray.pipelines.flagship import flagship

    techs = ["tech_keyword", "tech_regex", "tech_tokenset", "tech_ml"]
    ds = flagship(sf_dir=sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        cat = batch.column("category").to_pandas()
        x = sum((batch.column(t).to_pandas() == cat).astype(int)
                for t in techs)
        cols = {"n": [batch.num_rows],
                "sx": [int(x.sum())], "sxx": [int((x * x).sum())]}
        for t in techs:
            cols[f"c_{t[5:]}"] = [
                int((batch.column(t).to_pandas() == cat).sum())]
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in cols.items()})

    g = (ds.map_batches(partial, batch_format="pyarrow")
         .sum(["n", "sx", "sxx"] + [f"c_{t[5:]}" for t in techs]))
    n = int(g["sum(n)"])
    sx = int(g["sum(sx)"])
    sxx = int(g["sum(sxx)"])
    cs = [int(g[f"sum(c_{t[5:]})"]) for t in techs]
    v = n * sxx - sx * sx
    s = sum(c * (n - c) for c in cs)
    if v == 0:
        alpha = 1000
    else:
        num = 4 * (v - s)
        den = 3 * v
        alpha = (abs(num) * 1000 // den) * (1 if num >= 0 else -1)
    out = pd.DataFrame([{
        "n_pages": n, "k_items": 4, "sum_pq_n2": s,
        "var_n2": v, "alpha_milli": alpha}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_friedman_test(sf_dir: str):
    """Friedman within-block rank test — the REPEATED-MEASURES
    question kruskal_wallis can't pose: KW pools independent samples,
    but "do the five event types differ in per-USER activity" must
    rank WITHIN each user (users differ wildly in total volume — a
    between-user pooling would measure user size, not type
    preference).  Each user is a block: their k per-type counts
    (absent types = 0) rank 1..k with DOUBLED midranks; per-type
    sums R'_j feed ``aggregates.friedman_int`` (S = ΣR'_j² exact —
    uniform block membership needs NO per-group floor, unlike KW).
    Distribution: ONE (user,type) count exchange, then user-hash
    partitions rank ALL their users in one vectorized pandas pass
    (pivot + rank(axis=1)·2 — the sessionize discipline, groups
    bounded by P not by user count) and ship k-row partials.
    Mirror: user×type grid via CROSS JOIN + LEFT JOIN, doubled
    midranks as 2·rank + tie-count − 1 windows, identical fold."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Sum

    from documentai_ray.extras import friedman_int
    from documentai_ray.stages.dedup import _add_pkey

    counts = (ray.data.read_parquet(
                  f"{sf_dir}/events.parquet",
                  columns=["user_id", "event_type"])
              .groupby(["user_id", "event_type"])
              .aggregate(Count(alias_name="cnt")))
    types = sorted(counts.groupby("event_type")
                   .aggregate(Count(alias_name="_n"))
                   .to_pandas()["event_type"])

    def rank_block(g: pd.DataFrame) -> pd.DataFrame:
        wide = g.pivot_table(index="user_id", columns="event_type",
                             values="cnt", aggfunc="sum", fill_value=0)
        wide = wide.reindex(columns=types, fill_value=0)
        r2 = (wide.rank(axis=1, method="average") * 2).astype("int64")
        return pd.DataFrame({
            "event_type": types,
            "rsum2": [int(r2[t].sum()) for t in types],
            "nu": len(wide)})

    keyed = _add_pkey(counts, "user_id", 16)
    g = (keyed.groupby("_pkey")
         .map_groups(lambda d: rank_block(d.drop(columns=["_pkey"])),
                     batch_format="pandas")
         .groupby("event_type")
         .aggregate(Sum("rsum2", alias_name="rsum2"),
                    Sum("nu", alias_name="nu"))).to_pandas()
    n = int(g["nu"].sum()) // len(types)
    chi2, sig = friedman_int(dict(zip(g["event_type"], g["rsum2"])), n)
    out = g[["event_type", "rsum2"]].copy()
    out["n_users"] = n
    out["chi2_milli"] = chi2
    out["significant"] = sig
    for c in ("rsum2", "n_users", "chi2_milli"):
        out[c] = out[c].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


def _q_mcnemar_test(sf_dir: str):
    """McNemar's paired test on the keyword-vs-regex techniques —
    the PAIRED question the independence family can't pose:
    chi2_independence compares unpaired populations, but two
    classifiers judged on the SAME pages share every item, and only
    the DISCORDANT pairs carry information: b = keyword matches the
    fused consensus where regex doesn't, c = the reverse; the
    marginal-homogeneity statistic is (b−c)²/(b+c), already integer:

        chi2_milli  = 1000·(b−c)² // (b+c)      (0 when b+c = 0)
        significant = (b−c)²·10⁶ > 3841459·(b+c)

    (consensus = the fused 4-vote verdict — the production reference
    for "which technique deviates more".)  The planted corpus makes
    every discordance one-sided: ambiguous POs vote keyword=PO=fused,
    regex=data_report, so b = |ambiguous|, c = 0, chi2 = 1000·b.
    In-row compares, single-row partials, ONE 4-cell fold.  Mirror:
    the planted closed-form census."""
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from documentai_ray.pipelines.flagship import flagship

    ds = flagship(sf_dir=sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        cat = batch.column("category").to_pandas()
        kw = batch.column("tech_keyword").to_pandas() == cat
        rx = batch.column("tech_regex").to_pandas() == cat
        return pa.table({
            "a": pa.array([int((kw & rx).sum())], pa.int64()),
            "b": pa.array([int((kw & ~rx).sum())], pa.int64()),
            "c": pa.array([int((~kw & rx).sum())], pa.int64()),
            "d": pa.array([int((~kw & ~rx).sum())], pa.int64())})

    g = (ds.map_batches(partial, batch_format="pyarrow")
         .sum(["a", "b", "c", "d"]))
    a, b, c, d = (int(g["sum(a)"]), int(g["sum(b)"]),
                  int(g["sum(c)"]), int(g["sum(d)"]))
    chi2 = 1000 * (b - c) * (b - c) // (b + c) if b + c else 0
    sig = (b - c) * (b - c) * 1_000_000 > 3_841_459 * (b + c)
    out = pd.DataFrame([{
        "n_items": a + b + c + d, "both_agree": a, "kw_only": b,
        "rx_only": c, "neither": d, "chi2_milli": chi2,
        "significant": bool(sig)}])
    for col in out.columns[:-1]:
        out[col] = out[col].astype("int64")
    return out


def _q_max_drawdown(sf_dir: str):
    """Maximum drawdown of cumulative NET revenue — the PATH-risk
    readout the level ops can't see: cohort_ltv and running totals
    sum flows, trend ops fit slopes, but "how deep under its own
    high-water mark did the book go, and for how long" is a statement
    about the running-max PATH.  Gross revenue only rises, so the
    series is net flow: per ship-day Σ ±cents(l_extendedprice) with
    returns (l_returnflag = 'R') negative.  Exact integer fold over
    the ≤|days| daily series: cum_t, runmax_t, dd_t = runmax − cum;

        max_drawdown_cents, trough_day = argmax dd (EARLIEST on ties)
        peak_cents = the high-water mark standing at the trough
        underwater_max_run = longest consecutive OBSERVED-day stretch
                             with dd > 0 (no calendar densification —
                             the observed-row sequence is the
                             contract)

    ONE bounded (day) exchange of per-batch partial sums; the ~2.4k-
    row fold is driver-side.  Mirror: window cumsum/max + FILTER-min
    trough + gaps-and-islands run length."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    def prep(batch: pa.Table) -> pa.Table:
        import numpy as np
        cents = np.rint(batch.column("l_extendedprice").to_numpy()
                        * 100).astype("int64")
        sign = (batch.column("l_returnflag").to_pandas() == "R") \
            .to_numpy()
        day = batch.column("l_shipdate").to_pandas().dt.floor("D")
        return pa.table({
            "day": pa.Array.from_pandas(day),
            "net": pa.array(np.where(sign, -cents, cents), pa.int64())})

    g = (ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_shipdate", "l_extendedprice", "l_returnflag"])
         .map_batches(prep, batch_format="pyarrow")
         .groupby("day")
         .aggregate(Sum("net", alias_name="net"))).to_pandas()
    g = g.sort_values("day").reset_index(drop=True)
    cum = rm = 0
    best = None          # (dd, day, peak)
    run = best_run = 0
    for day, net in zip(g["day"], g["net"]):
        cum += int(net)
        rm = max(rm, cum)
        dd = rm - cum
        if best is None or dd > best[0]:
            best = (dd, day, rm)
        run = run + 1 if dd > 0 else 0
        best_run = max(best_run, run)
    out = pd.DataFrame([{
        "n_days": len(g), "final_cents": cum,
        "max_drawdown_cents": best[0], "trough_day": best[1],
        "peak_cents": best[2], "underwater_max_run": best_run}])
    for c in ("n_days", "final_cents", "max_drawdown_cents",
              "peak_cents", "underwater_max_run"):
        out[c] = out[c].astype("int64")
    return out


def _q_link_predict(sf_dir: str):
    """Common-neighbor link prediction over the deterministic web-ish
    link graph (edge set: i→i+1, i→i+2,
    i→(7i+1) mod n) — the FORECAST triangle counting only audits:
    a triangle count counts wedges that DID close, the clustering
    coefficient scores the closure rate; "which missing links have the most
    shared neighbors" ranks the wedges most likely to close next
    (the classic triadic-closure baseline).  Runs
    ``graph.common_neighbor_predict``: the wedge fan-out rides
    cooccurrence_pairs (middle node = basket of its distinct
    neighbors), adjacency removal is marker rows on the SAME pair
    exchange (no join), and the k-row answer is a global sort+limit.
    Top-20 by (cn desc, a, b).  Mirror: UNION ALL edge census +
    self-join wedges + NOT EXISTS + ORDER BY LIMIT."""
    import pyarrow as pa
    import ray.data

    from documentai_ray.stages.graph import common_neighbor_predict

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        src = list(ids) * 3
        dst = (list((ids + 1) % n) + list((ids + 2) % n)
               + list((ids * 7 + 1) % n))
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    return common_neighbor_predict(
        docs.map_batches(edges, batch_format="pyarrow"),
        top_k=20, num_partitions=16)


def _q_species_richness(sf_dir: str):
    """Chao1 vocabulary-richness + Good-Turing sample coverage — the
    HOW-MUCH-IS-MISSING question the frequency family can't pose:
    top_tokens / vocab_growth describe the vocabulary you SAW,
    hll/kmv estimate the distinct count of the stream you HAVE; a
    corpus curator choosing whether more crawling buys new vocabulary
    needs the unseen estimate, and the singleton/doubleton counts
    carry it.  With f1 singletons, f2 doubletons, S_obs distinct
    tokens, N total tokens, both estimators are rational:

        chao1        = S_obs + f1·(f1−1) // (2·(f2+1))
                       (the bias-corrected form — defined even at
                        f2 = 0, one floor)
        coverage_ppm = 10⁶·(N − f1) // N
                       (Turing: the chance the NEXT token is one
                        you've seen)

    Tokens are the non-empty whitespace split (the quality_pages
    convention).  Pipeline: Counter partials → vocab-bounded token
    groupby → per-batch freq-of-freq partials → a ≤|distinct freqs|
    exchange; the driver fold touches only (freq, count) rows —
    nothing vocab-sized reaches the driver.  Mirror: unnest +
    two GROUP BYs + FILTER counts."""
    import collections

    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        c = collections.Counter()
        for t in batch.column("text").to_pylist():
            c.update((t or "").split())
        return pa.table({
            "token": pa.array(list(c.keys()), pa.string()),
            "n": pa.array(list(c.values()), pa.int64())})

    tf = (ds.map_batches(partial, batch_format="pyarrow")
          .groupby("token")
          .aggregate(Sum("n", alias_name="n")))

    def freq_partial(batch: pa.Table) -> pa.Table:
        c = collections.Counter(batch.column("n").to_pylist())
        return pa.table({
            "freq": pa.array(list(c.keys()), pa.int64()),
            "n_tokens": pa.array(list(c.values()), pa.int64()),
            "mass": pa.array([k * v for k, v in c.items()],
                             pa.int64())})

    ff = (tf.map_batches(freq_partial, batch_format="pyarrow")
          .groupby("freq")
          .aggregate(Sum("n_tokens", alias_name="n_tokens"),
                     Sum("mass", alias_name="mass"))).to_pandas()
    s_obs = int(ff["n_tokens"].sum())
    n = int(ff["mass"].sum())
    f1 = int(ff.loc[ff["freq"] == 1, "n_tokens"].sum())
    f2 = int(ff.loc[ff["freq"] == 2, "n_tokens"].sum())
    out = pd.DataFrame([{
        "n_tokens": n, "vocab": s_obs, "f1": f1, "f2": f2,
        "chao1": s_obs + f1 * (f1 - 1) // (2 * (f2 + 1)),
        "coverage_ppm": 1_000_000 * (n - f1) // n}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_brier_decomp(sf_dir: str):
    """Murphy decomposition of the Brier score — the WHY behind
    calibration_bins' ECE: the Brier score alone can't say whether a
    forecaster is bad because it LIES about probabilities
    (reliability) or because it can't SEPARATE outcomes (resolution);
    Murphy splits it exactly as Brier = REL − RES + UNC when
    forecasts are grouped by their EXACT value — and the activity
    heuristic p = clamp((n_ev−40)·20000, 0, 10⁶) takes ≤ 51 discrete
    values, so the exact-value grouping (NOT calibration_bins'
    10-wide bins) makes the identity hold in rationals.  In ppm²
    sums, with level counts n_k, conversions c_k, totals N, C:

        brier_sum = Σ_k [(n_k−c_k)·p² + c_k·(p−10⁶)²]      (exact)
        rel_sum   = Σ_k (n_k·p − 10⁶·c_k)² // n_k          (1 floor/level)
        res_sum   = Σ_k 10¹²·(c_k·N − n_k·C)² // (n_k·N²)  (1 floor/level)
        unc       = 10¹²·C·(N−C) // N                       (1 floor)

    each reported as a per-user mean (// N), with gap_ppm2 =
    brier − (rel − res + unc) riding along as the floor-noise
    residual (0 on clean hand cases, |gap| bounded by the per-level
    floor losses).  (c_k·N)²·10¹² ≲ 10³⁶ at 10⁶ users — HUGEINT,
    documented.  ONE user exchange + ONE ≤51-level exchange.
    Mirror: the calibration_bins user CTE + GROUP BY exact p +
    identical floors."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Max, Sum

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        conv = pc.and_(pc.equal(batch.column("event_type"), "purchase"),
                       pc.greater_equal(batch.column("value"),
                                        pa.scalar(150.0)))
        return pa.table({"user_id": batch.column("user_id"),
                         "conv": conv.cast(pa.int64())})

    per_user = (ev.map_batches(prep, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(Count(alias_name="n_ev"),
                           Max("conv", alias_name="conv")))

    def score(batch: pa.Table) -> pa.Table:
        n_ev = batch.column("n_ev").to_numpy().astype("int64")
        p = np.clip((n_ev - 40) * 20_000, 0, 1_000_000)
        y = (batch.column("conv").to_numpy() > 0).astype("int64")
        return pa.table({
            "p": pa.array(p, pa.int64()),
            "_n": pa.array(np.ones_like(p), pa.int64()),
            "_c": pa.array(y, pa.int64())})

    g = (per_user.map_batches(score, batch_format="pyarrow")
         .groupby("p")
         .aggregate(Sum("_n", alias_name="n"),
                    Sum("_c", alias_name="c"))).to_pandas()
    nn = int(g["n"].sum())
    cc = int(g["c"].sum())
    brier = rel = res = 0
    for p, nk, ck in zip(g["p"], g["n"], g["c"]):
        p, nk, ck = int(p), int(nk), int(ck)
        brier += (nk - ck) * p * p + ck * (p - 1_000_000) ** 2
        rel += (nk * p - 1_000_000 * ck) ** 2 // nk
        res += (10 ** 12 * (ck * nn - nk * cc) ** 2) // (nk * nn * nn)
    unc = 10 ** 12 * cc * (nn - cc) // nn
    b, r1, r2, u = brier // nn, rel // nn, res // nn, unc // nn
    out = pd.DataFrame([{
        "n_users": nn, "n_levels": len(g),
        "brier_ppm2": b, "rel_ppm2": r1, "res_ppm2": r2,
        "unc_ppm2": u, "gap_ppm2": b - (r1 - r2 + u)}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_rbp_eval(sf_dir: str):
    """Rank-biased precision (p = 1/2) of the bm25_topk ranking —
    the PERSISTENCE model the eval family lacks: nDCG's harmonic
    discount is a convention, MRR stops at the first hit; RBP models
    a user who inspects rank r with probability p^(r−1) and scores
    Σ (1−p)·p^(r−1)·rel_r.  With the dyadic p = 1/2 (the
    rank_overlap discipline) the weight at
    rank r is exactly 10⁶ // 2^r ppm — and 10⁶ is divisible by 2⁵,
    so the top-5 sum has ZERO flooring loss: a fully relevant list
    reads exactly 968750 (the 31/32 truncation-at-k residue, not a
    rounding artifact).  Costs the shared bm25 chain + the pruned
    candidate fetch.  Mirror: _SQL_BM25_CORE + the relevance CTE +
    bit-shift weights."""
    import pandas as pd

    per_q = _bm25_top_rel(sf_dir)
    recs = []
    for qid, rr in sorted(per_q.items()):
        n_rel = sum(f for _, f in rr)
        rbp = sum(1_000_000 // (1 << r) for r, f in rr if f)
        recs.append((qid, n_rel, rbp))
    out = pd.DataFrame(recs, columns=["query_id", "n_rel_topk",
                                      "rbp_ppm"])
    for c in out.columns[1:]:
        out[c] = out[c].astype("int64")
    return out


def _q_err_eval(sf_dir: str):
    """Expected reciprocal rank (cascade model) of the bm25_topk
    ranking — the DIMINISHING-RETURNS metric nDCG/RBP structurally
    can't express: their discounts are static per rank, so the 3rd
    relevant doc earns the same as if it were the only one; ERR's
    cascade user STOPS at each relevant doc with probability R, so
    every relevant doc above r shrinks r's credit.  With the dyadic
    stop probability R = 1/2 for relevant docs (0 otherwise), the
    term at rank r with j relevant docs above it is
    10⁶ // (r · 2^(j+1)) ppm — one floor per term, the contract —
    and err_ppm is their sum (all-relevant top-5 pins 688541).
    Same shared scaffold as rbp_eval.  Mirror: _SQL_BM25_CORE +
    window-counted prior relevance + identical floors."""
    import pandas as pd

    per_q = _bm25_top_rel(sf_dir)
    recs = []
    for qid, rr in sorted(per_q.items()):
        n_rel = sum(f for _, f in rr)
        err, j = 0, 0
        for r, f in rr:
            if f:
                err += 1_000_000 // (r * (1 << (j + 1)))
                j += 1
        recs.append((qid, n_rel, err))
    out = pd.DataFrame(recs, columns=["query_id", "n_rel_topk",
                                      "err_ppm"])
    for c in out.columns[1:]:
        out[c] = out[c].astype("int64")
    return out


def _q_kruskal_wallis(sf_dir: str):
    """Kruskal-Wallis k-sample rank test — the K-GROUP location
    question the two-sample family can't pose: AUC scores how
    well quantity separates TWO outcomes, cochran_armitage needs
    ORDERED groups; "do the three return-flag populations draw
    quantity from the same distribution" is unordered and k-ary, and
    KW is its rank test.  Everything clears to integers with DOUBLED
    midranks (ties land on half-integers, so work in half-units, the
    doubled-units discipline): for value v with cl strictly-smaller
    rows and nv equal rows, R'_v = 2·cl + nv + 1, per group
    R'_j = Σ nv_j·R'_v (invariant Σ_j R'_j = n·(n+1), pinned).  The
    statistic in quarter-cleared form, ONE floor per group (the
    shared contract):

        S       = Σ_j R'_j² // n_j
        h_milli = max(0, (3000·S − 3000·n·(n+1)²) // (n·(n+1)))

    (3/(n(n+1))·ΣR'²/n − 3(n+1) is the classic 12/(n(n+1))·ΣR²/n
    form after the doubling; ties left uncorrected — the correction
    only shrinks the denominator, documented).  Significance at 5%
    on chi²₂ cross-multiplies the SHARED floored S so both engines
    flag identically: 3·10⁶·S − 3·10⁶·n(n+1)² > 5991465·n(n+1).
    Magnitude: R'_j² ≲ 4n⁴ ≈ 5·10²³ at sf1 — HUGEINT territory,
    documented.  ONE bounded (qty, flag) histogram exchange; the
    ≤150-cell fold runs in the calling process.
    Mirror: histogram CTE + window cumsum midranks + the identical
    floors under HUGEINT."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count

    def prep(batch: pa.Table) -> pa.Table:
        v = np.rint(batch.column("l_quantity").to_numpy()).astype("int64")
        return pa.table({
            "qty": pa.array(v, pa.int64()),
            "flag": batch.column("l_returnflag")})

    from documentai_ray.extras import kruskal_wallis_int

    h = (ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_quantity", "l_returnflag"])
         .map_batches(prep, batch_format="pyarrow")
         .groupby(["qty", "flag"])
         .aggregate(Count(alias_name="n"))).to_pandas()
    out = kruskal_wallis_int(h, val_col="qty", grp_col="flag")
    return out[["flag", "n_grp", "rsum2", "h_milli", "significant"]]


def _q_fleiss_kappa(sf_dir: str):
    """Fleiss' kappa over the FOUR classifier techniques — the
    multi-rater agreement readout the surface lacks: lang_kappa is
    Cohen's kappa (exactly 2 raters), technique_stats scores each
    technique against the FUSED verdict (which the techniques
    themselves produced — circular as an agreement measure); Fleiss
    asks how much the 4 independent raters agree with EACH OTHER
    beyond chance.  With n items, r = 4 raters, per-item category
    counts n_ij, S = Σ_ij n_ij², category totals C_j, T = Σ_j C_j²,
    M = n·r, everything is rational:

        P̄        = (S − M)/(M·(r−1))      → pbar_ppm, one floor
        P̄e       = T/M²                    → pe_ppm, one floor
        κ        = [M(S−M) − 3T] / [3(M²−T)] → kappa_milli,
                   trunc-toward-zero (the SQL ``//`` on a possibly
                   negative numerator — matched exactly)

    Per-item Σ_j n_ij² needs no per-row Python: it equals the number
    of ORDERED technique pairs that agree, so 16 vectorized
    column-pair comparisons per batch; C_j is a category-bounded
    Counter.  ONE |cats|-bounded exchange.  Mirror: the planted
    closed-form census (ambiguous POs split 2 purchase_order /
    2 data_report — verified against the live tech columns — all
    other rows unanimous) + the identical integer fold."""
    import collections

    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from documentai_ray.pipelines.flagship import flagship

    techs = ["tech_keyword", "tech_regex", "tech_tokenset", "tech_ml"]
    ds = flagship(sf_dir=sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        cols = {t: batch.column(t).to_pandas() for t in techs}
        c = collections.Counter()
        for t in techs:
            c.update(cols[t].tolist())
        s_item = 0
        for a in techs:
            for b in techs:
                s_item += int((cols[a] == cols[b]).sum())
        cats = sorted(c)
        return pa.table({
            "cat": pa.array(cats + ["__s"], pa.string()),
            "c": pa.array([c[k] for k in cats] + [s_item], pa.int64())})

    from documentai_ray.extras import fleiss_kappa_int

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("cat")
           .aggregate(Sum("c", alias_name="c"))).to_pandas()
    s = int(agg.loc[agg["cat"] == "__s", "c"].iloc[0])
    cj = agg[agg["cat"] != "__s"]
    out = pd.DataFrame([fleiss_kappa_int(
        s, dict(zip(cj["cat"], cj["c"])))])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


__all__ = ['_q_survival_cindex', '_q_selectivity_audit', '_q_yule_k', '_q_mann_whitney', '_q_kr20_reliability', '_q_friedman_test', '_q_mcnemar_test', '_q_max_drawdown', '_q_link_predict', '_q_species_richness', '_q_brier_decomp', '_q_rbp_eval', '_q_err_eval', '_q_kruskal_wallis', '_q_fleiss_kappa']
