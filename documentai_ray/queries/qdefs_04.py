"""Off-chain query bodies (part 4/6 of the split ``__ray_entry__.py``).

None of these is a registry key or has an oracle twin: unit tests call
them through ``__ray_entry__``, and each goes with those tests. Their
"oracle" notes describe DuckDB twins that were deleted with the keys."""
from __future__ import annotations

from documentai_ray.queries._helpers import *  # noqa: F401,F403


def _q_capture_diff(sf_dir: str):
    """Page-change detection between the earliest and latest capture
    of each multi-captured url — the CHANGE measurement the dedup
    family deliberately erases (dedup_latest keeps one winner;
    recrawl_priority guesses from age; this op reads what actually
    changed): per url with ≥ 2 captures, distinct-LINE set difference
    (n_added / n_removed / n_common) and
    change_ppm = 10⁶·(added+removed) // |union| — the recrawl-value
    signal a freshness scheduler feeds on.

    Physical plan: extract → project (url, warc_ts, text) → ONE
    url-hash exchange; per partition a vectorized capture-count
    prefilter keeps only multi-capture urls (5% by construction)
    before any Python-level set work.  Oracle: the corpus plants the
    stale capture as a BLANK page one day earlier, so earliest = ∅
    lines and latest = the golden text — the closed-form census
    pattern (url_templates)."""
    from documentai_ray.sources.pages import pages_dataset
    from documentai_ray.stages.dedup import capture_line_diff
    from documentai_ray.stages.extract import extract_batch

    ds = pages_dataset(sf_dir, with_dups=True)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow",
                        batch_size=256)
    return capture_line_diff(
        ds.select_columns(["url", "warc_ts", "text"]))


def _q_youden_threshold(sf_dir: str):
    """Operating-point selection by Youden's J — the decision AUC
    refuses to make: AUC says HOW WELL quantity ranks returns,
    but a filter needs ONE threshold, and J = TPR − FPR picks the
    point where the classifier beats chance by the most (the
    sensitivity+specificity−1 maximizer).  Classifier: positive ⟺
    score ≥ t, candidates = distinct scores; per candidate
    tpr_ppm = 10⁶·tp // P and fpr_ppm = 10⁶·fp // N (one floor each —
    the contract), J = tpr − fpr, ties → SMALLEST threshold (the more
    sensitive operating point).  Same bounded histogram exchange
    (``_score_label_hist``); the sweep is a cumulative scan over ≤|scores| rows.
    Mirror: histogram + window sums + ORDER BY LIMIT 1."""
    import pandas as pd

    h = _score_label_hist(sf_dir)
    g = h.pivot_table(index="qty", columns="returned", values="n",
                      aggfunc="sum", fill_value=0).sort_index(
        ascending=False)
    pos = g[True].to_numpy() if True in g else 0 * g.iloc[:, 0].to_numpy()
    neg = g[False].to_numpy() if False in g else 0 * g.iloc[:, 0].to_numpy()
    p_tot, n_tot = int(pos.sum()), int(neg.sum())
    best = None
    cum_p = cum_n = 0
    for t, tp_add, fp_add in zip(g.index, pos, neg):
        cum_p += int(tp_add)
        cum_n += int(fp_add)
        tpr = _trunc_ppm(cum_p, p_tot)
        fpr = _trunc_ppm(cum_n, n_tot)
        j = tpr - fpr
        cand = (j, -int(t), cum_p, cum_n, tpr, fpr)
        if best is None or cand[:2] > best[:2]:
            best = cand
    j, negt, tp, fp, tpr, fpr = best
    t = -negt
    out = pd.DataFrame([{
        "threshold": t, "tp": tp, "fp": fp,
        "fn": p_tot - tp, "tn": n_tot - fp,
        "tpr_ppm": tpr, "fpr_ppm": fpr, "youden_ppm": j}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_average_precision(sf_dir: str):
    """Average precision (PR-curve area) under the BLOCK tie contract
    — the eval for imbalanced problems where ROC flatters (AUC's
    denominator P·N barely moves when negatives dominate; AP weights
    by precision, which collapses): scores sweep DESCENDING in
    distinct-value blocks (ties are physical — every equal score is
    the same operating point, so precision is measured at each block
    END, the pessimistic tie convention), contribution per block
    floors once: 10⁶·rel_b·cumpos_b // (cumtot_b·R).  Same bounded
    histogram exchange.  Mirror: window sums + identical per-block
    floor."""
    import pandas as pd

    h = _score_label_hist(sf_dir)
    g = h.pivot_table(index="qty", columns="returned", values="n",
                      aggfunc="sum", fill_value=0).sort_index(
        ascending=False)
    pos = g[True].to_numpy()
    neg = g[False].to_numpy()
    r_tot = int(pos.sum())
    ap = 0
    cum_p = cum_t = 0
    for tp_add, fp_add in zip(pos, neg):
        rel = int(tp_add)
        cum_p += rel
        cum_t += rel + int(fp_add)
        ap += 1_000_000 * rel * cum_p // (cum_t * r_tot)
    out = pd.DataFrame([{
        "n_pos": r_tot,
        "n_neg": int(neg.sum()),
        "ap_ppm": ap}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_tukey_outliers(sf_dir: str):
    """Boxplot (Tukey-fence) outlier census per returnflag — the
    third outlier RULE next to 3σ (mean-based, wrecked by the very
    outliers it hunts) and MAD (median-based z): the 1.5·IQR fence is
    what every boxplot draws, and on integer quantities it is exactly
    representable — hinges via Tukey's median-of-halves (both halves
    include the middle row when m is odd), DOUBLED units for the
    hinges (sum-of-middles) and ×4 units for the fences
    (lo₄ = 2·q1₂ − 3·(q3₂ − q1₂)); a value x is an outlier iff
    4x < lo₄ or 4x > hi₄, counted from the bounded histogram.  ONE
    (flag, value) exchange (the grouped_median_int contract).
    Mirror: row_number rank picks + the same ×4 arithmetic."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_returnflag"])

    def prep(batch: pa.Table) -> pa.Table:
        v = np.rint(batch.column("l_quantity").to_numpy()).astype("int64")
        return pa.table({"flag": batch.column("l_returnflag"),
                         "v": pa.array(v, pa.int64())})

    h = (li.map_batches(prep, batch_format="pyarrow")
         .groupby(["flag", "v"])
         .aggregate(Count(alias_name="n"))).to_pandas()

    def pick(vals, cnts, rank):  # 1-based rank in the sorted expansion
        cum = 0
        for v, c in zip(vals, cnts):
            cum += c
            if cum >= rank:
                return int(v)
        raise AssertionError("rank out of range")

    recs = []
    for flag, g in h.groupby("flag", sort=True):
        g = g.sort_values("v")
        vals = g["v"].to_numpy()
        cnts = g["n"].astype(int).to_numpy()
        m = int(cnts.sum())
        k = (m + 1) // 2            # half size (middle included if odd)
        q1_2 = pick(vals, cnts, (k + 1) // 2) \
            + pick(vals, cnts, k // 2 + 1)
        off = m // 2
        q3_2 = pick(vals, cnts, off + (k + 1) // 2) \
            + pick(vals, cnts, off + k // 2 + 1)
        lo4 = 2 * q1_2 - 3 * (q3_2 - q1_2)
        hi4 = 2 * q3_2 + 3 * (q3_2 - q1_2)
        n_lo = int(cnts[4 * vals < lo4].sum())
        n_hi = int(cnts[4 * vals > hi4].sum())
        recs.append((flag, m, q1_2, q3_2, lo4, hi4, n_lo, n_hi))
    out = pd.DataFrame(recs, columns=[
        "flag", "n", "q1_x2", "q3_x2", "fence_lo_x4", "fence_hi_x4",
        "n_out_lo", "n_out_hi"])
    for c in out.columns[1:]:
        out[c] = out[c].astype("int64")
    return out


def _q_mase_eval(sf_dir: str):
    """Scaled forecast error (``windows.naive_mase``): backtest_mae's
    raw seasonal-naive MAE divided by the in-sample one-step naive MAE
    — Hyndman's MASE, the unit-free grade that makes forecast error
    comparable ACROSS series (a raw MAE of 40 is great on a volatile
    stream and terrible on a flat one; mase_ppm < 10⁶ means same-hour-
    yesterday beats repeat-last-hour).  Both error sums exact integers
    over observed-hour pairs, the ratio clears both means in ONE floor
    (10⁶·sae₂₄·n₁ // (sae₁·n₂₄)).  Same ONE bounded (hour, type)
    exchange as backtest_mae.  Mirror: two lag self-joins + the
    identical floor under HUGEINT."""
    import ray.data

    from documentai_ray.stages.windows import naive_mase

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type"])
    return naive_mase(ev, ts_col="ts", key_col="event_type",
                      season_hours=24)


def _q_qini_auuc(sf_dir: str):
    """Qini curve + AUUC over the activity ranking — the AREA reading
    of uplift_deciles: per-decile uplift says WHERE the response
    lives, but choosing a targeting CUTOFF needs the cumulative view
    (treat the top-k deciles; how many incremental conversions vs
    random targeting?).  Same plan as uplift_deciles (Knuth arms, one
    user exchange, ``global_row_index`` activity rank, decile =
    1 + 10·rank // n), then the cumulative fold per decile d:

        qini_d  = Ct_d − Cc_d·Nt_d // Nc_d      (ONE floor, counts ≥ 0)
        auuc_d  = Σ_{e≤d} qini_e                 (exact)
        rand_d  = sign-split d·qini₁₀ // 10      (the random diagonal)
        gain_d  = qini_d − rand_d

    qini₁₀ can be negative (control may out-convert), so rand_d floors
    on |qini₁₀| and re-signs — Python floor and DuckDB trunc agree only
    on non-negative operands (the sign-split discipline).  10-row
    driver fold over the 40-cell aggregate.  Mirror: the uplift_deciles
    CTE + window cumsums + identical floors."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Max, Sum

    from documentai_ray.stages.aggregates import global_row_index

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
    n_users = per_user.count()

    def neg(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "neg_n", pa.array((-batch.column("n_ev").to_numpy())
                              .astype("int64"), pa.int64()))

    ranked = global_row_index(
        per_user.map_batches(neg, batch_format="pyarrow"),
        val_col="neg_n", tiebreak_col="user_id", out_col="_ri")

    def cells(batch: pa.Table) -> pa.Table:
        ids = batch.column("user_id").to_numpy()
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        treat = h < np.uint64(1 << 31)
        dec = 1 + 10 * batch.column("_ri").to_numpy() // n_users
        conv = batch.column("conv").to_numpy() > 0
        df = pd.DataFrame({"decile": dec.astype("int64"),
                           "t": treat, "c": conv})
        g = df.groupby(["decile", "t"], as_index=False).agg(
            n=("c", "size"), conv=("c", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False) \
                       .replace_schema_metadata(None)

    g = (ranked.map_batches(cells, batch_format="pyarrow")
         .groupby(["decile", "t"])
         .aggregate(Sum("n", alias_name="n"),
                    Sum("conv", alias_name="conv"))).to_pandas()

    cum = {"nt": 0, "ct": 0, "nc": 0, "cc": 0}
    pre = []
    for d in sorted(g["decile"].unique()):
        gt = g[(g["decile"] == d) & g["t"]]
        gc = g[(g["decile"] == d) & ~g["t"]]
        cum["nt"] += int(gt["n"].sum())
        cum["ct"] += int(gt["conv"].sum())
        cum["nc"] += int(gc["n"].sum())
        cum["cc"] += int(gc["conv"].sum())
        qini = (cum["ct"] - cum["cc"] * cum["nt"] // cum["nc"]
                if cum["nc"] > 0 else cum["ct"])
        pre.append((int(d), cum["nt"], cum["ct"], cum["nc"],
                    cum["cc"], qini))
    q10 = pre[-1][5]
    recs, auuc = [], 0
    for d, nt, ct, nc, cc, qini in pre:
        auuc += qini
        rand = ((d * q10) // 10 if q10 >= 0
                else -((d * (-q10)) // 10))
        recs.append((d, nt, ct, nc, cc, qini, auuc, rand,
                     qini - rand))
    out = pd.DataFrame(recs, columns=[
        "decile", "cum_n_treat", "cum_conv_treat", "cum_n_ctrl",
        "cum_conv_ctrl", "qini", "auuc_cum", "rand_base", "gain"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_calibration_bins(sf_dir: str):
    """Probability CALIBRATION — the eval axis the discrimination ops
    (youden_threshold, average_precision) can't see: a score
    can rank perfectly yet lie about the probabilities (say 90% when
    35% convert), and any system that THRESHOLDS on the raw score or
    multiplies it into an expected value needs the reliability
    diagram, not the ROC.  The score is the deterministic activity
    heuristic p_ppm = clamp((n_ev − 40)·20000, 0, 10⁶) vs the actual
    purchase≥150 conversion; fixed-width bins b = min(9, p // 10⁵),
    per bin:

        conf_ppm = Σp // n          (mean claimed probability)
        acc_ppm  = 10⁶·conv // n    (observed rate)
        gap_ppm  = |acc − conf|     (of the two FLOORED values — the
                                     deterministic convention)
        brier_sum = Σ (p − 10⁶·y)²  (exact; the Brier numerator)

    and the scalar ECE rides every row: ece_ppm = Σ n_b·gap_b // N
    (one floor).  ONE user exchange + ONE 10-cell bin exchange of
    4-integer partials.  Mirror: identical CASE bins + FILTER sums +
    the same floors under HUGEINT."""
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
        sq = (p - 1_000_000 * y) ** 2
        return pa.table({
            "bin": pa.array(np.minimum(9, p // 100_000), pa.int64()),
            "_n": pa.array(np.ones_like(p), pa.int64()),
            "_conv": pa.array(y, pa.int64()),
            "_p": pa.array(p, pa.int64()),
            "_sq": pa.array(sq, pa.int64())})

    g = (per_user.map_batches(score, batch_format="pyarrow")
         .groupby("bin")
         .aggregate(Sum("_n", alias_name="n"),
                    Sum("_conv", alias_name="n_conv"),
                    Sum("_p", alias_name="sum_p"),
                    Sum("_sq", alias_name="brier_sum"))).to_pandas()
    g = g.sort_values("bin").reset_index(drop=True)
    n_total = int(g["n"].sum())
    g["conf_ppm"] = [int(sp) // int(n)
                     for sp, n in zip(g["sum_p"], g["n"])]
    g["acc_ppm"] = [1_000_000 * int(c) // int(n)
                    for c, n in zip(g["n_conv"], g["n"])]
    g["gap_ppm"] = (g["acc_ppm"] - g["conf_ppm"]).abs()
    ece = int((g["n"] * g["gap_ppm"]).sum()) // n_total
    g["ece_ppm"] = ece
    out = g[["bin", "n", "n_conv", "conf_ppm", "acc_ppm", "gap_ppm",
             "brier_sum", "ece_ppm"]].copy()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_srm_check(sf_dir: str):
    """Sample-ratio-mismatch guardrail — the experiment-HEALTH check
    every arm-comparison op in this repo (ab_conversion, uplift,
    logrank, did) silently assumes: if the 50/50 Knuth assignment
    doesn't hold in the observed data (a bucketing bug, a bot filter
    that correlates with the coin), every downstream uplift number is
    garbage, and the industry-standard tripwire is a χ² of the arm
    counts against the design ratio.  With E = N/2 the statistic
    collapses to χ² = (n_t − n_c)²/N — exact integer numerator, ONE
    floor at milli precision — and the flag cross-multiplies against
    the χ²₁ 5% critical value: (n_t − n_c)²·10⁶ > 3841459·N (the
    ``windows.logrank_test_int`` discipline).  Scalars only; the user exchange is the
    plan's single shuffle.  Mirror: the same coin + cross-multiplied
    inequality."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from ray.data.aggregate import Count

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id"])
    users = ev.groupby("user_id").aggregate(Count(alias_name="_cnt"))

    def arms(batch: pa.Table) -> pa.Table:
        ids = batch.column("user_id").to_numpy()
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        t = (h < np.uint64(1 << 31)).astype("int64")
        return pa.table({"_t": pa.array(t, pa.int64()),
                         "_c": pa.array(1 - t, pa.int64())})

    g = (users.map_batches(arms, batch_format="pyarrow")
         .aggregate(Sum("_t", alias_name="nt"),
                    Sum("_c", alias_name="nc")))
    nt = int(g["nt"])
    nc = int(g["nc"])
    n = nt + nc
    d = nt - nc
    chi2_milli = 1000 * d * d // n
    flag = d * d * 1_000_000 > 3_841_459 * n
    out = pd.DataFrame([{
        "n_treat": nt, "n_ctrl": nc, "delta": d,
        "chi2_milli": chi2_milli, "srm_flag": bool(flag)}])
    for c in ("n_treat", "n_ctrl", "delta", "chi2_milli"):
        out[c] = out[c].astype("int64")
    return out


def _q_ips_policy_eval(sf_dir: str):
    """Off-policy evaluation — the counterfactual question the A/B ops
    can't answer: ab_conversion grades the arms that RAN; this grades a
    NEW targeting policy (treat iff n_ev ≥ 66) from the same logs
    without deploying it.  The Knuth coin is the logged behavior policy
    with propensity exactly 1/2 for every user, so the IPS estimator's
    weights are the exact rational 2 and everything stays integer:

        ips_ppm    = 2·10⁶ · Σ y·match // n        (Horvitz-Thompson)
        snips_ppm  = 10⁶ · Σ y·match // Σ match    (self-normalized —
                     the 2s cancel; 0-guarded when no user matches)
        logged_ppm = 10⁶ · Σ y // n                (behavior baseline)

    match = [coin arm == policy arm]; n_match is the effective-sample
    diagnostic every OPE report carries (IPS variance blows up as it
    shrinks).  ONE user exchange, scalar partials only.  Mirror: the
    same coin + CASE policy + identical floors."""
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

    def cells(batch: pa.Table) -> pa.Table:
        ids = batch.column("user_id").to_numpy()
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        logged = (h < np.uint64(1 << 31)).astype("int64")
        pol = (batch.column("n_ev").to_numpy() >= 66).astype("int64")
        match = (logged == pol).astype("int64")
        y = (batch.column("conv").to_numpy() > 0).astype("int64")
        return pa.table({
            "_n": pa.array(np.ones_like(match), pa.int64()),
            "_y": pa.array(y, pa.int64()),
            "_m": pa.array(match, pa.int64()),
            "_my": pa.array(match * y, pa.int64())})

    g = (per_user.map_batches(cells, batch_format="pyarrow")
         .aggregate(Sum("_n", alias_name="n"),
                    Sum("_y", alias_name="y"),
                    Sum("_m", alias_name="m"),
                    Sum("_my", alias_name="my")))
    n, y, m, my = (int(g["n"]), int(g["y"]), int(g["m"]),
                   int(g["my"]))
    out = pd.DataFrame([{
        "n": n, "n_match": m, "n_match_conv": my,
        "logged_ppm": 1_000_000 * y // n,
        "ips_ppm": 2_000_000 * my // n,
        "snips_ppm": 1_000_000 * my // m if m > 0 else 0}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_label_shift(sf_dir: str):
    """Black-box label-shift estimation (BBSE) — the drift family's
    missing half: tvd/ks/chi2 DETECT that a segment differs; this
    QUANTIFIES the new label prior using only a frozen classifier's
    confusion rates, the estimator behind every "how much did the
    positive rate move in production?" dashboard where target labels
    are unavailable.  Source = Knuth-true users; target = Knuth-false
    users with ≥ 12 purchases (a label-correlated segment, so the
    prior genuinely shifts); classifier ŷ = (n_ev ≥ 66), label
    y = converts.  BBSE inverts the 2×2 confusion:

        q = (μ − fpr)/(tpr − fpr)

    cleared to ONE sign-split floor: with P = TP+FN, N = FP+TN,
    num = P·(m1·N − FP·m), den = m·(TP·N − FP·P),
    est_prior_ppm = sign(num·den) · (10⁶·|num| // |den|) (0 when den
    is 0 — a chance-level classifier can't see the shift).  The true
    target prior rides along, making the estimator's error visible.
    ONE user exchange, 8 scalar partials.  Mirror: identical counts +
    the same sign-split CASE under HUGEINT."""
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
        purch = pc.equal(batch.column("event_type"), "purchase")
        return pa.table({"user_id": batch.column("user_id"),
                         "conv": conv.cast(pa.int64()),
                         "purch": purch.cast(pa.int64())})

    per_user = (ev.map_batches(prep, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(Count(alias_name="n_ev"),
                           Max("conv", alias_name="conv"),
                           Sum("purch", alias_name="np")))

    def cells(batch: pa.Table) -> pa.Table:
        ids = batch.column("user_id").to_numpy()
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        src = h < np.uint64(1 << 31)
        tgt = (~src) & (batch.column("np").to_numpy() >= 12)
        yh = batch.column("n_ev").to_numpy() >= 66
        y = batch.column("conv").to_numpy() > 0
        def n(mask):
            return pa.array(mask.astype("int64"), pa.int64())
        return pa.table({
            "_tp": n(src & y & yh), "_fn": n(src & y & ~yh),
            "_fp": n(src & ~y & yh), "_tn": n(src & ~y & ~yh),
            "_m": n(tgt), "_m1": n(tgt & yh), "_t1": n(tgt & y)})

    g = (per_user.map_batches(cells, batch_format="pyarrow")
         .aggregate(*[Sum(c, alias_name=c.lstrip("_")) for c in
                      ("_tp", "_fn", "_fp", "_tn", "_m", "_m1",
                       "_t1")]))
    tp, fn, fp, tn, m, m1, t1 = (int(g[k]) for k in
                                 ("tp", "fn", "fp", "tn", "m", "m1",
                                  "t1"))
    p_src, n_src = tp + fn, fp + tn
    num = p_src * (m1 * n_src - fp * m)
    den = m * (tp * n_src - fp * p_src)
    if den == 0:
        est = 0
    else:
        s = 1 if (num >= 0) == (den > 0) else -1
        est = s * (1_000_000 * abs(num) // abs(den))
    out = pd.DataFrame([{
        "n_src": p_src + n_src, "tp": tp, "fp": fp, "fn": fn,
        "tn": tn, "n_tgt": m, "m1": m1,
        "mu_ppm": 1_000_000 * m1 // m if m else 0,
        "tpr_ppm": 1_000_000 * tp // p_src if p_src else 0,
        "fpr_ppm": 1_000_000 * fp // n_src if n_src else 0,
        "est_prior_ppm": est,
        "true_prior_ppm": 1_000_000 * t1 // m if m else 0}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_conformal_interval(sf_dir: str):
    """Split-conformal 90% interval for the hourly forecast
    (``windows.conformal_backtest``): backtest_mae/mase_eval grade the
    POINT error; an alerting threshold needs "how far off can the
    forecast be at 90% confidence", and split conformal answers it
    distribution-free — k-th smallest calibration nonconformity with
    the finite-sample rank k = (9·n_cal+18)//10 (⌈(n+1)·0.9⌉ exact),
    Knuth epoch-hour coin as the calibration split, held-out coverage
    floored once to ppm.  Same ONE bounded (hour, type) exchange as
    the other backtests.  Mirror: lag self-join + the same coin +
    row_number rank pick + FILTER coverage count."""
    import ray.data

    from documentai_ray.stages.windows import conformal_backtest

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type"])
    return conformal_backtest(ev, ts_col="ts", key_col="event_type",
                              season_hours=24)


def _q_cohort_payback(sf_dir: str):
    """CAC payback day per signup cohort — the DECISION scalar
    cohort_ltv's running curve feeds: finance doesn't read the curve,
    it asks "on which day does cohort X's cumulative purchase revenue
    cross its acquisition cost?" (constant CAC 30000¢/user — the
    knob's value is arbitrary, the fold isn't).  Same one user-hash
    exchange as cohort_ltv (first-event day per user found per
    partition, vectorized), but partials carry BOTH the per-(cohort,
    day-offset) revenue cents AND the cohort's user count (sentinel
    offset −1), so the payback fold is a cumsum + first-crossing scan
    over the ≤cohorts×days driver frame: payback_day = min offset
    with cum ≥ 30000·n_users, −1 if the cohort never pays back.
    Revenue is exact integer cents (the money-sum lesson).  Mirror:
    min-day join + window cumsum + min(off) FILTER crossing."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Sum

    from documentai_ray.stages.dedup import _add_pkey

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        dd = (batch.column("ts").cast(pa.timestamp("us"))
              .cast(pa.int64()).to_numpy() // 86_400_000_000)
        c = np.rint(batch.column("value").to_numpy() * 100) \
            .astype("int64")
        is_p = pc.equal(batch.column("event_type"),
                        "purchase").to_numpy(zero_copy_only=False)
        return pa.table({"user_id": batch.column("user_id"),
                         "dd": pa.array(dd.astype("int64"), pa.int64()),
                         "cents": pa.array(np.where(is_p, c, 0),
                                           pa.int64()),
                         "is_p": pa.array(is_p)})

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        first = g.groupby("user_id")["dd"].min().rename("fd")
        users = first.reset_index()
        users["cohort_week"] = users["fd"] // 7
        uc = (users.groupby("cohort_week", as_index=False)
              .agg(n=("user_id", "size")))
        uc["off"] = -1
        uc["cents"] = 0
        p = g[g["is_p"]].merge(first, left_on="user_id",
                               right_index=True)
        p["cohort_week"] = p["fd"] // 7
        p["off"] = p["dd"] - p["fd"]
        pr = (p.groupby(["cohort_week", "off"], as_index=False)
              ["cents"].sum())
        pr["n"] = 0
        out = pd.concat([uc[["cohort_week", "off", "cents", "n"]],
                         pr[["cohort_week", "off", "cents", "n"]]],
                        ignore_index=True)
        for c in out.columns:
            out[c] = out[c].astype("int64")
        return out

    g = (_add_pkey(ev.map_batches(prep, batch_format="pyarrow"),
                   "user_id", 64)
         .groupby("_pkey")
         .map_groups(lambda x: partial(x.drop(columns=["_pkey"])),
                     batch_format="pandas")
         .groupby(["cohort_week", "off"])
         .aggregate(Sum("cents", alias_name="cents"),
                    Sum("n", alias_name="n"))).to_pandas()
    recs = []
    for cw, sub in g.groupby("cohort_week", sort=True):
        n_users = int(sub.loc[sub["off"] == -1, "n"].sum())
        rev = (sub[sub["off"] >= 0].sort_values("off"))
        cum = rev["cents"].cumsum()
        total = int(rev["cents"].sum())
        cac = 30000 * n_users
        crossed = rev.loc[cum >= cac, "off"]
        payback = int(crossed.iloc[0]) if len(crossed) else -1
        recs.append((int(cw), n_users, total, cac, payback))
    out = pd.DataFrame(recs, columns=[
        "cohort_week", "n_users", "total_revenue_cents", "cac_cents",
        "payback_day"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_bootstrap_ci(sf_dir: str):
    """Deterministic multiplier-bootstrap CI for mean quantity — the
    resampling-INFERENCE family: every point estimate in this repo is
    exact, but "mean 25.5" without an interval can't tell a real move
    from noise, and the classical bootstrap is the distribution-free
    way to get one.  The distributed form is the MULTIPLIER bootstrap
    (each row gets an independent integer weight with mean 1 per
    replicate — no global resample pass), and determinism comes from
    drawing the weight's two Bernoulli(1/2) components from hash
    bits:  k = (rid·32 + b) mod 1048573,
    h = k·2654435761 mod 2³², w = ((h>>30)&1) + ((h>>31)&1)
    ∈ {0,1,2} (mean 1, variance ½ — a valid multiplier law; rid =
    8·orderkey + linenumber is the stable row id, the prime
    pre-reduction keeps every product in int64 at any scale, and the
    bits are the TOP two — the low bits of a multiplicative hash are
    constant across keys that differ by a multiple of 4, which made
    every row in a replicate share one weight until this used the
    high end).  Each of
    the B=32 replicate means floors once (10⁶·Σwv // Σw); the CI is
    the RANK-PICKED 2nd and 31st of the sorted replicate means (the
    ~94% interval 32 replicates can support — more replicates is a
    knob, not a design change).  Per-batch partials are 32 (Σwv, Σw)
    pairs, so the exchange is 32 rows × blocks regardless of data
    size.  Mirror: generate_series(0,31) cross join + identical hash
    arithmetic + row_number rank picks."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity"])
    B = 32

    def partial(batch: pa.Table) -> pa.Table:
        rid = (8 * batch.column("l_orderkey").to_numpy()
               + batch.column("l_linenumber").to_numpy()) \
            .astype("int64")
        v = np.rint(batch.column("l_quantity").to_numpy()) \
            .astype("int64")
        b = np.arange(B, dtype="int64")
        k = (rid[:, None] * 32 + b[None, :]) % 1048573
        h = (k.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        w = (((h >> np.uint64(30)) & np.uint64(1))
             + ((h >> np.uint64(31)) & np.uint64(1))).astype("int64")
        return pa.table({
            "b": pa.array(b, pa.int64()),
            "swv": pa.array((w * v[:, None]).sum(axis=0), pa.int64()),
            "sw": pa.array(w.sum(axis=0), pa.int64()),
            "sv": pa.array(np.full(B, int(v.sum()), dtype="int64"),
                           pa.int64()),
            "n": pa.array(np.full(B, len(v), dtype="int64"),
                          pa.int64())})

    g = (li.map_batches(partial, batch_format="pyarrow")
         .groupby("b")
         .aggregate(Sum("swv", alias_name="swv"),
                    Sum("sw", alias_name="sw"),
                    Sum("sv", alias_name="sv"),
                    Sum("n", alias_name="n"))).to_pandas()
    means = sorted(int(1_000_000 * swv // sw) if sw > 0 else 0
                   for swv, sw in zip(g["swv"], g["sw"]))
    n = int(g["n"].iloc[0])
    sv = int(g["sv"].iloc[0])
    out = pd.DataFrame([{
        "n": n, "n_reps": B,
        "mean_ppm": 1_000_000 * sv // n,
        "ci_lo_ppm": means[1], "ci_hi_ppm": means[B - 2]}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_jackknife_sources(sf_dir: str):
    """Leave-one-source-out influence — the ROBUSTNESS check next to
    bootstrap_ci's sampling noise: a corpus metric (English share)
    that looks healthy can be propped up by a single source, and the
    jackknife answers "which source moves the number most if it
    vanished" EXACTLY from the per-source totals (no resampling —
    deletion statistics have a closed form):

        share_wo_ppm  = 10⁶·(E − e_s) // (N − n_s)
        influence_ppm = share_wo_ppm − share_full_ppm

    (one floor each; the full-corpus share rides every row for
    context).  ONE source-bounded exchange of (n, n_en) partials.
    Mirror: FILTER sums + window totals + identical floors."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "lang"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        en = pc.equal(batch.column("lang"), "en").cast(pa.int64())
        ones = pa.array([1] * len(batch), pa.int64())
        return pa.table({"source": batch.column("source"),
                         "_n": ones, "_en": en})

    g = (docs.map_batches(prep, batch_format="pyarrow")
         .groupby("source")
         .aggregate(Sum("_n", alias_name="n_docs"),
                    Sum("_en", alias_name="n_en"))).to_pandas()
    g = g.sort_values("source").reset_index(drop=True)
    N = int(g["n_docs"].sum())
    E = int(g["n_en"].sum())
    full = 1_000_000 * E // N
    g["share_full_ppm"] = full
    g["share_wo_ppm"] = [
        1_000_000 * (E - int(e)) // (N - int(n)) if N > int(n) else 0
        for e, n in zip(g["n_en"], g["n_docs"])]
    g["influence_ppm"] = g["share_wo_ppm"] - full
    for c in g.columns[1:]:
        g[c] = g[c].astype("int64")
    return g


def _q_emd_hourly(sf_dir: str):
    """1-D Wasserstein (earth-mover) distance between the weekday and
    weekend hour-of-day profiles per event type — the distribution
    distance WITH GEOMETRY that the drift family lacks: TVD/χ² treat
    hours as unordered labels, so a profile shifted by 1 hour and one
    shifted by 12 score the same; EMD on the ordered 24-bin domain is
    Σ|CDF diff| and prices the shift in HOURS MOVED PER UNIT MASS.
    Cross-multiplied exact: emd_milli = 1000·Σ_h |CA_h·N_B −
    CB_h·N_A| // (N_A·N_B) (one floor; 0 when either class is empty).
    Weekday/weekend from pure epoch-day arithmetic ((dd+4) mod 7 ∈
    {0,6} = Sunday/Saturday — no engine calendar builtins, so both
    sides share one convention).  ONE exchange bounded by
    types×2×24.  Mirror: dense grid + window cumsum + the identical
    HUGEINT fold."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        us = (batch.column("ts").cast(pa.timestamp("us"))
              .cast(pa.int64()).to_numpy())
        dd = us // 86_400_000_000
        hod = (us // 3_600_000_000) % 24
        cls = (((dd + 4) % 7 == 0) | ((dd + 4) % 7 == 6)) \
            .astype("int64")
        df = pd.DataFrame({"event_type":
                           batch.column("event_type").to_pandas(),
                           "cls": cls, "hod": hod.astype("int64")})
        g = df.groupby(["event_type", "cls", "hod"],
                       as_index=False).size()
        g["size"] = g["size"].astype("int64")
        return pa.Table.from_pandas(
            g.rename(columns={"size": "_n"}),
            preserve_index=False).replace_schema_metadata(None)

    g = (ev.map_batches(prep, batch_format="pyarrow")
         .groupby(["event_type", "cls", "hod"])
         .aggregate(Sum("_n", alias_name="n"))).to_pandas()
    recs = []
    for et, sub in g.groupby("event_type", sort=True):
        a = np.zeros(24, dtype="int64")
        b = np.zeros(24, dtype="int64")
        for _, r in sub.iterrows():
            (a if r["cls"] == 0 else b)[int(r["hod"])] = int(r["n"])
        na, nb = int(a.sum()), int(b.sum())
        if na > 0 and nb > 0:
            ca, cb = a.cumsum(), b.cumsum()
            s = sum(abs(int(x) * nb - int(y) * na)
                    for x, y in zip(ca, cb))
            emd = 1000 * s // (na * nb)
        else:
            emd = 0
        recs.append((et, na, nb, emd))
    out = pd.DataFrame(recs, columns=[
        "event_type", "n_weekday", "n_weekend", "emd_milli"])
    for c in out.columns[1:]:
        out[c] = out[c].astype("int64")
    return out


def _q_price_elasticity(sf_dir: str):
    """Arc price elasticity of demand per part across the shipdate
    halves — the demand-economics readout the index family stops short
    of: laspeyres/paasche say prices rose; a buyer wants to know
    whether QUANTITY responded, and the midpoint (arc) formula is the
    textbook two-period estimate.  With unit value p_i = R_i/Q_i the
    whole expression clears to integers:

        e = [(Q₁−Q₀)/(Q₁+Q₀)] / [(p₁−p₀)/(p₁+p₀)]
          = (Q₁−Q₀)·(R₁Q₀ + R₀Q₁) / [(Q₁+Q₀)·(R₁Q₀ − R₀Q₁)]

    floored once at ppm with the FULL sign-split (numerator and
    denominator each carry a sign — Python floors, DuckDB truncates).
    Parts missing a period or with an unchanged unit value (den = 0)
    drop — no elasticity is measurable there.  The (part, period)
    aggregate rides ONE exchange; the per-part fold is bucketed
    (``_add_pkey``) with Python-int arithmetic because R·Q²-scale
    products overflow int64 at large SF.  Mirror: midpoint-split sums
    + self-join + the identical HUGEINT sign-split."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Max, Min, Sum

    from documentai_ray.stages.dedup import _add_pkey

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_shipdate", "l_quantity",
                 "l_extendedprice"])

    def prep(batch: pa.Table) -> pa.Table:
        import numpy as np
        dd = (batch.column("l_shipdate").cast(pa.timestamp("us"))
              .cast(pa.int64()).to_numpy() // 86_400_000_000)
        q = batch.column("l_quantity").to_numpy().astype("int64")
        rc = np.rint(batch.column("l_extendedprice").to_numpy()
                     * 100).astype("int64")
        return pa.table({"pk": batch.column("l_partkey"),
                         "dd": pa.array(dd.astype("int64"), pa.int64()),
                         "q": pa.array(q, pa.int64()),
                         "rc": pa.array(rc, pa.int64())})

    # the span scan re-reads ONLY the shipdate column (the documented
    # double-consumption rule: re-read a pruned source, don't pin)
    sd = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_shipdate"])

    def days(batch: pa.Table) -> pa.Table:
        dd = (batch.column("l_shipdate").cast(pa.timestamp("us"))
              .cast(pa.int64()).to_numpy() // 86_400_000_000)
        return pa.table({"dd": pa.array(dd.astype("int64"),
                                        pa.int64())})

    mm = sd.map_batches(days, batch_format="pyarrow") \
        .aggregate(Min("dd"), Max("dd"))
    mid = (int(mm["min(dd)"]) + int(mm["max(dd)"])) // 2
    d = li.map_batches(prep, batch_format="pyarrow")

    def label(batch: pa.Table) -> pa.Table:
        import numpy as np
        post = (batch.column("dd").to_numpy() >= mid).astype("int64")
        return pa.table({"pk": batch.column("pk"),
                         "post": pa.array(post, pa.int64()),
                         "q": batch.column("q"),
                         "rc": batch.column("rc")})

    agg = (d.map_batches(label, batch_format="pyarrow")
           .groupby(["pk", "post"])
           .aggregate(Sum("q", alias_name="q"),
                      Sum("rc", alias_name="rc")))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        recs = []
        for pk, sub in g.groupby("pk", sort=False):
            if len(sub) != 2:
                continue
            s = sub.set_index("post")
            q0, r0 = int(s.loc[0, "q"]), int(s.loc[0, "rc"])
            q1, r1 = int(s.loc[1, "q"]), int(s.loc[1, "rc"])
            den = (q1 + q0) * (r1 * q0 - r0 * q1)
            if den == 0:
                continue
            num = (q1 - q0) * (r1 * q0 + r0 * q1)
            sgn = 1 if (num >= 0) == (den > 0) else -1
            e = sgn * (1_000_000 * abs(num) // abs(den))
            recs.append((int(pk), q0, q1, r0, r1, e))
        out = pd.DataFrame(recs, columns=[
            "partkey", "q0", "q1", "r0_cents", "r1_cents",
            "elasticity_ppm"])
        for c in out.columns:
            out[c] = out[c].astype("int64")
        return out

    return (_add_pkey(agg, "pk", 64)
            .groupby("_pkey")
            .map_groups(lambda x: fold(x.drop(columns=["_pkey"])),
                        batch_format="pandas"))


def _q_permutation_test(sf_dir: str):
    """Re-randomization (permutation) p-value for the arm conversion
    gap — the ASSUMPTION-FREE significance check next to the
    parametric ones (logrank's χ², srm's critical value): under the
    null the coin labels are exchangeable, so re-flipping them B=32
    times and counting how often the re-randomized gap is at least as
    extreme IS the p-value, no distribution assumed.  Replicate b
    re-coins each user from hash bit 31 of k·2654435761 with
    k = (uid·32 + b) mod 1048573 (the bootstrap_ci discipline: TOP
    bit, prime pre-reduction).  All comparisons are exact
    cross-multiplications: with A = ct·nc − cc·nt and D = nt·nc,
    |gap_b| ≥ |gap_obs| ⟺ |A_b|·D_obs ≥ |A_obs|·D_b (D > 0), so no
    replicate ever floors.  p uses the standard add-one rule:
    p_ppm = 10⁶·(n_extreme + 1) // (B + 1).  Per-batch partials are
    32×4 counts; ONE user exchange.  Mirror: generate_series cross
    join + identical hash + HUGEINT cross-multiplied FILTER."""
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
    B = 32

    def cells(batch: pa.Table) -> pa.Table:
        ids = batch.column("user_id").to_numpy().astype("int64")
        y = (batch.column("conv").to_numpy() > 0).astype("int64")
        h0 = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        obs = (h0 < np.uint64(1 << 31)).astype("int64")
        b = np.arange(B, dtype="int64")
        k = (ids[:, None] * 32 + b[None, :]) % 1048573
        h = (k.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        t = ((h >> np.uint64(31)) & np.uint64(1)).astype("int64")
        rep = pa.table({
            "b": pa.array(b, pa.int64()),
            "nt": pa.array(t.sum(axis=0), pa.int64()),
            "ct": pa.array((t * y[:, None]).sum(axis=0), pa.int64()),
            "n": pa.array(np.full(B, len(y), dtype="int64"),
                          pa.int64()),
            "cy": pa.array(np.full(B, int(y.sum()), dtype="int64"),
                           pa.int64()),
            "ont": pa.array(np.full(B, int(obs.sum()),
                                    dtype="int64"), pa.int64()),
            "oct": pa.array(np.full(B, int((obs * y).sum()),
                                    dtype="int64"), pa.int64())})
        return rep

    g = (per_user.map_batches(cells, batch_format="pyarrow")
         .groupby("b")
         .aggregate(*[Sum(c, alias_name=c) for c in
                      ("nt", "ct", "n", "cy", "ont", "oct")])
         ).to_pandas()
    n = int(g["n"].iloc[0])
    cy = int(g["cy"].iloc[0])
    ont, octv = int(g["ont"].iloc[0]), int(g["oct"].iloc[0])
    onc, occ = n - ont, cy - octv
    a_obs = octv * onc - occ * ont
    d_obs = ont * onc
    n_ext = 0
    for nt, ct in zip(g["nt"], g["ct"]):
        nt, ct = int(nt), int(ct)
        nc, cc = n - nt, cy - ct
        a_b, d_b = ct * nc - cc * nt, nt * nc
        if d_b == 0 or abs(a_b) * d_obs >= abs(a_obs) * d_b:
            n_ext += 1
    sgn = 1 if a_obs >= 0 else -1
    gap = sgn * (1_000_000 * abs(a_obs) // d_obs) if d_obs else 0
    out = pd.DataFrame([{
        "n": n, "b_reps": B, "obs_gap_ppm": gap,
        "n_extreme": n_ext,
        "p_ppm": 1_000_000 * (n_ext + 1) // (B + 1)}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_cuped_adjust(sf_dir: str):
    """CUPED variance reduction — the technique every mature
    experimentation platform applies before reading an uplift: the
    arm gap is noisy because users differ hugely in baseline
    behavior, and regressing the metric on a PRE-EXPOSURE covariate
    (here: each user's first-15-day event count, unaffected by
    assignment by construction) removes the explained variance:

        θ        = Σ(x−x̄)(y−ȳ) / Σ(x−x̄)²
        adj gap  = (ȳ_t − ȳ_c) − θ·(x̄_t − x̄_c)

    cleared to integers: θ_ppm = sign-split 10⁶·(n·Σxy − Σx·Σy) //
    (n·Σx² − (Σx)²); the arm means and the covariate gap each floor
    once at ppm; the correction composes two floored values
    (θ_ppm·xgap_ppm // 10⁶, sign-split) — a documented double-floor,
    mirrored op-for-op.  If the coin is truly random the covariate
    gap is small and adj ≈ raw; a lopsided segment moves it — which
    is exactly what the number is for.  ONE user exchange, 7 scalar
    partials.  Mirror: identical sums + the same three sign-split
    floors under HUGEINT."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Max, Min, Sum

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value"])

    # pre-period boundary: first 15 days of the corpus span (the
    # pruned-column re-read rule)
    sd = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts"])

    def days(batch: pa.Table) -> pa.Table:
        dd = (batch.column("ts").cast(pa.timestamp("us"))
              .cast(pa.int64()).to_numpy() // 86_400_000_000)
        return pa.table({"dd": pa.array(dd.astype("int64"),
                                        pa.int64())})

    d0 = int(sd.map_batches(days, batch_format="pyarrow").min("dd"))
    cut = d0 + 15

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        dd = (batch.column("ts").cast(pa.timestamp("us"))
              .cast(pa.int64()).to_numpy() // 86_400_000_000)
        conv = pc.and_(pc.equal(batch.column("event_type"), "purchase"),
                       pc.greater_equal(batch.column("value"),
                                        pa.scalar(150.0)))
        pre = (dd < cut).astype("int64")
        return pa.table({"user_id": batch.column("user_id"),
                         "conv": conv.cast(pa.int64()),
                         "pre": pa.array(pre, pa.int64())})

    per_user = (ev.map_batches(prep, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(Max("conv", alias_name="y"),
                           Sum("pre", alias_name="x")))

    def cells(batch: pa.Table) -> pa.Table:
        ids = batch.column("user_id").to_numpy()
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        t = (h < np.uint64(1 << 31)).astype("int64")
        x = batch.column("x").to_numpy().astype("int64")
        y = (batch.column("y").to_numpy() > 0).astype("int64")
        one = np.ones_like(x)
        return pa.table({
            "n": pa.array(one, pa.int64()),
            "sx": pa.array(x, pa.int64()),
            "sy": pa.array(y, pa.int64()),
            "sxy": pa.array(x * y, pa.int64()),
            "sxx": pa.array(x * x, pa.int64()),
            "nt": pa.array(t, pa.int64()),
            "ct": pa.array(t * y, pa.int64()),
            "xt": pa.array(t * x, pa.int64())})

    g = (per_user.map_batches(cells, batch_format="pyarrow")
         .aggregate(*[Sum(c, alias_name=c) for c in
                      ("n", "sx", "sy", "sxy", "sxx", "nt", "ct",
                       "xt")]))
    n, sx, sy, sxy, sxx = (int(g[k]) for k in
                           ("n", "sx", "sy", "sxy", "sxx"))
    nt, ct, xt = int(g["nt"]), int(g["ct"]), int(g["xt"])
    nc, cc, xc = n - nt, sy - ct, sx - xt

    def ssfloor(num: int, den: int) -> int:
        if den == 0:
            return 0
        s = 1 if (num >= 0) == (den > 0) else -1
        return s * (1_000_000 * abs(num) // abs(den))

    theta = ssfloor(n * sxy - sx * sy, n * sxx - sx * sx)
    uplift = (1_000_000 * ct // nt if nt else 0) \
        - (1_000_000 * cc // nc if nc else 0)
    xgap = ssfloor(xt * nc - xc * nt, nt * nc)
    corr_num = theta * xgap
    s = 1 if corr_num >= 0 else -1
    corr = s * (abs(corr_num) // 1_000_000)
    out = pd.DataFrame([{
        "n": n, "n_treat": nt, "theta_ppm": theta,
        "uplift_ppm": uplift, "xgap_ppm": xgap,
        "correction_ppm": corr,
        "adj_uplift_ppm": uplift - corr}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_rdd_jump(sf_dir: str):
    """Sharp regression-discontinuity at the activity cutoff — the
    quasi-experimental family's second member (did_estimator compares
    groups over time; RDD reads the causal jump off a THRESHOLD RULE):
    when a treatment switches exactly at x = 66 events, users just
    below and just above are exchangeable, so the outcome gap between
    the two side-local regression intercepts AT the cutoff estimates
    the effect.  Local-linear on each side within bandwidth 20
    (u = x−66 ∈ [−20,−1] left, [0,19] right), the grouped-OLS
    integer contract: den = n·Σuu − (Σu)² (non-negative by
    Cauchy-Schwarz), intercept num = Σy·Σuu − Σu·Σuy, slope num =
    n·Σuy − Σu·Σy, each sign-split floored once to ppm;
    jump = a_R − a_L.  On the synthetic corpus conversion is smooth
    in activity, so the jump reads ≈ 0 — the placebo the estimator
    should produce.  ONE user exchange, 2×5 scalar partials.
    Mirror: FILTER sums + identical sign-split floors under
    HUGEINT."""
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

    def cells(batch: pa.Table) -> pa.Table:
        x = batch.column("n_ev").to_numpy().astype("int64")
        y = (batch.column("conv").to_numpy() > 0).astype("int64")
        u = x - 66
        left = (u >= -20) & (u <= -1)
        right = (u >= 0) & (u <= 19)
        cols = {}
        for tag, m in (("l", left), ("r", right)):
            uu = u[m]
            yy = y[m]
            cols[f"n_{tag}"] = int(m.sum())
            cols[f"su_{tag}"] = int(uu.sum())
            cols[f"sy_{tag}"] = int(yy.sum())
            cols[f"suy_{tag}"] = int((uu * yy).sum())
            cols[f"suu_{tag}"] = int((uu * uu).sum())
        return pa.table({k: pa.array([v], pa.int64())
                         for k, v in cols.items()})

    names = [f"{s}_{t}" for t in ("l", "r")
             for s in ("n", "su", "sy", "suy", "suu")]
    g = (per_user.map_batches(cells, batch_format="pyarrow")
         .aggregate(*[Sum(c, alias_name=c) for c in names]))

    def ssfloor(num: int, den: int) -> int:
        if den == 0:
            return 0
        s = 1 if (num >= 0) == (den > 0) else -1
        return s * (1_000_000 * abs(num) // abs(den))

    vals = {}
    for tag in ("l", "r"):
        n, su, sy, suy, suu = (int(g[f"{s}_{tag}"]) for s in
                               ("n", "su", "sy", "suy", "suu"))
        den = n * suu - su * su
        vals[f"n_{tag}"] = n
        vals[f"a_{tag}"] = ssfloor(sy * suu - su * suy, den)
        vals[f"b_{tag}"] = ssfloor(n * suy - su * sy, den)
    out = pd.DataFrame([{
        "n_left": vals["n_l"], "n_right": vals["n_r"],
        "a_left_ppm": vals["a_l"], "b_left_ppm": vals["b_l"],
        "a_right_ppm": vals["a_r"], "b_right_ppm": vals["b_r"],
        "jump_ppm": vals["a_r"] - vals["a_l"]}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_kitagawa_decomp(sf_dir: str):
    """Kitagawa/Oaxaca mix-vs-rate decomposition — the BI question no
    drift test answers: the corpus purchase share moved between the
    shipdate halves, but WHY — did the hour-of-day MIX shift toward
    segments that always purchase less, or did the within-segment
    RATES drop?  With segment s ∈ hod//6 (4 buckets), period counts
    c_i,s (events) and p_i,s (purchases), w = c/N and r = p/c, each
    segment's three terms clear to single sign-split floors:

        mix_s   = (w₁−w₀)·r₀  = (c₁N₀−c₀N₁)·p₀ / (N₁N₀c₀)
        rate_s  = w₀·(r₁−r₀)  = (p₁c₀−p₀c₁) / (N₀c₁)
        inter_s = (w₁−w₀)(r₁−r₀)
                = (c₁N₀−c₀N₁)(p₁c₀−p₀c₁) / (N₀N₁c₁c₀)

    Σ_s(mix+rate+inter) equals the total share change up to the
    flooring residue (documented; the identity is exact in rationals).
    Periods split at the event-span midpoint (the laspeyres
    convention).  ONE exchange bounded by 4×2 cells.  Mirror: FILTER
    sums + totals cross join + the identical three sign-split CASEs
    under HUGEINT."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Max, Min, Sum

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type"])

    sd = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts"])

    def days(batch: pa.Table) -> pa.Table:
        dd = (batch.column("ts").cast(pa.timestamp("us"))
              .cast(pa.int64()).to_numpy() // 86_400_000_000)
        return pa.table({"dd": pa.array(dd.astype("int64"),
                                        pa.int64())})

    mm = sd.map_batches(days, batch_format="pyarrow") \
        .aggregate(Min("dd"), Max("dd"))
    mid = (int(mm["min(dd)"]) + int(mm["max(dd)"])) // 2

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        us = (batch.column("ts").cast(pa.timestamp("us"))
              .cast(pa.int64()).to_numpy())
        dd = us // 86_400_000_000
        seg = (us // 3_600_000_000) % 24 // 6
        per = (dd >= mid).astype("int64")
        p = pc.equal(batch.column("event_type"),
                     "purchase").to_numpy(zero_copy_only=False) \
            .astype("int64")
        return pa.table({"seg": pa.array(seg.astype("int64"),
                                         pa.int64()),
                         "per": pa.array(per, pa.int64()),
                         "_c": pa.array(np.ones_like(per), pa.int64()),
                         "_p": pa.array(p, pa.int64())})

    g = (ev.map_batches(prep, batch_format="pyarrow")
         .groupby(["seg", "per"])
         .aggregate(Sum("_c", alias_name="c"),
                    Sum("_p", alias_name="p"))).to_pandas()
    n0 = int(g.loc[g["per"] == 0, "c"].sum())
    n1 = int(g.loc[g["per"] == 1, "c"].sum())

    def ssfloor(num: int, den: int) -> int:
        if den == 0:
            return 0
        s = 1 if (num >= 0) == (den > 0) else -1
        return s * (1_000_000 * abs(num) // abs(den))

    recs = []
    for seg in sorted(g["seg"].unique()):
        r0 = g[(g["seg"] == seg) & (g["per"] == 0)]
        r1 = g[(g["seg"] == seg) & (g["per"] == 1)]
        c0 = int(r0["c"].sum())
        p0 = int(r0["p"].sum())
        c1 = int(r1["c"].sum())
        p1 = int(r1["p"].sum())
        wnum = c1 * n0 - c0 * n1
        rnum = p1 * c0 - p0 * c1
        recs.append((int(seg), c0, p0, c1, p1,
                     ssfloor(wnum * p0, n1 * n0 * c0),
                     ssfloor(rnum, n0 * c1),
                     ssfloor(wnum * rnum, n0 * n1 * c1 * c0)))
    out = pd.DataFrame(recs, columns=[
        "seg", "c0", "p0", "c1", "p1", "mix_ppm", "rate_ppm",
        "inter_ppm"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_spillover_exposure(sf_dir: str):
    """Interference / network-effect readout — the SUTVA check the A/B
    ops silently assume away: if treated users influence their
    neighbors, control is contaminated and every uplift number lies;
    the standard diagnostic is conversion BY TREATED-NEIGHBOR COUNT.
    The user graph is id-adjacency (u±1, u±2 — ids are contiguous by
    construction; a user's neighborhood is its 4 nearest ids), and
    existence is a real distributed check: each user emits 4 probe
    rows, an inner ``hash_join`` against the user set keeps probes
    whose neighbor exists, the Knuth coin of the SURVIVING neighbor id
    is a pure function (computed post-join — no coin column ever
    ships), and edge users (< 4 neighbors) drop for a clean 0..4
    domain.  Under the null (the coin can't cause spillover) the five
    rates should be flat — the placebo shape.  Exchanges: one user
    groupby + one bucketed join + one 5-row rollup.  Mirror: IN-list
    self-join + identical coin + the same n=4 filter."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Max, Sum

    from documentai_ray.stages.joins import hash_join

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
                .aggregate(Max("conv", alias_name="conv")))

    def probes(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy().astype("int64")
        y = batch.column("conv").to_numpy().astype("int64")
        offs = np.array([-2, -1, 1, 2], dtype="int64")
        nbr = (u[:, None] + offs[None, :]).ravel()
        return pa.table({"nbr": pa.array(nbr, pa.int64()),
                         "uid": pa.array(np.repeat(u, 4), pa.int64()),
                         "y": pa.array(np.repeat(y, 4), pa.int64())})

    def ids_only(batch: pa.Table) -> pa.Table:
        return pa.table({"nbr": batch.column("user_id")})

    joined = hash_join(
        per_user.map_batches(probes, batch_format="pyarrow"),
        per_user.map_batches(ids_only, batch_format="pyarrow"),
        on="nbr", how="semi")

    def coin(batch: pa.Table) -> pa.Table:
        nbr = batch.column("nbr").to_numpy().astype("int64")
        h = (nbr.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        t = (h < np.uint64(1 << 31)).astype("int64")
        return pa.table({"uid": batch.column("uid"),
                         "y": batch.column("y"),
                         "_t": pa.array(t, pa.int64())})

    g = (joined.map_batches(coin, batch_format="pyarrow")
         .groupby("uid")
         .aggregate(Count(alias_name="nn"),
                    Max("y", alias_name="y"),
                    Sum("_t", alias_name="expo")))

    def cells(batch: pa.Table) -> pa.Table:
        import pandas as pd
        df = batch.to_pandas()
        df = df[df["nn"] == 4]
        out = (df.groupby("expo", as_index=False)
               .agg(n_users=("y", "size"), n_conv=("y", "sum")))
        for c in out.columns:
            out[c] = out[c].astype("int64")
        return pa.Table.from_pandas(out, preserve_index=False) \
                       .replace_schema_metadata(None)

    f = (g.map_batches(cells, batch_format="pyarrow")
         .groupby("expo")
         .aggregate(Sum("n_users", alias_name="n_users"),
                    Sum("n_conv", alias_name="n_conv"))).to_pandas()
    f = f.sort_values("expo").reset_index(drop=True)
    f = f.rename(columns={"expo": "exposure"})
    f["rate_ppm"] = [1_000_000 * int(c) // int(n)
                     for c, n in zip(f["n_conv"], f["n_users"])]
    for c in f.columns:
        f[c] = f[c].astype("int64")
    return f


def _q_mh_stratified(sf_dir: str):
    """Mantel-Haenszel stratified uplift — the Simpson's-paradox guard
    the crude arm gap lacks: if arm balance varies across activity
    strata (a bucketing bug, a targeting rule), the crude difference
    mixes the effect with the mix, and MH pools the WITHIN-stratum
    differences with the classic nt·nc/n weights.  Strata are the
    activity deciles (the uplift_deciles rank discipline).  Integer
    contract — three documented flooring layers, mirrored op-for-op:

        term_s = ss(10⁶·(ct·nc − cc·nt) / n_s)   (per-stratum RD·w)
        w_s    = 10⁶·nt·nc // n_s                (per-stratum weight)
        mh     = ss(10⁶·Σterm / Σw)

    The Knuth coin is independent of activity, so crude ≈ MH here (the
    placebo); the pinned hand case plants real confounding and shows
    the crude estimate flipping sign while MH reads the true 0.  ONE
    user exchange + the 40-cell decile rollup.  Mirror: the
    uplift_deciles CTE + per-stratum sign-split SUMs."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Max, Sum

    from documentai_ray.stages.aggregates import global_row_index

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
    n_users = per_user.count()

    def neg(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "neg_n", pa.array((-batch.column("n_ev").to_numpy())
                              .astype("int64"), pa.int64()))

    ranked = global_row_index(
        per_user.map_batches(neg, batch_format="pyarrow"),
        val_col="neg_n", tiebreak_col="user_id", out_col="_ri")

    def cells(batch: pa.Table) -> pa.Table:
        ids = batch.column("user_id").to_numpy()
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        t = (h < np.uint64(1 << 31)).astype("int64")
        dec = 1 + 10 * batch.column("_ri").to_numpy() // n_users
        y = (batch.column("conv").to_numpy() > 0).astype("int64")
        df = pd.DataFrame({"s": dec.astype("int64"),
                           "nt": t, "ct": t * y,
                           "nc": 1 - t, "cc": (1 - t) * y})
        g = df.groupby("s", as_index=False).sum()
        for c in g.columns:
            g[c] = g[c].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False) \
                       .replace_schema_metadata(None)

    g = (ranked.map_batches(cells, batch_format="pyarrow")
         .groupby("s")
         .aggregate(*[Sum(c, alias_name=c) for c in
                      ("nt", "ct", "nc", "cc")])).to_pandas()

    def ssfloor(num: int, den: int) -> int:
        if den == 0:
            return 0
        s = 1 if (num >= 0) == (den > 0) else -1
        return s * (1_000_000 * abs(num) // abs(den))

    NT, CT = int(g["nt"].sum()), int(g["ct"].sum())
    NC, CC = int(g["nc"].sum()), int(g["cc"].sum())
    crude = (1_000_000 * CT // NT if NT else 0) \
        - (1_000_000 * CC // NC if NC else 0)
    sum_t, sum_w = 0, 0
    for _, r in g.iterrows():
        nt, ct, nc, cc = (int(r[k]) for k in ("nt", "ct", "nc", "cc"))
        ns = nt + nc
        if ns == 0:
            continue
        sum_t += ssfloor(ct * nc - cc * nt, ns)
        sum_w += 1_000_000 * nt * nc // ns
    mh = ssfloor(sum_t, sum_w)
    out = pd.DataFrame([{
        "n": NT + NC, "n_strata": len(g),
        "crude_uplift_ppm": crude, "mh_uplift_ppm": mh,
        "gap_ppm": crude - mh}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_ipf_raking(sf_dir: str):
    """Two-margin survey raking (iterative proportional fitting) —
    post_stratify's big sibling: one-margin weights fix ONE
    imbalance, but a sample skewed on source AND lang jointly needs
    the cross-classified calibration every survey shop runs.  The
    Knuth doc-coin half-sample calibrates to the full corpus's
    (source, lang) margins in two unrolled IPF steps, each a single
    floor:

        w₁(s)    = 10⁶·R_s // m_s            (row step: source margin)
        w₂(s,l)  = w₁(s)·10⁶·C_l // T_l      (col step: lang margin,
                   T_l = Σ_s n_sl·w₁(s) the current weighted total)

    After the col step the weighted lang margins match C_l up to
    flooring residue while source margins drift slightly — the classic
    IPF alternation, frozen at 2 steps so the mirror is two chained
    CTEs.  Only sampled cells emit.  Exchanges bounded by
    sources×langs (both full and sample counts ride one pass).
    Mirror: identical chained floors under HUGEINT."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source", "lang"])

    def prep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        samp = (h < np.uint64(1 << 31)).astype("int64")
        ones = np.ones(len(ids), dtype="int64")
        return pa.table({"source": batch.column("source"),
                         "lang": batch.column("lang"),
                         "_n": pa.array(ones, pa.int64()),
                         "_s": pa.array(samp, pa.int64())})

    g = (docs.map_batches(prep, batch_format="pyarrow")
         .groupby(["source", "lang"])
         .aggregate(Sum("_n", alias_name="n_full"),
                    Sum("_s", alias_name="n_samp"))).to_pandas()
    rs = g.groupby("source")["n_full"].sum().to_dict()      # R_s
    cl = g.groupby("lang")["n_full"].sum().to_dict()        # C_l
    ms = g.groupby("source")["n_samp"].sum().to_dict()      # m_s
    g = g[g["n_samp"] > 0].copy()
    g["w1"] = [1_000_000 * int(rs[s]) // int(ms[s])
               for s in g["source"]]
    tl = {}
    for _, r in g.iterrows():
        tl[r["lang"]] = tl.get(r["lang"], 0) \
            + int(r["n_samp"]) * int(r["w1"])
    g["w2_ppm"] = [int(w1) * 1_000_000 * int(cl[l]) // tl[l]
                   for w1, l in zip(g["w1"], g["lang"])]
    out = (g[["source", "lang", "n_samp", "w2_ppm"]]
           .sort_values(["source", "lang"]).reset_index(drop=True))
    out["n_samp"] = out["n_samp"].astype("int64")
    out["w2_ppm"] = out["w2_ppm"].astype("int64")
    return out


def _q_term_dispersion(sf_dir: str):
    """Gries' DP corpus dispersion for the top-10 tokens — the lexical
    statistic frequency hides: two terms with equal counts can be
    evenly spread or dumped in one source, and downstream IDF/quality
    decisions differ (a bursty term is topical or boilerplate, not
    general vocabulary).  DP = ½·Σ_s |observed share − expected
    share|, expected = each source's share of ALL tokens; exact via
    cross-multiplication with O = Σo_s (term count) and V = Σv_s
    (all tokens):

        dp_ppm = 10⁶ · Σ_s |o_s·V − v_s·O| // (2·V·O)

    one floor.  0 = perfectly proportional, →1 = one-source burst.
    ONE (token, source) exchange bounded by vocab×sources; the top-10
    pick and the 20-source fold run on the driver.  Token = the
    top_tokens single-space-split convention.  Mirror: unnest counts
    + window totals + the identical HUGEINT fold."""
    import collections

    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        srcs = batch.column("source").to_pylist()
        texts = batch.column("text").to_pylist()
        c: collections.Counter = collections.Counter()
        for s, t in zip(srcs, texts):
            for tok in (t or "").split(" "):
                c[(s, tok)] += 1
        ks = list(c.keys())
        return pa.table({
            "source": pa.array([k[0] for k in ks], pa.string()),
            "token": pa.array([k[1] for k in ks], pa.string()),
            "_n": pa.array(list(c.values()), pa.int64())})

    g = (docs.map_batches(partial, batch_format="pyarrow")
         .groupby(["source", "token"])
         .aggregate(Sum("_n", alias_name="n"))).to_pandas()
    v_s = g.groupby("source")["n"].sum().to_dict()
    V = sum(int(x) for x in v_s.values())
    totals = (g.groupby("token", as_index=False)["n"].sum()
              .sort_values(["n", "token"], ascending=[False, True],
                           kind="mergesort").head(10))
    recs = []
    for tok, O in zip(totals["token"], totals["n"]):
        O = int(O)
        sub = g[g["token"] == tok].set_index("source")["n"].to_dict()
        s_abs = sum(abs(int(sub.get(s, 0)) * V - int(v) * O)
                    for s, v in v_s.items())
        recs.append((tok, O, 1_000_000 * s_abs // (2 * V * O)))
    out = pd.DataFrame(recs, columns=["token", "n_total", "dp_ppm"])
    out["n_total"] = out["n_total"].astype("int64")
    out["dp_ppm"] = out["dp_ppm"].astype("int64")
    return out


def _q_chain_ladder(sf_dir: str):
    """Chain-ladder run-off triangle — the actuarial RESERVING family:
    every cohort op so far reads what HAS happened; a finance close
    needs what's STILL COMING ("orders placed last month have only
    shipped their first tranche — project the tail").  Cohort = order
    month (order_dd//30), development = shipping delay bucketed to
    months AFTER filtering to 0 ≤ delay_days ≤ 119 (filter-then-bucket
    is load-bearing: Python floors and DuckDB truncates on negative
    days, and the synthetic dates do go negative).  With CAL =
    max(i+j) the calendar frontier, cohort i's observed age is
    J_i = min(3, CAL − i); development factors pool all cohorts that
    reached j+1:

        f_j_ppm = 10⁶·Σ_i C_{i,j+1} // Σ_i C_{i,j}   (i ≤ CAL−j−1)

    and each immature cohort chains its latest cumulative through the
    remaining factors with the ``windows.markov_kstep_int`` trunc discipline
    (u ← u·f // 10⁶ per step).  ibnr = ultimate − latest is the
    revenue still to ship.  Physical plan: ONE partitioned hash_join
    (lineitem→orders) + ONE
    (cohort, delay) exchange bounded by months×4; the triangle fold
    is a driver pass over ≤ months×4 cells.  Mirror: identical join +
    window cumulative + 3 factor scalars + the unrolled trunc
    chain."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from documentai_ray.stages.joins import hash_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate"])
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_shipdate", "l_extendedprice"])

    def oprep(batch: pa.Table) -> pa.Table:
        odd = (batch.column("o_orderdate").cast(pa.timestamp("us"))
               .cast(pa.int64()).to_numpy() // 86_400_000_000)
        return pa.table({"ok": batch.column("o_orderkey"),
                         "odd": pa.array(odd.astype("int64"),
                                         pa.int64())})

    def lprep(batch: pa.Table) -> pa.Table:
        sdd = (batch.column("l_shipdate").cast(pa.timestamp("us"))
               .cast(pa.int64()).to_numpy() // 86_400_000_000)
        rc = np.rint(batch.column("l_extendedprice").to_numpy()
                     * 100).astype("int64")
        return pa.table({"ok": batch.column("l_orderkey"),
                         "sdd": pa.array(sdd.astype("int64"),
                                         pa.int64()),
                         "rc": pa.array(rc, pa.int64())})

    joined = hash_join(li.map_batches(lprep, batch_format="pyarrow"),
                       orders.map_batches(oprep,
                                          batch_format="pyarrow"),
                       on="ok", how="inner")

    def cells(batch: pa.Table) -> pa.Table:
        sdd = batch.column("sdd").to_numpy()
        odd = batch.column("odd").to_numpy()
        rc = batch.column("rc").to_numpy()
        delay_days = sdd - odd
        keep = (delay_days >= 0) & (delay_days <= 119)
        i = (odd[keep] // 30).astype("int64")
        j = (delay_days[keep] // 30).astype("int64")
        df = pd.DataFrame({"i": i, "j": j, "rc": rc[keep]})
        g = df.groupby(["i", "j"], as_index=False)["rc"].sum()
        for c in g.columns:
            g[c] = g[c].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False) \
                       .replace_schema_metadata(None)

    g = (joined.map_batches(cells, batch_format="pyarrow")
         .groupby(["i", "j"])
         .aggregate(Sum("rc", alias_name="rc"))).to_pandas()
    cal = int((g["i"] + g["j"]).max())
    # cumulative C[i][j] with missing cells as 0
    cum: dict[int, list[int]] = {}
    for i in sorted(g["i"].unique()):
        sub = g[g["i"] == i].set_index("j")["rc"].to_dict()
        run, row = 0, []
        for j in range(4):
            run += int(sub.get(j, 0))
            row.append(run)
        cum[int(i)] = row
    f = []
    for j in range(3):
        num = sum(r[j + 1] for i, r in cum.items() if i <= cal - j - 1)
        den = sum(r[j] for i, r in cum.items() if i <= cal - j - 1)
        f.append(1_000_000 * num // den if den > 0 else 1_000_000)
    recs = []
    for i, row in sorted(cum.items()):
        age = min(3, cal - i)
        latest = row[age]
        ult = latest
        for j in range(age, 3):
            ult = ult * f[j] // 1_000_000
        recs.append((i, age, latest, ult, ult - latest))
    out = pd.DataFrame(recs, columns=[
        "cohort_month", "age", "latest_cum_cents", "ultimate_cents",
        "ibnr_cents"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_fe_panel(sf_dir: str):
    """Pooled vs fixed-effects (within) slope over the customer×month
    revenue panel — the panel-econometrics readout a per-group regression
    can't give: the pooled slope of revenue on time mixes the real
    within-customer trend with COMPOSITION (big spenders entering or
    leaving the panel), and the within estimator demeans per customer
    to remove every time-invariant customer effect.  Integer
    contract: pooled is the grouped-OLS formula on totals (one
    sign-split floor); within needs per-group rationals
    (Σxy_i − Σx_iΣy_i/n_i), so each group's numerator and denominator
    term floors once at micro precision

        t_i = ss(10⁶·(n_iΣxy_i − Σx_iΣy_i) / n_i)
        d_i = 10⁶·(n_iΣxx_i − (Σx_i)²) // n_i        (non-negative)

    and β_within = ss(10⁶·Σt // Σd) — the MH-style documented layered
    flooring, mirrored op-for-op.  gap = pooled − within is the
    composition bias.  Exchanges: one (customer, month) rollup + one
    customer rollup of 5 sums; scalars to the driver.  Mirror:
    two-level GROUP BY + the identical sign-split floors under
    HUGEINT."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        m = (batch.column("o_orderdate").cast(pa.timestamp("us"))
             .cast(pa.int64()).to_numpy() // 86_400_000_000 // 30)
        yc = np.rint(batch.column("o_totalprice").to_numpy() * 100) \
            .astype("int64")
        return pa.table({"cust": batch.column("o_custkey"),
                         "m": pa.array(m.astype("int64"), pa.int64()),
                         "y": pa.array(yc, pa.int64())})

    panel = (orders.map_batches(prep, batch_format="pyarrow")
             .groupby(["cust", "m"])
             .aggregate(Sum("y", alias_name="y")))

    def sums(batch: pa.Table) -> pa.Table:
        x = batch.column("m").to_numpy().astype("int64")
        y = batch.column("y").to_numpy().astype("int64")
        one = np.ones_like(x)
        return pa.table({"cust": batch.column("cust"),
                         "n": pa.array(one, pa.int64()),
                         "sx": pa.array(x, pa.int64()),
                         "sy": pa.array(y, pa.int64()),
                         "sxy": pa.array(x * y, pa.int64()),
                         "sxx": pa.array(x * x, pa.int64())})

    g = (panel.map_batches(sums, batch_format="pyarrow")
         .groupby("cust")
         .aggregate(*[Sum(c, alias_name=c) for c in
                      ("n", "sx", "sy", "sxy", "sxx")])).to_pandas()

    def ss(num: int, den: int) -> int:
        if den == 0:
            return 0
        s = 1 if (num >= 0) == (den > 0) else -1
        return s * (1_000_000 * abs(num) // abs(den))

    N = int(g["n"].sum())
    SX, SY = int(g["sx"].sum()), int(g["sy"].sum())
    SXY, SXX = int(g["sxy"].sum()), int(g["sxx"].sum())
    pooled = ss(N * SXY - SX * SY, N * SXX - SX * SX)
    sum_t, sum_d = 0, 0
    for _, r in g.iterrows():
        n, sx, sy, sxy, sxx = (int(r[k]) for k in
                               ("n", "sx", "sy", "sxy", "sxx"))
        wn = n * sxy - sx * sy
        wd = n * sxx - sx * sx
        st = 1 if wn >= 0 else -1
        sum_t += st * (1_000_000 * abs(wn) // n)
        sum_d += 1_000_000 * wd // n
    within = ss(sum_t, sum_d)
    out = pd.DataFrame([{
        "n_obs": N, "n_groups": len(g),
        "pooled_slope_ppm": pooled, "within_slope_ppm": within,
        "gap_ppm": pooled - within}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_matching_att(sf_dir: str):
    """Nearest-neighbor matching ATT — the causal family's
    non-parametric member (rdd needs a threshold rule, did needs two
    periods, cuped needs linearity; matching just needs overlap):
    each treated user is compared to control users at the NEAREST
    activity level, with replacement, so the treated-vs-control gap
    is read at like-for-like activity.  The covariate domain is
    bounded (n_ev ∈ a few hundred values), so matching is exact on
    the (x, arm) HISTOGRAM — no per-user pairing ever materializes:

        r_c(v)   = 10⁶·conv_c(v) // n_c(v)     (floor per ctrl value)
        match(x) = argmin_v |x−v|, tie → the SMALLER v (documented)
        att_ppm  = ss(10⁶·CT − Σ_x n_t(x)·r_c(match(x)) / N_t)

    The naive (unmatched) diff rides along — their gap is the
    selection bias matching removed.  ONE (x, arm) exchange bounded
    by the activity domain; the nearest-value fold runs over ≤
    domain² driver cells.  Mirror: histogram + row_number nearest
    join + identical floors."""
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

    def cells(batch: pa.Table) -> pa.Table:
        ids = batch.column("user_id").to_numpy()
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        t = (h < np.uint64(1 << 31)).astype("int64")
        x = batch.column("n_ev").to_numpy().astype("int64")
        y = (batch.column("conv").to_numpy() > 0).astype("int64")
        df = pd.DataFrame({"x": x, "t": t, "n": 1, "c": y})
        g = df.groupby(["x", "t"], as_index=False).sum()
        for col in g.columns:
            g[col] = g[col].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False) \
                       .replace_schema_metadata(None)

    g = (per_user.map_batches(cells, batch_format="pyarrow")
         .groupby(["x", "t"])
         .aggregate(Sum("n", alias_name="n"),
                    Sum("c", alias_name="c"))).to_pandas()
    tr = g[g["t"] == 1].set_index("x")[["n", "c"]]
    ct = g[g["t"] == 0].set_index("x")[["n", "c"]]
    NT, CT = int(tr["n"].sum()), int(tr["c"].sum())
    NC, CC = int(ct["n"].sum()), int(ct["c"].sum())
    cvals = sorted(ct.index)
    rc = {v: 1_000_000 * int(ct.loc[v, "c"]) // int(ct.loc[v, "n"])
          for v in cvals}

    def match(x: int) -> int:
        return min(cvals, key=lambda v: (abs(x - v), v))

    def ss(num: int, den: int) -> int:
        if den == 0:
            return 0
        s = 1 if (num >= 0) == (den > 0) else -1
        return s * (1_000_000 * abs(num) // abs(den))

    msum = sum(int(tr.loc[x, "n"]) * rc[match(int(x))]
               for x in tr.index)
    att = ss(1_000_000 * CT - msum, 1_000_000 * NT)
    naive = (1_000_000 * CT // NT if NT else 0) \
        - (1_000_000 * CC // NC if NC else 0)
    out = pd.DataFrame([{
        "n_treat": NT, "n_ctrl": NC, "att_ppm": att,
        "naive_diff_ppm": naive, "bias_removed_ppm": naive - att}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_eb_shrink(sf_dir: str):
    """Empirical-Bayes (add-k) shrinkage of per-source English share
    toward the corpus mean — the small-segment dashboard fix: a
    source with 3 docs and 3 English reads a meaningless 100%, and
    ranking segments by raw rate always crowns the tiny ones; pulling
    each rate toward the global mean with prior strength k = 50
    pseudo-docs is the standard remedy, and with the rational mean
    E/N the whole shrunken rate clears to ONE floor:

        shrunk = (e_s + k·E/N)/(n_s + k)
               = 10⁶·(e_s·N + k·E) // (N·(n_s + k))

    raw rides along; move_ppm = shrunk − raw is the applied
    correction (small segments move a lot, big ones barely).  ONE
    source-bounded exchange.  Mirror: identical floor under
    HUGEINT."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "lang"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        en = pc.equal(batch.column("lang"), "en").cast(pa.int64())
        ones = pa.array([1] * len(batch), pa.int64())
        return pa.table({"source": batch.column("source"),
                         "_n": ones, "_en": en})

    g = (docs.map_batches(prep, batch_format="pyarrow")
         .groupby("source")
         .aggregate(Sum("_n", alias_name="n_docs"),
                    Sum("_en", alias_name="n_en"))).to_pandas()
    g = g.sort_values("source").reset_index(drop=True)
    N = int(g["n_docs"].sum())
    E = int(g["n_en"].sum())
    K = 50
    g["raw_ppm"] = [1_000_000 * int(e) // int(n)
                    for e, n in zip(g["n_en"], g["n_docs"])]
    g["shrunk_ppm"] = [
        1_000_000 * (int(e) * N + K * E) // (N * (int(n) + K))
        for e, n in zip(g["n_en"], g["n_docs"])]
    g["move_ppm"] = g["shrunk_ppm"] - g["raw_ppm"]
    for c in g.columns[1:]:
        g[c] = g[c].astype("int64")
    return g


def _q_yule_q(sf_dir: str):
    """Yule's Q per source — the bounded EFFECT SIZE the association
    family lacks: chi2_independence says the (lang, length) link is
    significant, but significance scales with n (every link is
    "significant" at corpus size); Q = (ad − bc)/(ad + bc) ∈ [−1, 1]
    is the odds-ratio transform that reads the same at any n, and
    it's fully rational — ONE sign-split floor:

        q_ppm = ss(10⁶·(ad − bc) / (ad + bc))    (0 when ad+bc = 0)

    over the per-source 2×2 of (lang = en) × (n_chars ≥ 300, the
    corpus median cut).  ONE source-bounded exchange of 4 cell
    counts.  Mirror: FILTER cells + the identical sign-split floor under
    HUGEINT."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["source", "lang", "n_chars"])

    def prep(batch: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc
        en = pc.equal(batch.column("lang"), "en") \
            .to_numpy(zero_copy_only=False)
        lg = batch.column("n_chars").to_numpy() >= 300

        def n(mask):
            return pa.array(mask.astype("int64"), pa.int64())

        return pa.table({"source": batch.column("source"),
                         "_a": n(en & lg), "_b": n(en & ~lg),
                         "_c": n(~en & lg), "_d": n(~en & ~lg)})

    g = (docs.map_batches(prep, batch_format="pyarrow")
         .groupby("source")
         .aggregate(*[Sum(c, alias_name=c.lstrip("_")) for c in
                      ("_a", "_b", "_c", "_d")])).to_pandas()
    g = g.sort_values("source").reset_index(drop=True)

    def q(a, b, c, d):
        num = a * d - b * c
        den = a * d + b * c
        if den == 0:
            return 0
        s = 1 if num >= 0 else -1
        return s * (1_000_000 * abs(num) // den)

    g["q_ppm"] = [q(int(a), int(b), int(c), int(d))
                  for a, b, c, d in zip(g["a"], g["b"], g["c"],
                                        g["d"])]
    for c in g.columns[1:]:
        g[c] = g[c].astype("int64")
    return g


def _q_kish_neff(sf_dir: str):
    """Kish effective sample size of the IPF raking weights — the
    price tag survey calibration always carries: raking
    (``ipf_raking``) fixes the margins but UNEQUAL weights inflate
    variance, and Kish's n_eff = (Σw)²/Σw² says how many
    equal-weight observations the weighted sample is actually worth
    (deff = n/n_eff > 1 is the inflation factor).  With the cell
    weights in ppm the ratio's 10⁶ scales cancel exactly:

        n_eff_milli = 1000·S₁² // S₂      (S₁ = Σn·w, S₂ = Σn·w²)
        deff_milli  = 1000·n·S₂ // S₁²

    Same bounded (source, lang) exchange as ipf_raking; the weight
    fold reuses its two chained floors verbatim.  Mirror: the
    ipf_raking CTEs + the two HUGEINT ratios."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source", "lang"])

    def prep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        samp = (h < np.uint64(1 << 31)).astype("int64")
        ones = np.ones(len(ids), dtype="int64")
        return pa.table({"source": batch.column("source"),
                         "lang": batch.column("lang"),
                         "_n": pa.array(ones, pa.int64()),
                         "_s": pa.array(samp, pa.int64())})

    g = (docs.map_batches(prep, batch_format="pyarrow")
         .groupby(["source", "lang"])
         .aggregate(Sum("_n", alias_name="n_full"),
                    Sum("_s", alias_name="n_samp"))).to_pandas()
    rs = g.groupby("source")["n_full"].sum().to_dict()
    cl = g.groupby("lang")["n_full"].sum().to_dict()
    ms = g.groupby("source")["n_samp"].sum().to_dict()
    g = g[g["n_samp"] > 0].copy()
    g["w1"] = [1_000_000 * int(rs[s]) // int(ms[s])
               for s in g["source"]]
    tl = {}
    for _, r in g.iterrows():
        tl[r["lang"]] = tl.get(r["lang"], 0) \
            + int(r["n_samp"]) * int(r["w1"])
    g["w2"] = [int(w1) * 1_000_000 * int(cl[l]) // tl[l]
               for w1, l in zip(g["w1"], g["lang"])]
    n = int(g["n_samp"].sum())
    s1 = int((g["n_samp"] * g["w2"]).sum())
    s2 = sum(int(ns) * int(w) * int(w)
             for ns, w in zip(g["n_samp"], g["w2"]))
    out = pd.DataFrame([{
        "n_samp": n,
        "n_eff_milli": 1000 * s1 * s1 // s2,
        "deff_milli": 1000 * n * s2 // (s1 * s1)}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_cochran_armitage(sf_dir: str):
    """Cochran-Armitage trend test — the ORDERED-groups question the
    drift family can't pose: chi2_independence asks "do conversion
    rates differ across activity deciles AT ALL", but the monotone
    question ("does conversion RISE with activity") concentrates all
    the power on one degree of freedom, and CA is its exact test.
    With decile scores x_i, sizes n_i, successes r_i, everything
    clears to integers:

        T  = n·Σx_i·r_i − R·Σx_i·n_i
        B  = n·Σx_i²·n_i − (Σx_i·n_i)²
        χ² = n·T² / (R·(n−R)·B)     → chi2_milli, one floor

    flag: n·T²·10⁶ > 3841459·R(n−R)·B (the logrank cross-multiply
    discipline); trend_sign carries T's direction.  Magnitude bound
    n·T² ≲ 100·n⁵ stays inside HUGEINT through n ≈ 10⁷ users
    (documented).  ONE user exchange + the 10-row decile fold.
    Mirror: the uplift_deciles rank CTE + the identical fold."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Max, Sum

    from documentai_ray.stages.aggregates import global_row_index

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
    n_users = per_user.count()

    def neg(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "neg_n", pa.array((-batch.column("n_ev").to_numpy())
                              .astype("int64"), pa.int64()))

    ranked = global_row_index(
        per_user.map_batches(neg, batch_format="pyarrow"),
        val_col="neg_n", tiebreak_col="user_id", out_col="_ri")

    def cells(batch: pa.Table) -> pa.Table:
        dec = 1 + 10 * batch.column("_ri").to_numpy() // n_users
        y = (batch.column("conv").to_numpy() > 0).astype("int64")
        df = pd.DataFrame({"x": dec.astype("int64"), "n": 1, "r": y})
        g = df.groupby("x", as_index=False).sum()
        for c in g.columns:
            g[c] = g[c].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False) \
                       .replace_schema_metadata(None)

    g = (ranked.map_batches(cells, batch_format="pyarrow")
         .groupby("x")
         .aggregate(Sum("n", alias_name="n"),
                    Sum("r", alias_name="r"))).to_pandas()
    n = int(g["n"].sum())
    R = int(g["r"].sum())
    sxr = sum(int(x) * int(r) for x, r in zip(g["x"], g["r"]))
    sxn = sum(int(x) * int(m) for x, m in zip(g["x"], g["n"]))
    sxxn = sum(int(x) * int(x) * int(m)
               for x, m in zip(g["x"], g["n"]))
    T = n * sxr - R * sxn
    B = n * sxxn - sxn * sxn
    den = R * (n - R) * B
    chi2 = 1000 * n * T * T // den if den > 0 else 0
    sig = n * T * T * 1_000_000 > 3_841_459 * den if den > 0 \
        else False
    out = pd.DataFrame([{
        "n": n, "r": R, "trend_sign": (T > 0) - (T < 0),
        "chi2_milli": chi2, "significant": bool(sig)}])
    for c in ("n", "r", "trend_sign", "chi2_milli"):
        out[c] = out[c].astype("int64")
    return out


def _q_cost_threshold(sf_dir: str):
    """Profit-maximizing operating point — the BUSINESS sibling of
    youden_threshold: J weighs sensitivity and specificity equally,
    but a review queue where a caught return is worth 3× a wasted
    review wants argmax (3·TP − FP), an INTEGER objective needing no
    flooring at all during the sweep.  Candidates are the distinct
    scores (positive ⟺ qty ≥ t), ties take the SMALLEST threshold
    (the youden discipline); the chosen point reports its exact
    confusion and profit, with the all-positive baseline profit
    riding along (a threshold must beat classifying everything
    positive, or the queue is pointless).  Same bounded histogram
    exchange as youden_threshold.  Mirror: window sums + ORDER BY
    LIMIT 1."""
    import pandas as pd

    h = _score_label_hist(sf_dir)
    g = h.pivot_table(index="qty", columns="returned", values="n",
                      aggfunc="sum", fill_value=0).sort_index(
        ascending=False)
    pos = g[True].to_numpy() if True in g.columns else 0 * g.iloc[:, 0]
    neg = g[False].to_numpy() if False in g.columns \
        else 0 * g.iloc[:, 0]
    p_tot, n_tot = int(pos.sum()), int(neg.sum())
    best = None
    cum_tp = cum_fp = 0
    for qty, tp_add, fp_add in zip(g.index, pos, neg):
        cum_tp += int(tp_add)
        cum_fp += int(fp_add)
        profit = 3 * cum_tp - cum_fp
        cand = (profit, int(qty), cum_tp, cum_fp)
        # max profit; tie -> smallest threshold (qty ASC at same
        # profit == later in this descending sweep, so >= keeps it)
        if best is None or profit >= best[0]:
            best = cand
    profit, t, tp, fp = best
    out = pd.DataFrame([{
        "threshold": t, "tp": tp, "fp": fp,
        "fn": p_tot - tp, "tn": n_tot - fp,
        "profit": profit,
        "profit_all": 3 * p_tot - n_tot}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_anomaly_ensemble(sf_dir: str):
    """Detector-consensus alerts (``windows.anomaly_ensemble_int``):
    the alert-fatigue fix production monitoring actually runs — each
    spike rule in this repo has a known blind spot (a global 3σ band
    inflates under drift, ``xmr_alarms_int`` under-reacts when the
    jump inflates its own moving range, ``seasonal_anomaly_int`` needs
    a real daily cycle), so an hour pages only when ≥ 2 of the 3 UPWARD
    rules agree, with the individual votes exposed.  Same bounded
    dense-grid exchange as the single rules.  Mirror: the dense grid
    + the three cross-multiplied inequalities + a votes filter."""
    import ray.data

    from documentai_ray.stages.windows import anomaly_ensemble_int

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type"])
    return anomaly_ensemble_int(ev)


def _q_exposure_fairness(sf_dir: str):
    """Ranking-exposure fairness audit — the question retrieval eval
    (ndcg/mrr) never asks: a ranker can be accurate AND starve a
    source group, because user attention decays with rank; position
    exposure here is the harmonic 10⁶ // r (the ndcg discount
    discipline — exact integers, no log), over the top-100 docs by
    (n_chars DESC, doc_id) — the deterministic relevance stand-in.
    Per source group in the top-k:

        exp_share_ppm  = 10⁶·Σ_{r∈g} (10⁶//r) // Σ_r (10⁶//r)
        item_share_ppm = 10⁶·n_g // k
        disparity_ppm  = exp_share − item_share

    (> 0: the group's items cluster at the TOP of the list — it gets
    more attention than its item count earns; the equal-exposure
    baseline is item share by construction).  Top-k is a global
    sort+limit (k bounded); the fold is a
    k-row driver pass.  Mirror: row_number + identical floors."""
    import pandas as pd
    import ray.data

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "n_chars"])
    k = 100
    top = (docs.sort(["n_chars", "doc_id"], descending=[True, False])
           .limit(k).to_pandas())
    top["rank"] = range(1, len(top) + 1)
    top["w"] = [1_000_000 // r for r in top["rank"]]
    total_w = int(top["w"].sum())
    n = len(top)
    g = (top.groupby("source", as_index=False)
         .agg(n_topk=("rank", "size"), exposure=("w", "sum")))
    g = g.sort_values("source").reset_index(drop=True)
    g["exp_share_ppm"] = [1_000_000 * int(e) // total_w
                          for e in g["exposure"]]
    g["item_share_ppm"] = [1_000_000 * int(m) // n
                           for m in g["n_topk"]]
    g["disparity_ppm"] = g["exp_share_ppm"] - g["item_share_ppm"]
    for c in g.columns[1:]:
        g[c] = g[c].astype("int64")
    return g


def _q_qte_quantiles(sf_dir: str):
    """Quantile treatment effects — the DISTRIBUTIONAL causal readout
    the mean-based ops (ab_conversion, cuped) can't see: a treatment
    can leave the mean flat while fattening the tail (heavy buyers
    spend more, light buyers less), and the QTE reads the arm gap at
    each quantile.  Purchase values in exact cents per Knuth arm, the
    nearest-rank quantile (smallest value whose cumulative
    count reaches ⌈p·n⌉ — no interpolation) at p ∈ {25, 50, 75, 90}:

        qte_cents(p) = v_treat(p) − v_ctrl(p)

    ONE exchange bounded by distinct cents × 2; the four rank picks
    are a driver scan over that bounded histogram.  Mirror: histogram
    + window cumsum + the same ⌈p·n⌉ pick."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        m = pc.equal(batch.column("event_type"),
                     "purchase").to_numpy(zero_copy_only=False)
        ids = batch.column("user_id").to_numpy()[m]
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        t = (h < np.uint64(1 << 31)).astype("int64")
        c = np.rint(batch.column("value").to_numpy()[m] * 100) \
            .astype("int64")
        df = pd.DataFrame({"cents": c, "t": t, "n": 1})
        g = df.groupby(["cents", "t"], as_index=False).sum()
        for col in g.columns:
            g[col] = g[col].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False) \
                       .replace_schema_metadata(None)

    g = (ev.map_batches(prep, batch_format="pyarrow")
         .groupby(["cents", "t"])
         .aggregate(Sum("n", alias_name="n"))).to_pandas()

    def pick(arm: int, p_num: int, p_den: int) -> int:
        sub = g[g["t"] == arm].sort_values("cents")
        n = int(sub["n"].sum())
        rank = -(-p_num * n // p_den)  # ceil(p*n)
        cum = 0
        for v, c in zip(sub["cents"], sub["n"]):
            cum += int(c)
            if cum >= rank:
                return int(v)
        raise AssertionError("rank out of range")

    recs = []
    for p in (25, 50, 75, 90):
        vt = pick(1, p, 100)
        vc = pick(0, p, 100)
        recs.append((p, vt, vc, vt - vc))
    out = pd.DataFrame(recs, columns=[
        "p_pct", "v_treat_cents", "v_ctrl_cents", "qte_cents"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_newsvendor_stock(sf_dir: str):
    """Newsvendor optimal stock — stochastic inventory OPTIMIZATION,
    not description: the quantile family reports the demand
    distribution; a buyer must pick ONE stock level s balancing
    underage cost cu = 3 (lost margin per unit short) against overage
    co = 1 (holding cost per unit over), and the newsvendor solution
    is the critical fractile cu/(cu+co) = 3/4 — stock = smallest
    demand value whose cumulative count reaches ⌈3n/4⌉ (the
    nearest-rank quantile).  The expected cost is EXACT on the
    demand histogram (Σ n_d·(co·(s−d)⁺ + cu·(d−s)⁺), integer), and
    the MEDIAN stock's cost rides along — the gap is what the
    fractile optimization buys over the naive mid pick (cost_opt ≤
    cost_med by construction, pinned).  Per l_returnflag; ONE
    bounded (flag, qty) histogram exchange, folds driver-side.
    Mirror: window cumsum picks + a histogram cross join for the two
    exact cost sums."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count

    CU, CO = 3, 1
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity"])

    def prep(batch: pa.Table) -> pa.Table:
        v = np.rint(batch.column("l_quantity").to_numpy()) \
            .astype("int64")
        return pa.table({"flag": batch.column("l_returnflag"),
                         "d": pa.array(v, pa.int64())})

    h = (li.map_batches(prep, batch_format="pyarrow")
         .groupby(["flag", "d"])
         .aggregate(Count(alias_name="n"))).to_pandas()
    recs = []
    for flag, sub in h.groupby("flag", sort=True):
        sub = sub.sort_values("d")
        d = sub["d"].to_numpy()
        n = sub["n"].to_numpy().astype("int64")
        tot = int(n.sum())

        def stock_at(num: int, den: int) -> int:
            rank = (num * tot + den - 1) // den
            cum = 0
            for v, c in zip(d, n):
                cum += int(c)
                if cum >= rank:
                    return int(v)
            raise AssertionError("rank out of range")

        def cost_at(s: int) -> int:
            over = np.maximum(s - d, 0)
            under = np.maximum(d - s, 0)
            return int((n * (CO * over + CU * under)).sum())

        s_opt = stock_at(CU, CU + CO)
        s_med = stock_at(1, 2)
        recs.append((flag, tot, s_opt, cost_at(s_opt), s_med,
                     cost_at(s_med)))
    out = pd.DataFrame(recs, columns=[
        "flag", "n", "stock_opt", "cost_opt", "stock_median",
        "cost_median"])
    for c in out.columns[1:]:
        out[c] = out[c].astype("int64")
    return out


def _q_sequential_looks(sf_dir: str):
    """Group-sequential A/B monitoring — the peeking problem made
    explicit: reading the arm χ² once a week and stopping at the
    first 3.84 crossing inflates false positives several-fold, so
    sequential designs spend the α across looks; this runs the 5
    interim looks with the Bonferroni boundary (χ²₁ at α/5 = 0.01,
    the fixed constant 6634897 ppm — conservative but assumption-free,
    the same fixed-decimal convention as 3841459).  Look k uses only
    events in the first k/5 of the corpus day span (users enter as
    they first act); per look the 2×2 χ² is fully cleared:

        χ² = n·(ad − bc)² / ((a+b)(c+d)(a+c)(b+d))   → milli, 1 floor

    Emits one row per look (n, conv, chi2_milli, crossed) — the
    monitoring table itself.  ONE pass building (user, look-of-first-
    conv...) is wrong — conversion status must be AS OF the look, so
    the exchange carries per-user (first_day, conv_day_or_never) and
    the 5 looks fold from that bounded table.  Mirror: per-look
    FILTER counts + identical HUGEINT fold."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Max, Min, Sum

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        dd = (batch.column("ts").cast(pa.timestamp("us"))
              .cast(pa.int64()).to_numpy() // 86_400_000_000)
        conv = pc.and_(pc.equal(batch.column("event_type"), "purchase"),
                       pc.greater_equal(batch.column("value"),
                                        pa.scalar(150.0))) \
            .to_numpy(zero_copy_only=False)
        big = np.int64(1 << 40)
        return pa.table({
            "user_id": batch.column("user_id"),
            "dd": pa.array(dd.astype("int64"), pa.int64()),
            "cd": pa.array(np.where(conv, dd, big).astype("int64"),
                           pa.int64())})

    per_user = (ev.map_batches(prep, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(Min("dd", alias_name="fd"),
                           Min("cd", alias_name="cd")))

    # look cuts from the corpus event-day span (pruned re-read, the
    # documented double-consumption rule)
    sd = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts"])

    def days(batch: pa.Table) -> pa.Table:
        dd = (batch.column("ts").cast(pa.timestamp("us"))
              .cast(pa.int64()).to_numpy() // 86_400_000_000)
        return pa.table({"dd": pa.array(dd.astype("int64"),
                                        pa.int64())})

    mm = sd.map_batches(days, batch_format="pyarrow") \
        .aggregate(Min("dd"), Max("dd"))
    d0, d1 = int(mm["min(dd)"]), int(mm["max(dd)"])
    span = d1 - d0 + 1
    cuts = [d0 + (span * k + 4) // 5 - 1 for k in range(1, 6)]

    def cells(batch: pa.Table) -> pa.Table:
        ids = batch.column("user_id").to_numpy()
        hh = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        tr = hh < np.uint64(1 << 31)
        fd = batch.column("fd").to_numpy()
        cd = batch.column("cd").to_numpy()
        rows = []
        for k, cut in enumerate(cuts, start=1):
            inn = fd <= cut
            y = cd <= cut
            rows.append((k, int((inn & tr & y).sum()),
                         int((inn & tr & ~y).sum()),
                         int((inn & ~tr & y).sum()),
                         int((inn & ~tr & ~y).sum())))
        arr = np.array(rows, dtype="int64")
        return pa.table({"look": pa.array(arr[:, 0], pa.int64()),
                         "a": pa.array(arr[:, 1], pa.int64()),
                         "b": pa.array(arr[:, 2], pa.int64()),
                         "c": pa.array(arr[:, 3], pa.int64()),
                         "d": pa.array(arr[:, 4], pa.int64())})

    g = (per_user.map_batches(cells, batch_format="pyarrow")
         .groupby("look")
         .aggregate(*[Sum(c, alias_name=c) for c in
                      ("a", "b", "c", "d")])).to_pandas()
    g = g.sort_values("look")
    CRIT = 6_634_897  # chi2_1 at alpha/5 = 0.01, ppm
    recs = []
    for _, r in g.iterrows():
        k, a, b, c, d = (int(r[x]) for x in
                         ("look", "a", "b", "c", "d"))
        n = a + b + c + d
        den = (a + b) * (c + d) * (a + c) * (b + d)
        num = a * d - b * c
        chi2 = 1000 * n * num * num // den if den > 0 else 0
        crossed = (n * num * num * 1_000_000 > CRIT * den) \
            if den > 0 else False
        recs.append((k, n, a + c, chi2, bool(crossed)))
    out = pd.DataFrame(recs, columns=[
        "look", "n", "n_conv", "chi2_milli", "crossed"])
    for col in ("look", "n", "n_conv", "chi2_milli"):
        out[col] = out[col].astype("int64")
    return out


def _q_wilcoxon_signed(sf_dir: str):
    """Wilcoxon signed-rank test — the PAIRED location test the
    two-sample family lacks: mann_whitney compares independent
    populations, but "did each user's activity CHANGE from the first
    half of the month to the second" pairs every user with itself,
    and the signed-rank statistic uses the magnitude ordering of the
    per-user differences d_u = n₂ − n₁ (zeros dropped — the classic
    convention).  Doubled midranks of |d| keep ties integral;
    W'₊ = Σ_{d>0} R' is the doubled positive-rank sum with
    E[W'₊] = n(n+1)/2 (integer), and clearing Var by 12 absorbs the
    tie cubic exactly:

        var12   = 2n(n+1)(2n+1) − T₃          (exact, NO floor)
        z2_milli = 12000·D² // var12,  D = W'₊ − n(n+1)/2
        sig      = 12·10⁶·D² > 3841459·var12

    ONE user exchange (two conditional counts), then a bounded
    diff histogram; the fold is driver-side.  Mirror: half-split
    FILTER counts + midrank windows + the identical fold."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])

    def to_us(batch: pa.Table) -> pa.Table:
        t = batch.column("ts").cast(pa.timestamp("us")).cast(pa.int64())
        return pa.table({"user_id": batch.column("user_id"),
                         "t_us": t})

    t = ev.map_batches(to_us, batch_format="pyarrow")
    t0 = int(t.min("t_us"))
    t1 = int(t.max("t_us"))
    t_mid = (t0 + t1 + 1) // 2

    def halves(batch: pa.Table) -> pa.Table:
        import numpy as np
        tu = batch.column("t_us").to_numpy()
        first = (tu < t_mid).astype("int64")
        return pa.table({"user_id": batch.column("user_id"),
                         "n1": pa.array(first, pa.int64()),
                         "n2": pa.array(1 - first, pa.int64())})

    per_user = (t.map_batches(halves, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(Sum("n1", alias_name="n1"),
                           Sum("n2", alias_name="n2")))

    def dhist(batch: pa.Table) -> pa.Table:
        import pandas as pd
        d = (batch.column("n2").to_numpy()
             - batch.column("n1").to_numpy())
        df = pd.DataFrame({"d": d[d != 0], "n": 1})
        g = df.groupby("d", as_index=False)["n"].sum()
        for c in g.columns:
            g[c] = g[c].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False) \
                       .replace_schema_metadata(None)

    h = (per_user.map_batches(dhist, batch_format="pyarrow")
         .groupby("d")
         .aggregate(Sum("n", alias_name="n"))).to_pandas()
    h["ad"] = h["d"].abs()
    v = h.groupby("ad", as_index=False)["n"].sum().sort_values("ad")
    v["cl"] = v["n"].cumsum().shift(fill_value=0)
    rp = {a: 2 * int(c) + int(m) + 1
          for a, c, m in zip(v["ad"], v["cl"], v["n"])}
    t3 = sum(int(m) ** 3 - int(m) for m in v["n"])
    n = int(h["n"].sum())
    w2 = int(sum(int(m) * rp[int(a)]
                 for d, a, m in zip(h["d"], h["ad"], h["n"])
                 if int(d) > 0))
    dd = w2 - n * (n + 1) // 2
    var12 = 2 * n * (n + 1) * (2 * n + 1) - t3
    if var12 > 0:
        z2 = 12_000 * dd * dd // var12
        sig = 12_000_000 * dd * dd > 3_841_459 * var12
    else:
        z2, sig = 0, False
    out = pd.DataFrame([{
        "n_nonzero": n, "w2_pos": w2, "t3": t3, "var12": var12,
        "z2_milli": z2,
        "shift_sign": (dd > 0) - (dd < 0),
        "significant": bool(sig)}])
    for c in out.columns[:-1]:
        out[c] = out[c].astype("int64")
    return out


def _q_nelson_aalen(sf_dir: str):
    """Nelson-Aalen cumulative hazard — the SUM companion to
    Kaplan–Meier's product: KM multiplies survival factors (one
    pessimistic floor per step compounds), NA adds hazard increments
    Σ d_k/n_k, the estimator actuaries integrate risk over and the
    one whose increments are additive across strata.  Same lifetime
    / 6 h-censoring / 30-day-horizon contracts as Kaplan–Meier
    (shared kernel ``windows.km_survival_int`` supplies the
    (day, at_risk, deaths, hazard_ppm) table); the NA layer is the
    running sum of the per-day hazard floors:

        cumhaz_ppm_d = Σ_{k ≤ d} 10⁶·deaths_k // at_risk_k

    — floors SUM here rather than compound, so (unlike the KM chain)
    the mirror needs NO recursive CTE, just a window cumsum: the
    structural difference between the two estimators is visible in
    the two oracles' shapes.  Cost: identical to the Kaplan–Meier fold."""
    import ray.data

    from documentai_ray.stages.windows import km_survival_int

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    km = km_survival_int(ev, horizon_days=30, censor_gap_hours=6)
    km = km.sort_values("day").reset_index(drop=True)
    km["cumhaz_ppm"] = km["hazard_ppm"].cumsum().astype("int64")
    return km[["day", "at_risk", "deaths", "hazard_ppm",
               "cumhaz_ppm"]]


def _q_rle_advisor(sf_dir: str):
    """RLE/dictionary encoding advisor under a candidate sort key —
    the layout question delta+varint coding answers for integers, asked for
    the LOW-CARDINALITY string columns: if the table were sorted by
    (ship-day, column), how many runs would each flag column
    collapse to, and does run-length or dictionary encoding win?
    The layout is histogram-computable with NO row order anywhere:
    within a day the column is sorted, so runs-in-day = distinct
    values that day, and a day boundary merges exactly when
    max(day_i) = min(day_{i+1}) over the OBSERVED-day sequence:

        n_runs     = Σ_day k_day − Σ_adjacent [max_i = min_{i+1}]
        raw_bytes  = n           (1-byte codes)
        rle_bytes  = 5·n_runs    (1-byte value + 4-byte run length)
        dict_bytes = 8·k + (n·bits(k) + 7) // 8,
                     bits(k) = max(1, bit_length(k−1))
        best       = min bytes, ties by label asc (dict<raw<rle)

    ONE (col, day, value) histogram exchange (≤ days×|values|×2);
    the fold is driver-side.  Mirror: per-day distinct/min/max +
    lag() boundary windows, UNION ALL per column."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count

    cols = ["l_returnflag", "l_linestatus"]

    def prep(batch: pa.Table) -> pa.Table:
        day = batch.column("l_shipdate").to_pandas().dt.floor("D")
        outs = []
        for c in cols:
            outs.append(pa.table({
                "col": pa.array([c] * batch.num_rows, pa.string()),
                "day": pa.Array.from_pandas(day),
                "val": batch.column(c)}))
        return pa.concat_tables(outs)

    h = (ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_shipdate"] + cols)
         .map_batches(prep, batch_format="pyarrow")
         .groupby(["col", "day", "val"])
         .aggregate(Count(alias_name="n"))).to_pandas()
    recs = []
    for c in cols:
        g = h[h["col"] == c]
        n = int(g["n"].sum())
        k = g["val"].nunique()
        per_day = g.groupby("day").agg(
            kd=("val", "nunique"), mn=("val", "min"),
            mx=("val", "max")).sort_index()
        runs = int(per_day["kd"].sum())
        merged = sum(1 for prev_mx, mn in zip(per_day["mx"][:-1],
                                              per_day["mn"][1:])
                     if prev_mx == mn)
        runs -= merged
        bits = max(1, (k - 1).bit_length())
        raw_b = n
        rle_b = 5 * runs
        dict_b = 8 * k + (n * bits + 7) // 8
        best = min([("dict", dict_b), ("raw", raw_b), ("rle", rle_b)],
                   key=lambda t: (t[1], t[0]))[0]
        recs.append((c, n, k, runs, raw_b, rle_b, dict_b, best))
    out = pd.DataFrame(recs, columns=[
        "col", "n", "n_distinct", "n_runs", "raw_bytes", "rle_bytes",
        "dict_bytes", "best"])
    for col in out.columns[1:-1]:
        out[col] = out[col].astype("int64")
    return out


def _q_bh_fdr(sf_dir: str):
    """Benjamini-Hochberg step-UP across the same five arm metrics —
    the FDR sibling holm_bonferroni deliberately isn't: Holm controls
    the chance of ANY false positive (step-DOWN: reject until the
    first failure), BH controls the expected FALSE-DISCOVERY RATE
    and walks the other way — find the LARGEST rank i whose χ²
    clears its own threshold and reject EVERYTHING at or above it,
    so a middle metric that fails its own bar is still rejected when
    a weaker metric below it passes (the semantic difference, pinned
    in the kernel test).  Thresholds are χ²₁ at α·i/m, the fixed ppm
    constants {6634897, 5411894, 4709292, 4217885, 3841459} for
    ranks 1..5 (rank 1 = largest χ²); every comparison
    cross-multiplies the cleared n(ad−bc)² pieces.  Shares
    ``_arm_metric_stats`` (ONE user exchange) with holm.  Mirror:
    the identical CASE chain + a window MAX of the passing ranks."""
    import pandas as pd

    from documentai_ray.extras import bh_stepup_int

    stats = _arm_metric_stats(sf_dir)
    recs = bh_stepup_int(stats)
    out = pd.DataFrame(recs, columns=[
        "metric", "rank", "chi2_milli", "crit_ppm", "rejected"])
    for col in ("rank", "chi2_milli", "crit_ppm"):
        out[col] = out[col].astype("int64")
    return out


def _q_holm_bonferroni(sf_dir: str):
    """Holm step-down correction across FIVE arm metrics — the
    multiple-comparisons discipline a metrics dashboard needs: test
    conversion AND error rate AND click rate AND repeat-purchase AND
    activity against the arms and the chance of SOME false positive
    balloons; plain Bonferroni divides α by 5 everywhere, Holm
    spends it adaptively (largest χ² faces α/5, the next α/4, …)
    and still controls FWER.  All comparisons cross-multiply against
    the fixed χ²₁ ppm constants {3841459, 5023886, 5731305, 6238804,
    6634897} (α/1..α/5 at α = 0.05 — the 3841459 fixed-decimal
    convention); rejection stops at the first failure (step-down).
    Per metric the 2×2 χ² is fully cleared (one milli floor for
    display).  ONE user exchange carrying 5 binary flags (shared
    via ``_arm_metric_stats`` with bh_fdr).  Mirror: FILTER counts
    + the identical ordered CASE chain."""
    import pandas as pd

    stats = _arm_metric_stats(sf_dir)
    CRITS = [3_841_459, 5_023_886, 5_731_305, 6_238_804, 6_634_897]
    # step-down: largest chi2 faces the strictest threshold
    stats.sort(key=lambda r: (-r[2], r[0]))
    recs, alive = [], True
    for i, (name, n, chi2, lhs, den) in enumerate(stats):
        crit = CRITS[len(stats) - 1 - i]
        passes = den > 0 and lhs * 1_000_000 > crit * den
        rejected = alive and passes
        if not passes:
            alive = False
        recs.append((name, i + 1, chi2, crit, bool(rejected)))
    out = pd.DataFrame(recs, columns=[
        "metric", "rank", "chi2_milli", "crit_ppm", "rejected"])
    for col in ("rank", "chi2_milli", "crit_ppm"):
        out[col] = out[col].astype("int64")
    return out


def _q_cdc_chunks(sf_dir: str):
    """Content-defined chunking dedup audit — the STORAGE-dedup
    primitive the document-level family can't see: docs_exact_dedup
    kills whole-document duplicates and minhash finds near-dup
    DOCUMENTS, but backup/blob stores (LBFS, restic, borg) dedup
    SUB-document chunks whose boundaries are content-defined — a
    token whose hash ≡ 0 (mod 16) ends a chunk, so an edit
    invalidates only the chunks it touches while fixed blocking
    shifts every later boundary.  Runs ``dedup.cdc_chunk_stats``
    (per-batch pre-combined, ONE distinct-chunk-bounded exchange)
    and folds the corpus readout:

        dedup_ratio_ppm = 10⁶·(total_chars − distinct_chars)
                          // total_chars

    — the fraction of stored bytes a chunk store would NOT write
    again.  The template-heavy corpus (PO/invoice archetypes differ
    only in planted numbers) guarantees shared chunks, asserted
    nonzero.  Mirror: token islands via shifted-cumsum windows +
    string_agg + the md5-LE64 expression."""
    import pandas as pd
    import ray.data

    from documentai_ray.stages.dedup import cdc_chunk_stats

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])
    n_docs = ds.count()
    g = cdc_chunk_stats(ds).to_pandas()
    total_chunks = int(g["n"].sum())
    distinct_chunks = len(g)
    total_chars = int((g["n"] * g["chars"]).sum())
    distinct_chars = int(g["chars"].sum())
    out = pd.DataFrame([{
        "n_docs": n_docs, "total_chunks": total_chunks,
        "distinct_chunks": distinct_chunks,
        "total_chars": total_chars,
        "distinct_chars": distinct_chars,
        "dedup_ratio_ppm": (1_000_000
                            * (total_chars - distinct_chars)
                            // total_chars if total_chars else 0)}])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _q_rake_keyphrases(sf_dir: str):
    """RAKE keyphrase extraction — the PHRASE-level salience op the
    token family lacks: top_tokens/tfidf_topk score single tokens,
    collocation_lift scores fixed bigrams, but "which multi-word
    phrases characterize the corpus" wants stopword-delimited
    candidate phrases scored by their words' degree/frequency ratio
    (RAKE: a word appearing in long phrases earns degree ≫
    frequency).  Contracts:

        phrase      = maximal run of non-stopword tokens (single-
                      space join), per document
        freq(w)     = occurrences of w across all phrase instances
        deg(w)      = Σ phrase length over w's occurrences
        score(w)    = 10⁶·deg(w) // freq(w)    (one floor per word)
        score(phr)  = Σ_w score(w)  (per occurrence, repeats count)

    Top-20 by (score desc, phrase asc).  Physical plan: per-batch
    phrase extraction (the top_tokens Counter discipline) → ONE
    vocab-bounded word-stat exchange broadcast back via ray.put
    (stopword-free vocab is small by construction — documented) →
    phrase-count exchange → global sort+limit.  Mirror: island
    windows + per-token deg/freq joins + identical floors."""
    import collections

    import pandas as pd
    import pyarrow as pa
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    stops = set(_RAKE_STOPWORDS)
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def phrases_of(t: str):
        cur = []
        for tok in (t or "").split():
            if tok in stops:
                if cur:
                    yield cur
                    cur = []
            else:
                cur.append(tok)
        if cur:
            yield cur

    def word_partial(batch: pa.Table) -> pa.Table:
        freq = collections.Counter()
        deg = collections.Counter()
        for t in batch.column("text").to_pylist():
            for ph in phrases_of(t):
                for w in ph:
                    freq[w] += 1
                    deg[w] += len(ph)
        ws = list(freq.keys())
        return pa.table({
            "w": pa.array(ws, pa.string()),
            "freq": pa.array([freq[w] for w in ws], pa.int64()),
            "deg": pa.array([deg[w] for w in ws], pa.int64())})

    wstats = (ds.map_batches(word_partial, batch_format="pyarrow")
              .groupby("w")
              .aggregate(Sum("freq", alias_name="freq"),
                         Sum("deg", alias_name="deg"))).to_pandas()
    wscore = {w: 1_000_000 * int(d) // int(f)
              for w, f, d in zip(wstats["w"], wstats["freq"],
                                 wstats["deg"])}
    ref = ray.put(wscore)

    def phrase_partial(batch: pa.Table) -> pa.Table:
        sc = ray.get(ref)
        c = collections.Counter()
        score = {}
        for t in batch.column("text").to_pylist():
            for ph in phrases_of(t):
                s = " ".join(ph)
                c[s] += 1
                if s not in score:
                    score[s] = sum(sc[w] for w in ph)
        ps = list(c.keys())
        return pa.table({
            "phrase": pa.array(ps, pa.string()),
            "n": pa.array([c[p] for p in ps], pa.int64()),
            "score_ppm": pa.array([score[p] for p in ps], pa.int64())})

    from ray.data.aggregate import Max

    out = (ds.map_batches(phrase_partial, batch_format="pyarrow")
           .groupby("phrase")
           .aggregate(Sum("n", alias_name="n"),
                      Max("score_ppm", alias_name="score_ppm"))
           .sort(["score_ppm", "phrase"], descending=[True, False])
           .limit(20)).to_pandas()
    for c in ("n", "score_ppm"):
        out[c] = out[c].astype("int64")
    return out[["phrase", "n", "score_ppm"]]


def _q_cochran_q(sf_dir: str):
    """Cochran's Q over the four technique-agreement indicators —
    the k-RATER marginal-homogeneity test that closes the agreement
    suite: mcnemar_test compares TWO techniques' error rates,
    fleiss_kappa scores agreement beyond chance, kr20 scores
    reliability — Q asks "do the FOUR techniques have different
    marginal agreement rates at all", the k-sample McNemar.  With
    binary items x_ui, item totals C_j, page totals X_u, S = ΣC_j:

        Q = (k−1)·[k·ΣC_j² − S²] / [k·S − ΣX_u²]
        q_milli = 1000·num // den, trunc (num ≥ 0 by Cauchy-Schwarz)
        sig: num·10⁶ > 7814728·den   (chi²₃ at 5%)

    The planted corpus collapses Q to a CLOSED FORM: only ambiguous
    POs defect and both defectors defect together, so
    num = 3·(4·ΣC² − S²) = 12b² and den = 4b — Q = 3b exactly, and
    significance is literally "are there ≥ 3 ambiguous pages"
    (3b·10⁶ > 7814728 ⟺ b ≥ 3), pinned.  Same single-row partials
    as kr20 (ONE 6-integer fold).  Mirror: the census closed form
    kept in general Q shape."""
    import pandas as pd
    import pyarrow as pa

    from documentai_ray.pipelines.flagship import flagship

    techs = ["tech_keyword", "tech_regex", "tech_tokenset", "tech_ml"]
    ds = flagship(sf_dir=sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        cat = batch.column("category").to_pandas()
        x = sum((batch.column(t).to_pandas() == cat).astype(int)
                for t in techs)
        cols = {"n": [batch.num_rows], "sxx": [int((x * x).sum())]}
        for t in techs:
            cols[f"c_{t[5:]}"] = [
                int((batch.column(t).to_pandas() == cat).sum())]
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in cols.items()})

    g = (ds.map_batches(partial, batch_format="pyarrow")
         .sum(["n", "sxx"] + [f"c_{t[5:]}" for t in techs]))
    n = int(g["sum(n)"])
    sxx = int(g["sum(sxx)"])
    cs = [int(g[f"sum(c_{t[5:]})"]) for t in techs]
    s = sum(cs)
    num = 3 * (4 * sum(c * c for c in cs) - s * s)
    den = 4 * s - sxx
    q = 1000 * num // den if den > 0 else 0
    sig = num * 1_000_000 > 7_814_728 * den if den > 0 else False
    out = pd.DataFrame([{
        "n_pages": n, "c_keyword": cs[0], "c_regex": cs[1],
        "c_tokenset": cs[2], "c_ml": cs[3],
        "q_milli": q, "significant": bool(sig)}])
    for col in out.columns[:-1]:
        out[col] = out[col].astype("int64")
    return out


def _q_conformance_check(sf_dir: str):
    """Process-mining log conformance — the REFERENCE-MODEL judgment
    a transition census refuses to make: the transition matrix says
    what users DO, conformance says how much of it the designed
    funnel (signup→view→click→purchase with view loops and
    click/purchase returns) ALLOWS.  Every observed (prev → next)
    adjacency (per user, ordered by ts with event_id tiebreak — the
    transitions_per_key contract) is judged against the 6-edge
    model; output is the judged transition matrix plus the log
    fitness scalar conformance_ppm = 10⁶·Σ allowed n // Σ n (one
    floor) riding every row.  Transitions into/out of 'error' are
    off-model by design — the corpus guarantees a nonzero violation
    mass.  Costs ONE key-hash exchange of ≤ P·|types|² partials.
    Mirror: lag() window + the literal IN list."""
    import pandas as pd
    import ray.data

    from documentai_ray.stages.windows import transitions_per_key

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "event_id"])
    g = transitions_per_key(ev).to_pandas()
    allowed = set(_CONFORMANCE_MODEL)
    g["allowed"] = [
        (p, x) in allowed
        for p, x in zip(g["prev_type"], g["next_type"])]
    total = int(g["n"].sum())
    ok = int(g.loc[g["allowed"], "n"].sum())
    g["conformance_ppm"] = 1_000_000 * ok // total if total else 0
    g = g.sort_values(["prev_type", "next_type"]).reset_index(drop=True)
    for c in ("n", "conformance_ppm"):
        g[c] = g[c].astype("int64")
    return g[["prev_type", "next_type", "n", "allowed",
              "conformance_ppm"]]


def _q_page_trend(sf_dir: str):
    """Page's L test for ORDERED within-block trend — the cell that
    completes the rank-test matrix: kruskal_wallis (independent,
    unordered), cochran_armitage (independent, ordered), friedman
    (blocked, unordered) — Page is blocked AND ordered: "does
    per-user activity RISE across the four quarters of the corpus
    month", ranking each user's quarter counts WITHIN the user
    (volume-free) and concentrating all power on the monotone
    alternative Friedman dilutes over k−1 df.  Quarters are the
    deterministic time buckets j = 1 + min(k−1,
    (t − t₀)·k // (span+1)) from the global min/max; doubled
    midranks (the friedman discipline) make L' = Σ j·R'_j integer
    with E[L'] = n·k(k+1)²/2 (always integral — k(k+1)² is even)
    and 36·Var(L') = n·k²(k+1)(k²−1):

        z2_milli = 36000·D² // (n·k²(k+1)(k²−1)),  D = L' − E[L']
        sig      = 36·10⁶·D² > 3841459·n·k²(k+1)(k²−1)
        trend_sign = sign(D)  (+1 = later quarters rank higher)

    (within-block ties uncorrected — the KW/friedman convention.)
    ONE (user, bucket) count exchange + user-hash partitions ranking
    vectorized; k-row partials.  Mirror: bucket CTE + the friedman
    grid/midrank windows + the identical fold."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Max, Min, Sum

    from documentai_ray.stages.dedup import _add_pkey

    k = 4
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])

    def to_us(batch: pa.Table) -> pa.Table:
        t = batch.column("ts").cast(pa.timestamp("us")).cast(pa.int64())
        return pa.table({"user_id": batch.column("user_id"),
                         "t_us": t})

    t = ev.map_batches(to_us, batch_format="pyarrow")
    t0 = int(t.min("t_us"))
    t1 = int(t.max("t_us"))
    span = t1 - t0 + 1

    def bucket(batch: pa.Table) -> pa.Table:
        import numpy as np
        tu = batch.column("t_us").to_numpy()
        j = 1 + np.minimum(k - 1, (tu - t0) * k // span)
        return pa.table({"user_id": batch.column("user_id"),
                         "bucket": pa.array(j, pa.int64())})

    counts = (t.map_batches(bucket, batch_format="pyarrow")
              .groupby(["user_id", "bucket"])
              .aggregate(Count(alias_name="cnt")))
    buckets = list(range(1, k + 1))

    def rank_block(g: pd.DataFrame) -> pd.DataFrame:
        wide = g.pivot_table(index="user_id", columns="bucket",
                             values="cnt", aggfunc="sum", fill_value=0)
        wide = wide.reindex(columns=buckets, fill_value=0)
        r2 = (wide.rank(axis=1, method="average") * 2).astype("int64")
        return pd.DataFrame({
            "bucket": buckets,
            "rsum2": [int(r2[b].sum()) for b in buckets],
            "nu": len(wide)})

    keyed = _add_pkey(counts, "user_id", 16)
    g = (keyed.groupby("_pkey")
         .map_groups(lambda d: rank_block(d.drop(columns=["_pkey"])),
                     batch_format="pandas")
         .groupby("bucket")
         .aggregate(Sum("rsum2", alias_name="rsum2"),
                    Sum("nu", alias_name="nu"))).to_pandas()
    g = g.sort_values("bucket").reset_index(drop=True)
    n = int(g["nu"].sum()) // k
    l2 = int(sum(int(b) * int(r) for b, r in zip(g["bucket"],
                                                 g["rsum2"])))
    d = l2 - n * k * (k + 1) * (k + 1) // 2
    den = n * k * k * (k + 1) * (k * k - 1)
    z2 = 36_000 * d * d // den
    sig = 36_000_000 * d * d > 3_841_459 * den
    out = g[["bucket", "rsum2"]].copy()
    out["n_users"] = n
    out["l2"] = l2
    out["z2_milli"] = z2
    out["trend_sign"] = (d > 0) - (d < 0)
    out["significant"] = bool(sig)
    for c in ("bucket", "rsum2", "n_users", "l2", "z2_milli",
              "trend_sign"):
        out[c] = out[c].astype("int64")
    return out

__all__ = ['_q_capture_diff', '_q_youden_threshold', '_q_average_precision', '_q_tukey_outliers', '_q_mase_eval', '_q_qini_auuc', '_q_calibration_bins', '_q_srm_check', '_q_ips_policy_eval', '_q_label_shift', '_q_conformal_interval', '_q_cohort_payback', '_q_bootstrap_ci', '_q_jackknife_sources', '_q_emd_hourly', '_q_price_elasticity', '_q_permutation_test', '_q_cuped_adjust', '_q_rdd_jump', '_q_kitagawa_decomp', '_q_spillover_exposure', '_q_mh_stratified', '_q_ipf_raking', '_q_term_dispersion', '_q_chain_ladder', '_q_fe_panel', '_q_matching_att', '_q_eb_shrink', '_q_yule_q', '_q_kish_neff', '_q_cochran_armitage', '_q_cost_threshold', '_q_anomaly_ensemble', '_q_exposure_fairness', '_q_qte_quantiles', '_q_newsvendor_stock', '_q_sequential_looks', '_q_wilcoxon_signed', '_q_nelson_aalen', '_q_rle_advisor', '_q_bh_fdr', '_q_holm_bonferroni', '_q_cdc_chunks', '_q_rake_keyphrases', '_q_cochran_q', '_q_conformance_check', '_q_page_trend']
