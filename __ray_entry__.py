"""Driver contract for the graft builder (Ray Data target).

``queries()`` exposes the SURVEY.md §2 operators and the steps of the
crawl → extract → dedup → quality → curation → tokenize → mix chain, plus
the off-chain analytics queries whose ``_q_*`` bodies unit tests still
call; ``oracle_sql()`` gives the DuckDB-equivalent SQL over the same
parquet tables, one entry per query. The pages corpus is synthesized
deterministically from ``documents.parquet``
(documentai_ray/sources/pages.py), and every derived
value is a closed-form function of ``doc_id``/``source``/``text`` — so the
oracle SQL reconstructs expected pipeline outputs independently, making the
extraction/classification/entity/rule pipelines fully oracle-checkable.

DETERMINISM: float columns are floor-truncated (``floor(x*1e6)/1e6``) with
op-for-op mirrored arithmetic between the Ray UDFs and the SQL — IEEE
doubles through identical op sequences are bit-identical across engines.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


# Ray workers must not depend on this repo being importable from their own
# sys.path (the driver may have initialised Ray from any cwd): ship all
# documentai_ray UDF code by value inside task specs.
import documentai_ray  # noqa: E402

documentai_ray.register_for_ray_by_value()

# ---------------------------------------------------------------------------
# entry + queries
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship pipeline on sf0.001 (read → extract → dedup → quality →
    classify → entities → rules), returned as a Dataset."""
    from documentai_ray.pipelines.flagship import flagship

    return flagship(sf_dir="/root/testdata/sf0.001")

# query implementations live in documentai_ray/queries/ (split from the
# former 32.7k-line monolith, VERDICT r2 #5); import * re-binds every
# _q_* name here for the registry below
from documentai_ray.queries.qdefs_01 import *  # noqa: E402,F401,F403
from documentai_ray.queries.qdefs_02 import *  # noqa: E402,F401,F403
from documentai_ray.queries.qdefs_03 import *  # noqa: E402,F401,F403
from documentai_ray.queries.qdefs_04 import *  # noqa: E402,F401,F403
from documentai_ray.queries.qdefs_05 import *  # noqa: E402,F401,F403
from documentai_ray.queries.qdefs_06 import *  # noqa: E402,F401,F403


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "extract_text": _q_extract_text,
        "real_pdf_extract": _q_real_pdf_extract,
        "extract_mixed": _q_extract_mixed,
        "classify_pages": _q_classify_pages,
        "entities_po": _q_entities_po,
        "rules_po": _q_rules_po,
        "flagship_boxes": _q_flagship_boxes,
        "doc_quality": _q_doc_quality,
        "lc_tags": _q_lc_tags,
        "office_extract": _q_office_extract,
        "warc_ingest": _q_warc_ingest,
        "ocr_roundtrip": _q_ocr_roundtrip,
        "image_quality": _q_image_quality,
        "image_preprocess": _q_image_preprocess,
        "rasterize_pages": _q_rasterize_pages,
        "category_split_pdfs": _q_category_split_pdfs,
        "pdf_jpx_extract": _q_pdf_jpx_extract,
        "pdf_jbig2_ocr": _q_pdf_jbig2_ocr,
        "tiff_roundtrip": _q_tiff_roundtrip,
        "selective_reprocess": _q_selective_reprocess,
        "pdf_modern_extract": _q_pdf_modern_extract,
        "pdf_jbig2_text_ocr": _q_pdf_jbig2_text_ocr,
        "pdf_jbig2_globals": _q_pdf_jbig2_globals,
        "pdf_encrypted_extract": _q_pdf_encrypted_extract,
        "pdf_password_extract": _q_pdf_password_extract,
        "flagship_warc": _q_flagship_warc,
        "docs_exact_dedup": _q_docs_exact_dedup,
        "canonical_url_dedup": _q_canonical_url_dedup,
        "minhash_neardup": _q_minhash_neardup,
        "minhash_dedup_keep": _q_minhash_dedup_keep,
        "simhash_hamming": _q_simhash_hamming,
        "ppjoin_pairs": _q_ppjoin_pairs,
        "bm25_topk": _q_bm25_topk,
        "semdedup": _q_semdedup,
        "embedding_neardup": _q_embedding_neardup,
        "ann_ivf": _q_ann_ivf,
        "bpe_encode": _q_bpe_encode,
        "lang_id": _q_lang_id,
        "gopher_quality": _q_gopher_quality,
        "pdf_cmap_extract": _q_pdf_cmap_extract,
        "pdf_embedded_images": _q_pdf_embedded_images,
        "fax_pdf_ocr": _q_fax_pdf_ocr,
        "pdf_g3_ocr": _q_pdf_g3_ocr,
        "png_color_roundtrip": _q_png_color_roundtrip,
        "jpeg_progressive_roundtrip": _q_jpeg_progressive_roundtrip,
        "jpeg_lossless_roundtrip": _q_jpeg_lossless_roundtrip,
        "jpeg12_roundtrip": _q_jpeg12_roundtrip,
        "tiff_compressed_roundtrip": _q_tiff_compressed_roundtrip,
        "warc_wire_encodings": _q_warc_wire_encodings,
        "warc_http_charset": _q_warc_http_charset,
        "pdf_metadata": _q_pdf_metadata,
        "pdf_outline": _q_pdf_outline,
        "pdf_links": _q_pdf_links,
        "pdf_layout_text": _q_pdf_layout_text,
        "quality_pages": _q_quality_pages,
        "preprocess_decision": _q_preprocess_decision,
        "entities_invoice": _q_entities_invoice,
        "wordbox_match": _q_wordbox_match,
        "group_pages": _q_group_pages,
        "category_summary": _q_category_summary,
        "scanned_pdf_ocr": _q_scanned_pdf_ocr,
        "images_to_pdf": _q_images_to_pdf,
        "vote_distribution": _q_vote_distribution,
        "lc_tags_ocr": _q_lc_tags_ocr,
        "wet_roundtrip": _q_wet_roundtrip,
        "ocr_classify": _q_ocr_classify,
        "base64_pages": _q_base64_pages,
        "charset_extract": _q_charset_extract,
        "page_type_detect": _q_page_type_detect,
        "layout_structure": _q_layout_structure,
        "table_detect": _q_table_detect,
        "generic_entities": _q_generic_entities,
        "field_validation": _q_field_validation,
        "doc_type_autodetect": _q_doc_type_autodetect,
        "error_census": _q_error_census,
        "jpeg_roundtrip": _q_jpeg_roundtrip,
        "jaccard_pairs": _q_jaccard_pairs,
        "containment_pairs": _q_containment_pairs,
        "topk_similarity": _q_topk_similarity,
        "line_dedup": _q_line_dedup,
        "dedup_passages": _q_dedup_passages,
        "repeated_passages": _q_repeated_passages,
        "decontaminate": _q_decontaminate,
        "incremental_dedup": _q_incremental_dedup,
        "bloom_dedup": _q_bloom_dedup,
        "online_neardup": _q_online_neardup,
        "pq_codes": _q_pq_codes,
        "kmeans_clusters": _q_kmeans_clusters,
        "kcenter_select": _q_kcenter_select,
        "mean_embedding": _q_mean_embedding,
        "token_stats": _q_token_stats,
        "lang_kappa": _q_lang_kappa,
        "lang_prf": _q_lang_prf,
        "token_count_bpe": _q_token_count_bpe,
        "bpe_pair_counts": _q_bpe_pair_counts,
        "bpe_train_merges": _q_bpe_train_merges,
        "fingerprint": _q_fingerprint,
        "readability": _q_readability,
        "gopher_repetition": _q_gopher_repetition,
        "c4_line_filter": _q_c4_line_filter,
        "web_curation": _q_web_curation,
        "curate_corpus": _q_curate_corpus,
        "redact_pii": _q_redact_pii,
        "normalize_text": _q_normalize_text,
        "chunk_documents": _q_chunk_documents,
        "pack_sequences": _q_pack_sequences,
        "split_assign": _q_split_assign,
        "sample_weighted": _q_sample_weighted,
        "top_tokens": _q_top_tokens,
        "feature_hash": _q_feature_hash,
        "inverted_index": _q_inverted_index,
        "tfidf_topk": _q_tfidf_topk,
        "dsir_weights": _q_dsir_weights,
        "mix_plan": _q_mix_plan,
        "mix_assemble": _q_mix_assemble,
        "lang_rebalance": _q_lang_rebalance,
        "ngram_novelty": _q_ngram_novelty,
        "oov_rate": _q_oov_rate,
        "url_filter": _q_url_filter,
        "heavy_hitters": _q_heavy_hitters,
        "shard_export": _q_shard_export,
        "vocab_growth": _q_vocab_growth,
        "host_stats": _q_host_stats,
        "host_template_strip": _q_host_template_strip,
        "host_cap": _q_host_cap,
        "skew_join": _q_skew_join,
        "outlink_count": _q_outlink_count,
        "snapshot_diff": _q_snapshot_diff,
        "curation_hostaware": _q_curation_hostaware,
        "robots_filter": _q_robots_filter,
        "robots_txt_rules": _q_robots_txt_rules,
        "surt_keys": _q_surt_keys,
        "anchor_text": _q_anchor_text,
        "sitemap_frontier": _q_sitemap_frontier,
        "recrawl_priority": _q_recrawl_priority,
        "fetch_waves": _q_fetch_waves,
        "fetch_schedule": _q_fetch_schedule,
        "url_templates": _q_url_templates,
        "redirect_resolve": _q_redirect_resolve,
        "fuzzy_hosts": _q_fuzzy_hosts,
        "cdx_fetch": _q_cdx_fetch,
        "page_meta": _q_page_meta,
        "audio_frames": _q_audio_frames,
        "video_frames": _q_video_frames,
        "entities_table": _q_entities_table,
        "technique_stats": _q_technique_stats,
        "csv_roundtrip": _q_csv_roundtrip,
        "jsonl_roundtrip": _q_jsonl_roundtrip,
        "tfrecord_roundtrip": _q_tfrecord_roundtrip,
        "ipc_roundtrip": _q_ipc_roundtrip,
        "orc_roundtrip": _q_orc_roundtrip,
        "backtest_mae": _q_backtest_mae,
        "mase_eval": _q_mase_eval,
        "qini_auuc": _q_qini_auuc,
        "calibration_bins": _q_calibration_bins,
        "srm_check": _q_srm_check,
        "ips_policy_eval": _q_ips_policy_eval,
        "label_shift": _q_label_shift,
        "conformal_interval": _q_conformal_interval,
        "cohort_payback": _q_cohort_payback,
        "bootstrap_ci": _q_bootstrap_ci,
        "jackknife_sources": _q_jackknife_sources,
        "emd_hourly": _q_emd_hourly,
        "price_elasticity": _q_price_elasticity,
        "permutation_test": _q_permutation_test,
        "cuped_adjust": _q_cuped_adjust,
        "rdd_jump": _q_rdd_jump,
        "kitagawa_decomp": _q_kitagawa_decomp,
        "spillover_exposure": _q_spillover_exposure,
        "mh_stratified": _q_mh_stratified,
        "ipf_raking": _q_ipf_raking,
        "term_dispersion": _q_term_dispersion,
        "chain_ladder": _q_chain_ladder,
        "fe_panel": _q_fe_panel,
        "matching_att": _q_matching_att,
        "eb_shrink": _q_eb_shrink,
        "yule_q": _q_yule_q,
        "kish_neff": _q_kish_neff,
        "cochran_armitage": _q_cochran_armitage,
        "cost_threshold": _q_cost_threshold,
        "anomaly_ensemble": _q_anomaly_ensemble,
        "attribution_decay": _q_attribution_decay,
        "exposure_fairness": _q_exposure_fairness,
        "qte_quantiles": _q_qte_quantiles,
        "newsvendor_stock": _q_newsvendor_stock,
        "competing_risks": _q_competing_risks,
        "sequential_looks": _q_sequential_looks,
        "holm_bonferroni": _q_holm_bonferroni,
        "kruskal_wallis": _q_kruskal_wallis,
        "fleiss_kappa": _q_fleiss_kappa,
        "rbp_eval": _q_rbp_eval,
        "err_eval": _q_err_eval,
        "species_richness": _q_species_richness,
        "brier_decomp": _q_brier_decomp,
        "max_drawdown": _q_max_drawdown,
        "link_predict": _q_link_predict,
        "friedman_test": _q_friedman_test,
        "mcnemar_test": _q_mcnemar_test,
        "mann_whitney": _q_mann_whitney,
        "kr20_reliability": _q_kr20_reliability,
        "selectivity_audit": _q_selectivity_audit,
        "yule_k": _q_yule_k,
        "page_trend": _q_page_trend,
        "survival_cindex": _q_survival_cindex,
        "cochran_q": _q_cochran_q,
        "conformance_check": _q_conformance_check,
        "cdc_chunks": _q_cdc_chunks,
        "rake_keyphrases": _q_rake_keyphrases,
        "bh_fdr": _q_bh_fdr,
        "rle_advisor": _q_rle_advisor,
        "wilcoxon_signed": _q_wilcoxon_signed,
        "nelson_aalen": _q_nelson_aalen,
        "segment_digests": _q_segment_digests,
        "dead_letter": _q_dead_letter,
        "drop_funnel": _q_drop_funnel,
        "incremental_session": _q_incremental_session,
        "rendezvous_shards": _q_rendezvous_shards,
        "q17_decorrelated": _q_q17_decorrelated,
        "orders_all_ontime": _q_orders_all_ontime,
        "minmax_scale": _q_minmax_scale,
        "rfm_segments": _q_rfm_segments,
        "revenue_share": _q_revenue_share,
        "mrr_eval": _q_mrr_eval,
        "degree_assortativity": _q_degree_assortativity,
        "ndcg_eval": _q_ndcg_eval,
        "did_estimator": _q_did_estimator,
        "laspeyres_index": _q_laspeyres_index,
        "ab_conversion": _q_ab_conversion,
        "assoc_rules": _q_assoc_rules,
        "uplift_deciles": _q_uplift_deciles,
        "paasche_index": _q_paasche_index,
        "fd_mine": _q_fd_mine,
        "rank_overlap": _q_rank_overlap,
        "chain_index": _q_chain_index,
        "lorenz_deciles": _q_lorenz_deciles,
        "rmst_summary": _q_rmst_summary,
        "q10_returns": _q_q10_returns,
        "q8_market_share": _q_q8_market_share,
        "pinball_eval": _q_pinball_eval,
        "cohort_ltv": _q_cohort_ltv,
        "post_stratify": _q_post_stratify,
        "lincoln_petersen": _q_lincoln_petersen,
        "german_tank": _q_german_tank,
        "fifo_cogs": _q_fifo_cogs,
        "capture_diff": _q_capture_diff,
        "youden_threshold": _q_youden_threshold,
        "average_precision": _q_average_precision,
        "tukey_outliers": _q_tukey_outliers,
    }


def oracle_sql() -> dict[str, str]:
    from documentai_ray.queries.sql_01 import oracle_sql_part_01
    from documentai_ray.queries.sql_02 import oracle_sql_part_02
    from documentai_ray.queries.sql_03 import oracle_sql_part_03

    out: dict[str, str] = {}
    out.update(oracle_sql_part_01())
    out.update(oracle_sql_part_02())
    out.update(oracle_sql_part_03())
    return out
