//! End-to-end quality of the SpecHD pipeline on labelled synthetic data —
//! the repository's primary acceptance gate.

use spechd_core::{Linkage, SpecHd, SpecHdConfig};
use spechd_tests::synthetic_dataset as easy_dataset;

#[test]
fn default_pipeline_clusters_replicates_with_low_icr() {
    let ds = easy_dataset(1_000, 101);
    let outcome = SpecHd::new(SpecHdConfig::default()).run(&ds);
    let eval = outcome.evaluate(&ds);
    assert!(
        eval.clustered_ratio > 0.35,
        "clustered {:.3}",
        eval.clustered_ratio
    );
    assert!(
        eval.incorrect_ratio < 0.03,
        "icr {:.3}",
        eval.incorrect_ratio
    );
    assert!(
        eval.completeness > 0.6,
        "completeness {:.3}",
        eval.completeness
    );
    assert!(
        eval.homogeneity > 0.9,
        "homogeneity {:.3}",
        eval.homogeneity
    );
}

#[test]
fn hard_dataset_operating_point_matches_fig10_regime() {
    // On the confusable-family dataset, SpecHD at a tuned threshold should
    // reach a meaningful clustered ratio while keeping ICR around the
    // paper's 1-2% operating band.
    let (_, ds) = spechd_bench::hard_dataset(1_200, 102);
    let (threshold, eval) = spechd_bench::tune_spechd_threshold(&ds, Linkage::Complete, 0.02);
    assert!(threshold > 0.1 && threshold < 0.5, "threshold {threshold}");
    assert!(
        eval.incorrect_ratio <= 0.02,
        "icr {:.3}",
        eval.incorrect_ratio
    );
    assert!(
        eval.clustered_ratio > 0.12,
        "clustered {:.3} at icr {:.3}",
        eval.clustered_ratio,
        eval.incorrect_ratio
    );
}

#[test]
fn complete_linkage_beats_single_at_matched_icr() {
    // Fig. 6a's qualitative result: complete linkage clusters much more
    // than single linkage once both are tuned to the same ICR budget
    // (single linkage chains confusable variants and must stay strict).
    let (_, ds) = spechd_bench::hard_dataset(1_500, 6);
    let (_, complete) = spechd_bench::tune_spechd_threshold(&ds, Linkage::Complete, 0.015);
    let (_, single) = spechd_bench::tune_spechd_threshold(&ds, Linkage::Single, 0.015);
    assert!(
        complete.clustered_ratio > single.clustered_ratio + 0.05,
        "complete {:.3} vs single {:.3}",
        complete.clustered_ratio,
        single.clustered_ratio
    );
}

#[test]
fn one_time_preprocessing_reclustering_consistency() {
    // §IV-B: encode once, re-cluster many times. Re-running clustering on
    // the same hypervectors at the same threshold must reproduce the
    // pipeline's own output.
    let ds = easy_dataset(400, 104);
    let engine = SpecHd::new(SpecHdConfig::default());
    let full = engine.run(&ds);
    let pre = spechd_preprocess::PreprocessPipeline::new(engine.config().preprocess).run(&ds);
    let pack = engine.encode_dataset_packed(&pre.dataset);
    assert_eq!(pack.len(), full.hypervectors().len());
    assert_eq!(
        &pack,
        full.hypervectors(),
        "hypervectors must be bit-identical across runs"
    );
    let buckets = spechd_preprocess::PrecursorBucketer::new(engine.config().resolution)
        .bucketize(pre.dataset.spectra());
    let (assignment, consensus, _) = engine.cluster_encoded_packed(&buckets, &pack);
    assert_eq!(&assignment, full.assignment());
    let consensus_orig: Vec<usize> = consensus.iter().map(|&i| pre.kept[i]).collect();
    assert_eq!(consensus_orig, full.consensus());
}

#[test]
fn compression_factor_in_paper_band_for_synthetic_run() {
    // Synthetic runs are text-light, so the factor is smaller than the
    // raw-file factors of Fig. 6b, but must still be > 1 and consistent.
    let ds = easy_dataset(500, 105);
    let outcome = SpecHd::new(SpecHdConfig::default()).run(&ds);
    let report = outcome.compression();
    assert!(report.factor() > 1.0, "factor {:.2}", report.factor());
    assert_eq!(report.hv_bytes(), outcome.hypervectors().len() * 256);
}

#[test]
fn consensus_spectra_are_cluster_members() {
    let ds = easy_dataset(500, 106);
    let outcome = SpecHd::new(SpecHdConfig::default()).run(&ds);
    let clusters = outcome.assignment().clusters();
    for (cluster_id, &consensus_orig) in outcome.consensus().iter().enumerate() {
        // Map the original index back to the kept index space.
        let kept_pos = outcome
            .kept()
            .iter()
            .position(|&orig| orig == consensus_orig)
            .expect("consensus spectrum survived preprocessing");
        assert!(
            clusters[cluster_id].contains(&kept_pos),
            "consensus of cluster {cluster_id} is not a member"
        );
    }
}

#[test]
fn dimensionality_sweep_trades_quality_for_memory() {
    // Ablation: smaller D degrades quality monotonically-ish; D=2048 must
    // beat D=256 on the same data at the same threshold.
    let ds = easy_dataset(600, 107);
    let eval_at = |dim: usize| {
        let cfg = SpecHdConfig::builder()
            .encoder(spechd_core::EncoderConfig {
                dim,
                ..Default::default()
            })
            .build();
        let outcome = SpecHd::new(cfg).run(&ds);
        outcome.evaluate(&ds)
    };
    let small = eval_at(256);
    let large = eval_at(2048);
    let score = |e: &spechd_core::ClusteringEval| e.clustered_ratio - 5.0 * e.incorrect_ratio;
    assert!(
        score(&large) >= score(&small) - 0.02,
        "D=2048 ({:.3}) should not lose to D=256 ({:.3})",
        score(&large),
        score(&small)
    );
}
