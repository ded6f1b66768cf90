//! `batch_mgf` — the paper's raw-files-to-clusters path (Fig. 7): MGF bytes
//! in memory → `formats::mgf::read` → `SpecHd::run` → `evaluate`.

use super::staged::{cluster_layer_metrics, cluster_staged, CLUSTER_STAGES};
use super::{synthetic_spectra, Checks, LayerMetrics, Workload};
use crate::reference;
use crate::stats::fastest;
use crate::trace::Tracer;
use spechd_core::stream::StreamConfig;
use spechd_core::{SpecHd, SpecHdConfig};
use spechd_fpga::WorkloadShape;
use spechd_metrics::ClusteringEval;
use spechd_ms::formats::mgf;
use spechd_ms::stream::DatasetStream;
use spechd_ms::{Spectrum, SpectrumDataset};
use spechd_preprocess::bucket_stats;
use std::time::Instant;

/// Spectra per repetition, sized so one repetition takes ≈ 0.5 s.
const NUM_SPECTRA: usize = 1_250;
/// Highest incorrect-clustering ratio at which the throughput still counts.
const MAX_INCORRECT_RATIO: f64 = 0.05;

pub struct BatchMgf;

pub struct Input {
    seed: u64,
    /// The generator's dataset at the precision MGF keeps (5 decimals of
    /// m/z, 3 of intensity): what the file really says, with the truth
    /// labels.
    reference: SpectrumDataset,
    /// `reference` as MGF text — the only thing a repetition reads.
    mgf: Vec<u8>,
}

pub struct Output {
    labels: Vec<usize>,
    kept: Vec<usize>,
    eval: ClusteringEval,
}

impl Workload for BatchMgf {
    type Input = Input;
    type State = SpecHd;
    type Output = Output;

    const NAME: &'static str = "batch_mgf";
    const SPECTRA_PER_REP: usize = NUM_SPECTRA;

    fn generate(seed: u64) -> Input {
        let original = synthetic_spectra(NUM_SPECTRA, seed);
        let rounded = mgf::read(mgf::to_string(original.spectra()).as_bytes())
            .expect("the writer's output parses");
        assert_eq!(rounded.len(), original.len(), "MGF round trip lost spectra");
        let mgf = mgf::to_string(&rounded).into_bytes();
        Input {
            seed,
            reference: SpectrumDataset::from_parts(rounded, original.labels().to_vec()),
            mgf,
        }
    }

    fn setup(_input: &Input, tracer: &mut Tracer) -> SpecHd {
        let config = SpecHdConfig::builder().threads(1).build();
        tracer
            .time("hdc.item_memory_init", || SpecHd::try_new(config))
            .expect("default configuration is valid")
    }

    fn repetition(input: &Input, engine: &mut SpecHd) -> Output {
        let spectra = mgf::read(input.mgf.as_slice()).expect("generated MGF parses");
        let outcome = engine.run(&SpectrumDataset::from_spectra(spectra));
        Output {
            eval: outcome.evaluate(&input.reference),
            labels: outcome.assignment().labels().to_vec(),
            kept: outcome.kept().to_vec(),
        }
    }

    fn check(input: &Input, engine: &mut SpecHd, outputs: &[Output]) -> Checks {
        let mut checks = Checks::default();
        let parsed = mgf::read(input.mgf.as_slice()).expect("generated MGF parses");
        // The generator's dataset, never serialised.
        let original = synthetic_spectra(NUM_SPECTRA, input.seed);
        checks.record(
            parsed.len() == original.len()
                && parsed
                    .iter()
                    .zip(original.spectra())
                    .all(|(p, o)| same_spectrum(p, o)),
            || "parsed MGF differs from the never-serialised spectra beyond MGF precision".into(),
        );
        // The in-memory path: same values, never through the parser.
        let expected = engine.run(&input.reference);
        for (rep, out) in outputs.iter().enumerate() {
            checks.record(
                out.labels == expected.assignment().labels()
                    && out.kept == expected.kept()
                    && out.eval.incorrect_ratio <= MAX_INCORRECT_RATIO,
                || {
                    format!(
                        "rep {rep}: labels differ from SpecHd::run on the in-memory dataset, \
                         or incorrect_ratio {} > {MAX_INCORRECT_RATIO}",
                        out.eval.incorrect_ratio
                    )
                },
            );
        }
        checks
    }

    fn trace(
        input: &Input,
        engine: &mut SpecHd,
        tracer: &mut Tracer,
        reps: usize,
        layers: &mut LayerMetrics,
    ) -> Vec<f64> {
        let config = engine.config().clone();
        let mut walls = Vec::with_capacity(reps);
        let mut last = None;
        for rep in 1..=reps {
            tracer.set_rep(rep as u32);
            let t = Instant::now();
            let twin = tracer.enter("core.run_twin");
            let spectra = tracer.time("ms.mgf_parse", || mgf::read(input.mgf.as_slice()).unwrap());
            let dataset = SpectrumDataset::from_spectra(spectra);
            let pre = tracer.time("preprocess.run", || engine.preprocess().run(&dataset));
            let pack = tracer.time("hdc.encode", || engine.encode_dataset_packed(&pre.dataset));
            let buckets = tracer.time("preprocess.bucketize", || {
                engine.bucketer().bucketize(pre.dataset.spectra())
            });
            let (assignment, consensus, work) = cluster_staged(
                tracer,
                &buckets,
                &pack,
                config.linkage,
                config.distance_threshold_bits(),
            );
            let eval = tracer.time("metrics.evaluate", || {
                evaluate(assignment.labels(), &pre.kept, &input.reference)
            });
            tracer.exit(twin);
            walls.push(t.elapsed().as_secs_f64());
            last = Some((
                pre.stats,
                pre.kept,
                bucket_stats(&buckets),
                assignment,
                consensus,
                work,
                eval,
            ));
        }
        let (pre_stats, kept, bstats, assignment, consensus, work, eval) =
            last.expect("at least one traced repetition");

        // The real pipeline, for attribution: the twin must produce its
        // labels, and its stages must add up to its time.
        let dataset = SpectrumDataset::from_spectra(mgf::read(input.mgf.as_slice()).unwrap());
        let mut run_s = Vec::new();
        let mut outcome = None;
        for _ in 0..3 {
            let t = Instant::now();
            outcome = Some(engine.run(&dataset));
            run_s.push(t.elapsed().as_secs_f64());
        }
        let outcome = outcome.expect("ran three times");
        let run_s = fastest(&run_s);
        assert_eq!(
            assignment.labels(),
            outcome.assignment().labels(),
            "staged twin labels"
        );
        let consensus_original: Vec<usize> = consensus.iter().map(|&i| kept[i]).collect();
        assert_eq!(
            consensus_original,
            outcome.consensus(),
            "staged twin consensus"
        );

        let t = Instant::now();
        let streamed = engine.run_streaming(
            DatasetStream::new(&dataset),
            &StreamConfig {
                workers: 1,
                ..StreamConfig::default()
            },
        );
        let stream_s = t.elapsed().as_secs_f64();
        assert_eq!(
            streamed.outcome.assignment(),
            outcome.assignment(),
            "streaming labels"
        );

        let rep_wall_s = fastest(&walls);
        let parse_s = tracer.rep_total_s("ms.mgf_parse");
        let encode_s = tracer.rep_total_s("hdc.encode");
        let staged_s: f64 = ["preprocess.run", "hdc.encode", "preprocess.bucketize"]
            .iter()
            .chain(&CLUSTER_STAGES)
            .map(|stage| tracer.rep_total_s(stage))
            .sum();
        layers.insert("ms.mgf_parse_s", parse_s);
        layers.insert(
            "ms.mgf_parse_mb_per_s",
            input.mgf.len() as f64 / 1e6 / parse_s,
        );
        layers.insert("preprocess.run_s", tracer.rep_total_s("preprocess.run"));
        layers.insert(
            "preprocess.kept_ratio",
            pre_stats.spectra_out as f64 / pre_stats.spectra_in as f64,
        );
        layers.insert(
            "preprocess.bucketize_s",
            tracer.rep_total_s("preprocess.bucketize"),
        );
        layers.insert("preprocess.bucket_max", bstats.max_size as f64);
        layers.insert("preprocess.bucket_mean", bstats.mean_size);
        layers.insert(
            "hdc.item_memory_init_s",
            tracer.total_s("hdc.item_memory_init", 0),
        );
        layers.insert(
            "hdc.item_memory_mb",
            engine.encoder().item_memory_bytes() as f64 / (1u64 << 20) as f64,
        );
        layers.insert("hdc.encode_s", encode_s);
        layers.insert(
            "hdc.encode_ns_per_peak",
            encode_s * 1e9 / pre_stats.peaks_out as f64,
        );
        layers.insert("hdc.encode_peaks", pre_stats.peaks_out as f64);
        layers.insert("hdc.encode_share", encode_s / rep_wall_s);
        let popcnt_gops = reference::popcount_gops();
        layers.insert("ref.popcnt_gops", popcnt_gops);
        cluster_layer_metrics(tracer, &work, rep_wall_s, popcnt_gops, layers);
        layers.insert("core.run_s", run_s);
        layers.insert("core.run_unattributed_ratio", 1.0 - staged_s / run_s);
        layers.insert("core.stream_twin_ratio", stream_s / run_s);
        layers.insert("metrics.clustered_ratio", eval.clustered_ratio);
        layers.insert("metrics.incorrect_ratio", eval.incorrect_ratio);
        fpga_layer_metrics(
            engine,
            &pre_stats,
            bstats.mean_size,
            input.mgf.len(),
            run_s,
            layers,
        );
        walls
    }
}

/// The paper's design point for the same workload shape, beside the host.
fn fpga_layer_metrics(
    engine: &SpecHd,
    pre: &spechd_preprocess::PreprocessStats,
    mean_bucket_size: f64,
    raw_bytes: usize,
    host_s: f64,
    layers: &mut LayerMetrics,
) {
    let model = engine.estimate_fpga_timeline(&WorkloadShape {
        num_spectra: pre.spectra_out as u64,
        raw_bytes: raw_bytes as u64,
        peaks_per_spectrum: pre.peaks_out as f64 / pre.spectra_out as f64,
        mean_bucket_size,
        dim: super::DIM,
    });
    layers.insert("fpga.model_total_s", model.total_s);
    layers.insert("fpga.host_over_model", host_s / model.total_s);
}

/// `SpecHdOutcome::evaluate` for the staged twin, which has no outcome
/// object: discarded spectra count as singletons.
fn evaluate(labels: &[usize], kept: &[usize], truth: &SpectrumDataset) -> ClusteringEval {
    let mut full = vec![usize::MAX; truth.len()];
    for (&label, &original) in labels.iter().zip(kept) {
        full[original] = label;
    }
    let fresh = labels.iter().max().map_or(0, |m| m + 1)..;
    let discarded = full.iter_mut().filter(|slot| **slot == usize::MAX);
    for (slot, singleton) in discarded.zip(fresh) {
        *slot = singleton;
    }
    ClusteringEval::compute(&full, truth.labels())
}

/// Equality up to what MGF text keeps: 6 decimals of precursor m/z, 5 of
/// fragment m/z, 3 of intensity.
fn same_spectrum(parsed: &Spectrum, original: &Spectrum) -> bool {
    parsed.title() == original.title()
        && parsed.precursor().charge() == original.precursor().charge()
        && (parsed.precursor().mz() - original.precursor().mz()).abs() <= 0.51e-6
        && parsed.peak_count() == original.peak_count()
        && parsed.peaks().iter().zip(original.peaks()).all(|(p, o)| {
            (p.mz - o.mz).abs() <= 0.51e-5
                && f64::from((p.intensity - o.intensity).abs())
                    <= 0.51e-3 + 1e-6 * f64::from(o.intensity)
        })
}
