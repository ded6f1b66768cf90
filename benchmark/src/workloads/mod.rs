//! The five workloads and the two ways a workload is run: *gated* (no
//! tracing; gives the end-to-end metrics) and *traced* (spans around every
//! public call; gives the per-layer metrics).

pub mod batch_mgf;
pub mod cluster_dense;
pub mod search_open;
pub mod served_incremental;
pub mod served_search_std;
mod staged;

use crate::json::{obj, Value};
use crate::proc::{cpu_seconds, machine_descriptor, peak_rss_mib};
use crate::reference;
use crate::spec::{END_TO_END, PER_LAYER, REP_TARGET_S};
use crate::stats::{fastest, highest_supported_percentile, median, percentile};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Hypervector dimensionality of every workload — the paper's `D`.
pub const DIM: usize = 2048;
/// `u64` words per packed row at [`DIM`].
pub const STRIDE: usize = DIM / 64;

/// Everything the benchmark writes goes here, inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new("benchmark").join("out")
}

/// Checked operations of a run. A repetition, query, block or session whose
/// output is wrong counts as failed, the same as one that returned an error.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one operation; `ok == false` also says why on stderr.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.record_many(1, u64::from(!ok), what);
    }

    /// Records `attempted` operations of which `failed` failed, saying why
    /// once for all of them.
    pub fn record_many(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("[check failed] {}", what());
        }
    }
}

/// Per-layer metric values of one traced run, by name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// One benchmark workload. A run is: [`Workload::generate`] (untimed) →
/// [`Workload::setup`] and [`WARMUP_REPS`] warm-up repetitions (together
/// `setup_s`) → timed repetitions of fixed work → [`Workload::check`].
pub trait Workload {
    /// Seeded inputs; the program under test sees nothing else of the seed.
    type Input;
    /// What set-up builds: engines, libraries, a running server, clients.
    type State;
    /// What one repetition produced, kept for the output check.
    type Output;

    const NAME: &'static str;
    /// Input spectra (clustering) or query spectra (search) per repetition.
    const SPECTRA_PER_REP: usize;

    fn generate(seed: u64) -> Self::Input;
    /// Set-up, with a span around each call (a gated run drops them).
    fn setup(input: &Self::Input, tracer: &mut Tracer) -> Self::State;
    /// The fixed work of one repetition.
    fn repetition(input: &Self::Input, state: &mut Self::State) -> Self::Output;
    /// Checks the repetitions' outputs (warm-ups first) against references
    /// computed here by an independent path.
    fn check(input: &Self::Input, state: &mut Self::State, outputs: &[Self::Output]) -> Checks;
    /// `reps` traced repetitions plus this workload's layer measurements.
    /// Returns the wall seconds of each traced repetition.
    fn trace(
        input: &Self::Input,
        state: &mut Self::State,
        tracer: &mut Tracer,
        reps: usize,
        layers: &mut LayerMetrics,
    ) -> Vec<f64>;
    /// Stops whatever set-up started (servers, store directories).
    fn teardown(_state: Self::State) {}
}

/// What one child process reports on its last line of standard output.
pub struct RunReport {
    pub checks: Checks,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunReport {
    pub fn to_json(&self) -> Value {
        obj([
            ("correct", Value::from(self.checks.failed == 0)),
            ("attempted", Value::from(self.checks.attempted)),
            ("failed", Value::from(self.checks.failed)),
            (
                "metrics",
                obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        obj([("value", Value::from(value)), ("unit", Value::from(unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Untimed warm-up repetitions after set-up: ≈ 2.5 s, so that `setup_s` is
/// never below 2 s (PR 12's sub-100 ms set-ups moved by 4–60 %) and the
/// timed repetitions start on warm caches, a grown heap and established
/// connections.
pub const WARMUP_REPS: usize = 5;

/// Timed repetitions of a run asked to measure for `seconds`: the count is
/// a function of the argument alone, never of how the run is going.
pub fn planned_reps(seconds: f64) -> usize {
    ((seconds / REP_TARGET_S).round() as usize).max(1)
}

/// A gated run: the four end-to-end metrics, tracing off.
pub fn run_gated<W: Workload>(seed: u64, seconds: f64) -> RunReport {
    let reps = planned_reps(seconds);
    let t_gen = Instant::now();
    let input = W::generate(seed);
    let gen_s = t_gen.elapsed().as_secs_f64();

    let t_setup = Instant::now();
    let mut state = W::setup(&input, &mut Tracer::new());
    let mut outputs: Vec<W::Output> = (0..WARMUP_REPS)
        .map(|_| W::repetition(&input, &mut state))
        .collect();
    let setup_s = t_setup.elapsed().as_secs_f64();

    // Wall and CPU seconds of every timed repetition. CPU is user + system
    // time of every thread of the process: client, in-process server and
    // the workers it starts alike.
    let (mut walls, mut cpus) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        let (t, cpu_before) = (Instant::now(), cpu_seconds());
        outputs.push(W::repetition(&input, &mut state));
        walls.push(t.elapsed().as_secs_f64());
        cpus.push(cpu_seconds() - cpu_before);
    }
    // Read before the output check, whose reference paths allocate too.
    let peak_rss_mb = peak_rss_mib();

    let checks = W::check(&input, &mut state, &outputs);
    W::teardown(state);

    let spectra = W::SPECTRA_PER_REP as f64;
    eprintln!(
        "[{}] seed={seed} gen_s={gen_s:.3} setup_s={setup_s:.3} rep_s={walls:.4?} rep_cpu_s={cpus:.4?}",
        W::NAME,
    );
    // Other tenants of the host only ever add time to fixed work, so the
    // fastest repetition — and the one that used the least CPU — is the
    // steadiest estimate of what the code does (README.md, "Repeatability").
    let value_of = |name: &str| match name {
        "setup_s" => setup_s,
        "spectra_per_s" => spectra / fastest(&walls),
        "cpu_s_per_kspectra" => fastest(&cpus) / (spectra / 1e3),
        "peak_rss_mb" => peak_rss_mb,
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    RunReport {
        checks,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, value_of(m.name), m.unit))
            .collect(),
    }
}

/// Untraced repetitions a traced run makes first, as the base of
/// `bench.trace_overhead_ratio`.
const OVERHEAD_BASE_REPS: usize = 4;

/// Repetitions a traced run traces. Most of its time goes to the untraced
/// base repetitions, library twins and one-off layer measurements.
const TRACED_REPS: usize = 6;

/// A traced run: every per-layer metric, and the span dump in
/// `benchmark/out/trace-<workload>.json`. Its timings are never used as
/// end-to-end numbers.
pub fn run_traced<W: Workload>(seed: u64) -> RunReport {
    let t_gen = Instant::now();
    let input = W::generate(seed);
    let gen_s = t_gen.elapsed().as_secs_f64();

    let mut tracer = Tracer::new();
    let mut state = W::setup(&input, &mut tracer);
    let mut outputs = vec![W::repetition(&input, &mut state)];
    let mut untraced = Vec::new();
    for _ in 0..OVERHEAD_BASE_REPS {
        let t = Instant::now();
        outputs.push(W::repetition(&input, &mut state));
        untraced.push(t.elapsed().as_secs_f64());
    }

    let mut layers = LayerMetrics::new();
    let traced = W::trace(&input, &mut state, &mut tracer, TRACED_REPS, &mut layers);
    let checks = W::check(&input, &mut state, &outputs);
    W::teardown(state);

    layers.insert("bench.gen_s", gen_s);
    layers.insert(
        "bench.trace_overhead_ratio",
        fastest(&traced) / fastest(&untraced) - 1.0,
    );
    // Workloads that compare against a ceiling measured it themselves.
    layers
        .entry("ref.membw_gbps")
        .or_insert_with(reference::memory_bandwidth_gbps);
    layers
        .entry("ref.popcnt_gops")
        .or_insert_with(reference::popcount_gops);

    let dump = obj([
        ("workload", Value::from(W::NAME)),
        ("seed", Value::from(seed)),
        ("machine", machine_descriptor(&out_dir())),
        ("spans", tracer.to_json()),
    ]);
    let path = out_dir().join(format!("trace-{}.json", W::NAME));
    std::fs::create_dir_all(out_dir()).expect("create benchmark/out");
    std::fs::write(&path, dump.to_json()).expect("write span dump");
    eprintln!(
        "[{}] seed={seed} untraced_rep_s={untraced:.3?} traced_rep_s={traced:.3?} {} spans -> {}",
        W::NAME,
        tracer.spans().len(),
        path.display()
    );
    eprint!("{}", span_summary(&tracer));

    for name in layers.keys() {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not a per-layer metric of spec.rs"
        );
    }
    RunReport {
        checks,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, layers.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect(),
    }
}

/// One line per span name: calls and seconds per repetition (total and
/// self), and the call latency at the median and at the highest percentile
/// the sample supports.
fn span_summary(tracer: &Tracer) -> String {
    let mut names: Vec<&str> = Vec::new();
    for span in tracer.spans() {
        if span.rep > 0 && !names.contains(&span.name) {
            names.push(span.name);
        }
    }
    let mut out = format!(
        "  {:<28} {:>9} {:>11} {:>11} {:>11}  tail\n",
        "span", "calls/rep", "total_s/rep", "self_s/rep", "p50_ms"
    );
    for name in names {
        let calls = tracer.durations_s(name);
        let tail = highest_supported_percentile(calls.len())
            .filter(|&p| p > 0.5)
            .map(|p| format!("p{} {:.3} ms", p * 100.0, percentile(&calls, p) * 1e3))
            .unwrap_or_default();
        out += &format!(
            "  {name:<28} {:>9} {:>11.6} {:>11.6} {:>11.3}  {tail}\n",
            calls.len() / tracer.reps_with(name).len(),
            tracer.rep_total_s(name),
            tracer.rep_self_s(name),
            median(&calls) * 1e3,
        );
    }
    out
}

/// Runs workload `name` gated or traced; `None` for an unknown name.
pub fn dispatch(name: &str, seed: u64, seconds: f64, traced: bool) -> Option<RunReport> {
    fn go<W: Workload>(seed: u64, seconds: f64, traced: bool) -> RunReport {
        if traced {
            run_traced::<W>(seed)
        } else {
            run_gated::<W>(seed, seconds)
        }
    }
    Some(match name {
        batch_mgf::BatchMgf::NAME => go::<batch_mgf::BatchMgf>(seed, seconds, traced),
        cluster_dense::ClusterDense::NAME => {
            go::<cluster_dense::ClusterDense>(seed, seconds, traced)
        }
        search_open::SearchOpen::NAME => go::<search_open::SearchOpen>(seed, seconds, traced),
        served_search_std::ServedSearchStd::NAME => {
            go::<served_search_std::ServedSearchStd>(seed, seconds, traced)
        }
        served_incremental::ServedIncremental::NAME => {
            go::<served_incremental::ServedIncremental>(seed, seconds, traced)
        }
        _ => return None,
    })
}

/// Seeded synthetic spectra, five per peptide on average. Every peptide has
/// the same length, so that the peaks to encode — and with them the work of
/// a repetition — are the same from seed to seed within a percent (with the
/// generator's default 8–22 residues and its Zipf abundances, a few head
/// peptides set the peak count and it moved by 14 % between seeds).
pub fn synthetic_spectra(num_spectra: usize, seed: u64) -> spechd_ms::SpectrumDataset {
    use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
    SyntheticGenerator::new(SyntheticConfig {
        num_spectra,
        num_peptides: num_spectra / 5,
        peptide_len_range: (15, 15),
        seed,
        ..SyntheticConfig::default()
    })
    .generate()
}

/// FNV-1a over `u64` words — the digest repetitions keep of bulky outputs
/// so that the output check can compare every one of them.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn report_line_has_exactly_the_contract_keys() {
        let report = RunReport {
            checks: Checks {
                attempted: 9,
                failed: 0,
            },
            metrics: vec![
                ("setup_s", 2.75, "s"),
                ("spectra_per_s", 3000.5, "spectra/s"),
            ],
        };
        let line = report.to_json().to_json();
        assert!(!line.contains('\n'));
        let doc = parse(&line).unwrap();
        let Value::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(2.75));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut checks = Checks::default();
        checks.record(true, || unreachable!());
        checks.record(false, || "expected".to_string());
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        let report = RunReport {
            checks,
            metrics: Vec::new(),
        };
        assert_eq!(report.to_json().get("correct"), Some(&Value::Bool(false)));
    }

    #[test]
    fn seconds_become_a_repetition_count() {
        assert_eq!(planned_reps(crate::spec::RUN_SECONDS as f64), 32);
        assert_eq!(planned_reps(1.0), 2);
        assert_eq!(planned_reps(0.1), 1);
    }

    #[test]
    fn dispatch_knows_exactly_the_spec_workloads() {
        assert!(dispatch("no_such_workload", 1, 1.0, false).is_none());
        let names = [
            batch_mgf::BatchMgf::NAME,
            cluster_dense::ClusterDense::NAME,
            search_open::SearchOpen::NAME,
            served_search_std::ServedSearchStd::NAME,
            served_incremental::ServedIncremental::NAME,
        ];
        let spec: Vec<&str> = crate::spec::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names.as_slice(), spec.as_slice());
    }
}
