//! The benchmark's names: workloads, end-to-end metrics, per-layer metrics.
//!
//! `../BENCHMARK.json` states the same tables for the driver; the contract
//! test at the bottom keeps the two identical. README.md says, for every
//! per-layer metric, which end-to-end metric it should move on which
//! workload.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline's median by which
    /// the metric may worsen before `compare` says `worse`.
    pub bound: f64,
}

/// Seconds of timed repetitions one gated run makes (`run_seconds`).
pub const RUN_SECONDS: u64 = 16;

/// Wall seconds one repetition is sized to on the reference machine; a run
/// asked to measure for `--seconds s` makes `s ÷ REP_TARGET_S` repetitions.
pub const REP_TARGET_S: f64 = 0.5;

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "batch_mgf",
        why: "Raw MGF bytes to evaluated clusters (paper Fig. 7): ~97% hdc encoding, so an encoder, parser or preprocess change shows here and a distance or linkage change must not.",
    },
    WorkloadSpec {
        name: "cluster_dense",
        why: "Standalone clustering of pre-encoded vectors in 1600-row buckets (paper Fig. 8): distance matrix + NN-chain and no encoding, the mirror image of batch_mgf.",
    },
    WorkloadSpec {
        name: "search_open",
        why: "Wide-window search: one long popcount sweep of 4094 rows per query over an L2-sized library, so it moves with the sweep kernel and not with the host's memory; a query-tiled sweep must show here.",
    },
    WorkloadSpec {
        name: "served_search_std",
        why: "Default-window (7-row) queries through the TCP service, one closed-loop client: codec, session, syscalls and the engine's per-query worker threads; a sweep-kernel change must not show.",
    },
    WorkloadSpec {
        name: "served_incremental",
        why: "Small installments into a persistent archive through store sessions: encode, one_to_many medoid scoring, SHPK load and atomic save, spectrum codec on the wire.",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

/// The same four on every workload. A bound is one number for all five
/// workloads, so the noisiest workload sets it: three times the widest
/// inter-quartile spread measured over ten runs on the reference machine
/// (README.md, "How the bounds were derived"), never below ISSUE 13's floor
/// and capped at the 25 % the benchmark contract allows. On that machine the
/// three time metrics sit at the cap; ISSUE 13 asked for 10 / 5 / 5 / 5 %,
/// which it cannot hold (README.md, "Repeatability").
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("spectra_per_s", "spectra/s", Better::Higher, 0.25),
    e2e("cpu_s_per_kspectra", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.1),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics of the traced run. Every traced run prints all of
/// them; one a workload does not exercise reads 0 there.
pub const PER_LAYER: [MetricSpec; 81] = [
    layer("ms.mgf_parse_s", "s", Lower),
    layer("ms.mgf_parse_mb_per_s", "MB/s", Higher),
    layer("preprocess.run_s", "s", Lower),
    layer("preprocess.kept_ratio", "ratio", Higher),
    layer("preprocess.bucketize_s", "s", Lower),
    layer("preprocess.bucket_max", "count", Lower),
    layer("preprocess.bucket_mean", "count", Lower),
    layer("hdc.item_memory_init_s", "s", Lower),
    layer("hdc.item_memory_mb", "MiB", Lower),
    layer("hdc.encode_s", "s", Lower),
    layer("hdc.encode_ns_per_peak", "ns", Lower),
    layer("hdc.encode_peaks", "count", Lower),
    layer("hdc.encode_share", "ratio", Lower),
    layer("hdc.gather_s", "s", Lower),
    layer("hdc.pairwise_s", "s", Lower),
    layer("hdc.pairwise_pairs", "count", Lower),
    layer("hdc.pairwise_gpairs_per_s", "Gpairs/s", Higher),
    layer("hdc.pairwise_gbps_computed", "GB/s", Higher),
    layer("hdc.pairwise_popcnt_ratio", "ratio", Higher),
    layer("hdc.sweep_s", "s", Lower),
    layer("hdc.sweep_rows", "count", Lower),
    layer("hdc.sweep_ns_per_row", "ns", Lower),
    layer("hdc.sweep_gbps_computed", "GB/s", Higher),
    layer("hdc.sweep_membw_ratio", "ratio", Higher),
    layer("hdc.one_to_many_medoid_s", "s", Lower),
    layer("cluster.from_u16_s", "s", Lower),
    layer("cluster.matrix_mb", "MiB", Lower),
    layer("cluster.nnchain_s", "s", Lower),
    layer("cluster.nnchain_comparisons", "count", Lower),
    layer("cluster.nnchain_ns_per_comparison", "ns", Lower),
    layer("cluster.nnchain_share", "ratio", Lower),
    layer("cluster.cut_s", "s", Lower),
    layer("cluster.medoid_s", "s", Lower),
    layer("cluster.merge_s", "s", Lower),
    layer("core.run_s", "s", Lower),
    layer("core.run_unattributed_ratio", "ratio", Lower),
    layer("core.cluster_t2_speedup", "ratio", Higher),
    layer("core.stream_twin_ratio", "ratio", Lower),
    layer("core.incremental_ms_p50", "ms", Lower),
    layer("core.absorbed_ratio", "ratio", Higher),
    layer("core.refresh_s", "s", Lower),
    layer("metrics.clustered_ratio", "ratio", Higher),
    layer("metrics.incorrect_ratio", "ratio", Lower),
    layer("metrics.search_top1_recall", "ratio", Higher),
    layer("search.library_build_s", "s", Lower),
    layer("search.open_ms_per_query_p50", "ms", Lower),
    layer("search.open_ms_per_query_p95", "ms", Lower),
    layer("search.window_rows_mean", "count", Lower),
    layer("search.topk_share", "ratio", Lower),
    layer("search.std_us_per_query", "us", Lower),
    layer("search.window_lookup_ns", "ns", Lower),
    layer("search.fdr_s", "s", Lower),
    layer("search.open_t2_speedup", "ratio", Higher),
    layer("store.load_ms_p50", "ms", Lower),
    layer("store.save_ms_p50", "ms", Lower),
    layer("store.save_mb_per_s", "MB/s", Higher),
    layer("store.to_bytes_ms", "ms", Lower),
    layer("store.from_bytes_ms", "ms", Lower),
    layer("store.file_mb", "MiB", Lower),
    layer("store.bytes_per_spectrum", "B", Lower),
    layer("store.share", "ratio", Lower),
    layer("server.connect_ms", "ms", Lower),
    layer("server.load_library_mb_per_s", "MB/s", Higher),
    layer("server.search_rtt_p50_us", "us", Lower),
    layer("server.search_rtt_p95_us", "us", Lower),
    layer("server.search_rtt_one_row_p50_us", "us", Lower),
    layer("server.wire_bytes_per_query", "B", Lower),
    layer("server.codec_encode_us_per_block", "us", Lower),
    layer("server.codec_decode_us_per_block", "us", Lower),
    layer("server.overhead_ratio_search", "ratio", Lower),
    layer("server.open_store_ms_p50", "ms", Lower),
    layer("server.submit_incremental_ms_p50", "ms", Lower),
    layer("server.persist_ms_p50", "ms", Lower),
    layer("server.overhead_ratio_incremental", "ratio", Lower),
    layer("server.threads_peak", "count", Lower),
    layer("fpga.model_total_s", "s", Lower),
    layer("fpga.host_over_model", "ratio", Lower),
    layer("bench.gen_s", "s", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("ref.membw_gbps", "GB/s", Higher),
    layer("ref.popcnt_gops", "Gops/s", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use std::collections::BTreeSet;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn keys_of(value: &Value) -> Vec<&str> {
        match value {
            Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object: {value:?}"),
        }
    }

    fn str_of<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing"))
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_unit(m.unit), "bad unit {:?} of {}", m.unit, m.name);
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound {}",
                m.name,
                m.bound
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// Every workload and metric the binary prints is in BENCHMARK.json with
    /// the same unit, direction and bound — and nothing else is.
    #[test]
    fn benchmark_json_states_exactly_these_tables() {
        let doc = benchmark_json();
        assert_eq!(
            keys_of(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(RUN_SECONDS as f64)
        );
        assert_eq!(
            doc.get("paths").unwrap().as_arr().unwrap(),
            [Value::from("benchmark")]
        );

        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(keys_of(entry), ["name", "why"]);
            assert_eq!(str_of(entry, "name"), spec.name);
            assert_eq!(str_of(entry, "why"), spec.why);
        }

        let end_to_end = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, spec) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(keys_of(entry), ["name", "unit", "better", "bound"]);
            assert_eq!(str_of(entry, "name"), spec.name);
            assert_eq!(str_of(entry, "unit"), spec.unit);
            assert_eq!(str_of(entry, "better"), spec.better.as_str());
            assert_eq!(entry.get("bound").unwrap().as_f64(), Some(spec.bound));
        }

        let per_layer = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, spec) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(keys_of(entry), ["name", "unit", "better"]);
            assert_eq!(str_of(entry, "name"), spec.name);
            assert_eq!(str_of(entry, "unit"), spec.unit);
            assert_eq!(str_of(entry, "better"), spec.better.as_str());
        }
    }
}
