//! The paper's tables and figures, regenerated.
//!
//! One private `*_rows` function per table/figure of the paper computes
//! the corresponding rows, and one `print_*` function owns its title,
//! header and dataset; each `src/bin/*` binary is that one call and the
//! `tables` bench target makes all ten in paper order.
//!
//! | Paper artifact | Rows | Printer | Binary |
//! |---|---|---|---|
//! | Table I | `table1_rows` | [`print_table1`] | `table1_preprocessing` |
//! | Fig. 2 | `fig2_rows` | [`print_fig2`] | `fig2_nnchain_vs_naive` |
//! | Fig. 6a | `fig6a_rows` | [`print_fig6a`] | `fig6_linkage` |
//! | Fig. 6b | `fig6b_rows` | [`print_fig6b`] | `fig6_compression` |
//! | Fig. 7 | `fig7_rows` | [`print_fig7`] | `fig7_speedup` |
//! | Fig. 8 | `fig8_rows` | [`print_fig8`] | `fig8_standalone` |
//! | Fig. 9 | `fig9_rows` | [`print_fig9`] | `fig9_energy` |
//! | Fig. 10 | `fig10_rows` | [`print_fig10`] | `fig10_quality` |
//! | Fig. 11 | [`fig11_overlap`] | [`print_fig11`] | `fig11_overlap` |
//! | DSE (§I) | `dse_rows` | [`print_dse`] | `dse_sweep` |

#![forbid(unsafe_code)]

use spechd_baselines::perf::ToolPerfModel;
use spechd_baselines::{
    ClusteringTool, Falcon, Gleams, GreedyCascade, HyperSpecDbscan, HyperSpecHac, MaRaCluster,
    MsCrush,
};
use spechd_cluster::{naive_hac, nn_chain, ClusterAssignment, CondensedMatrix, Linkage};
use spechd_core::{ClusteringEval, SpecHd, SpecHdConfig};
use spechd_fpga::{MsasModel, SystemConfig, SystemModel, WorkloadShape};
use spechd_ms::profiles::TABLE1;
use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
use spechd_ms::SpectrumDataset;
use spechd_rng::{Rng, Xoshiro256StarStar};
use spechd_search::{filter_at_fdr, overlap, PeptideDatabase, SearchConfig, SearchEngine};

/// The *hard* labelled dataset (confusable peptide families, heavy noise)
/// used by the Fig. 6a/10/11 quality-curve experiments — the regime where
/// the tools actually separate, mirroring real PRIDE data.
pub fn hard_dataset(num_spectra: usize, seed: u64) -> (SyntheticGenerator, SpectrumDataset) {
    let generator = SyntheticGenerator::new(SyntheticConfig::hard(num_spectra, seed));
    let dataset = generator.generate();
    (generator, dataset)
}

/// Prints a fixed-width table.
fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Table I: preprocessing time and energy, paper vs model.
fn table1_rows() -> Vec<Vec<String>> {
    let msas = MsasModel::default();
    TABLE1
        .iter()
        .map(|p| {
            let t = msas.preprocess_time(p.bytes);
            let e = msas.preprocess_energy(p.bytes);
            vec![
                p.pride_id.to_string(),
                p.sample_type.to_string(),
                format!("{:.1}M", p.num_spectra as f64 / 1e6),
                format!("{:.1} GB", p.gigabytes()),
                format!("{:.2}", p.paper_pp_time_s),
                format!("{t:.2}"),
                format!("{:.1}", p.paper_pp_energy_j),
                format!("{e:.1}"),
            ]
        })
        .collect()
}

/// Fig. 2: naive vs NN-chain HAC — measured runtime and comparison counts
/// at several problem sizes.
fn fig2_rows(sizes: &[usize]) -> Vec<Vec<String>> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(2);
    sizes
        .iter()
        .map(|&n| {
            let m = CondensedMatrix::from_fn(n, |_, _| rng.range_f64(1.0, 1000.0));
            let t0 = std::time::Instant::now();
            let naive = naive_hac(&m, Linkage::Complete);
            let naive_s = t0.elapsed().as_secs_f64();
            let t1 = std::time::Instant::now();
            let chain = nn_chain(&m, Linkage::Complete);
            let chain_s = t1.elapsed().as_secs_f64();
            vec![
                n.to_string(),
                format!("{:.1}", naive.stats.comparisons as f64 / 1e6),
                format!("{:.1}", chain.stats.comparisons as f64 / 1e6),
                format!("{naive_s:.4}"),
                format!("{chain_s:.4}"),
                format!("{:.1}x", naive_s / chain_s.max(1e-12)),
            ]
        })
        .collect()
}

/// Fig. 6a: per-linkage clustered ratio and completeness at ≈1% ICR.
/// The threshold is tuned per linkage exactly as the paper tunes each
/// tool ("we fixed an incorrect clustering ratio at 1%").
fn fig6a_rows(dataset: &SpectrumDataset, icr_cap: f64) -> Vec<Vec<String>> {
    Linkage::ALL
        .iter()
        .map(|&linkage| {
            let (threshold, eval) = tune_spechd_threshold(dataset, linkage, icr_cap);
            vec![
                linkage.to_string(),
                format!("{threshold:.2}"),
                format!("{:.1}", eval.clustered_ratio * 100.0),
                format!("{:.2}", eval.incorrect_ratio * 100.0),
                format!("{:.3}", eval.completeness),
            ]
        })
        .collect()
}

/// Finds the loosest SpecHD threshold whose ICR stays below `icr_cap`,
/// returning it with the evaluation at that point.
pub fn tune_spechd_threshold(
    dataset: &SpectrumDataset,
    linkage: Linkage,
    icr_cap: f64,
) -> (f64, ClusteringEval) {
    let mut best: Option<(f64, ClusteringEval)> = None;
    for step in 4..=22 {
        let threshold = step as f64 * 0.02;
        let config = SpecHdConfig::builder()
            .linkage(linkage)
            .distance_threshold_fraction(threshold)
            .build();
        let outcome = SpecHd::new(config).run(dataset);
        let eval = outcome.evaluate(dataset);
        if eval.incorrect_ratio <= icr_cap {
            let better = best
                .as_ref()
                .map_or(true, |(_, b)| eval.clustered_ratio > b.clustered_ratio);
            if better {
                best = Some((threshold, eval));
            }
        }
    }
    best.unwrap_or_else(|| {
        let outcome = SpecHd::new(SpecHdConfig::default()).run(dataset);
        let eval = outcome.evaluate(dataset);
        (SpecHdConfig::default().distance_threshold_fraction, eval)
    })
}

/// Fig. 6b: hypervector compression factor per dataset at D=2048.
fn fig6b_rows() -> Vec<Vec<String>> {
    TABLE1
        .iter()
        .map(|p| {
            vec![
                p.pride_id.to_string(),
                format!("{:.1} GB", p.gigabytes()),
                format!("{:.2} GB", p.num_spectra as f64 * 256.0 / 1e9),
                format!("{:.0}x", p.compression_factor(2048)),
            ]
        })
        .collect()
}

/// Fig. 7: end-to-end runtime and speedup over SpecHD for every tool and
/// dataset.
fn fig7_rows() -> Vec<Vec<String>> {
    let model = SystemModel::new(SystemConfig::default());
    let mut rows = Vec::new();
    for (profile, shape) in TABLE1.iter().zip(WorkloadShape::table1()) {
        let spechd_s = model.end_to_end(&shape).total_s;
        let mut row = vec![profile.pride_id.to_string(), format!("{spechd_s:.0}")];
        for tool in ToolPerfModel::fig7_tools() {
            let t = tool.end_to_end_s(&shape);
            row.push(format!("{:.1}x", t / spechd_s));
        }
        rows.push(row);
    }
    rows
}

/// Fig. 8: standalone clustering of pre-encoded vectors, PXD000561.
fn fig8_rows() -> Vec<Vec<String>> {
    let model = SystemModel::new(SystemConfig::default());
    let shape = WorkloadShape::pxd000561();
    let spechd_s = model.standalone_clustering_time(&shape);
    let mut rows = vec![vec![
        "SpecHD".to_string(),
        format!("{spechd_s:.0}"),
        "1.0x".to_string(),
    ]];
    for tool in [
        ToolPerfModel::hyperspec_hac(),
        ToolPerfModel::gleams(),
        ToolPerfModel::mscrush(),
        ToolPerfModel::falcon(),
    ] {
        let t = tool.clustering_s(&shape);
        rows.push(vec![
            tool.name.to_string(),
            format!("{t:.0}"),
            format!("{:.1}x", t / spechd_s),
        ]);
    }
    rows
}

/// Fig. 9: energy efficiency vs the two HyperSpec flavours, end-to-end
/// and clustering-phase.
fn fig9_rows() -> Vec<Vec<String>> {
    let model = SystemModel::new(SystemConfig::default());
    let shape = WorkloadShape::pxd000561();
    let spechd_e2e = model.end_to_end_energy(&shape).total_j;
    let spechd_cluster = model.clustering_energy(&shape);
    let mut rows = vec![vec![
        "SpecHD".to_string(),
        format!("{spechd_e2e:.0}"),
        "1.0x".to_string(),
        format!("{spechd_cluster:.0}"),
        "1.0x".to_string(),
    ]];
    for tool in [
        ToolPerfModel::hyperspec_dbscan(),
        ToolPerfModel::hyperspec_hac(),
    ] {
        let e2e = tool.end_to_end_energy_j(&shape);
        let cl = tool.clustering_energy_j(&shape);
        rows.push(vec![
            tool.name.to_string(),
            format!("{e2e:.0}"),
            format!("{:.1}x", e2e / spechd_e2e),
            format!("{cl:.0}"),
            format!("{:.1}x", cl / spechd_cluster),
        ]);
    }
    rows
}

/// Fig. 10: (clustered ratio, ICR) operating points per tool across a
/// threshold sweep on one labelled dataset.
fn fig10_rows(dataset: &SpectrumDataset) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut push = |name: &str, knob: String, a: &ClusterAssignment| {
        let eval = ClusteringEval::compute(a.labels(), dataset.labels());
        rows.push(vec![
            name.to_string(),
            knob,
            format!("{:.1}", eval.clustered_ratio * 100.0),
            format!("{:.2}", eval.incorrect_ratio * 100.0),
            format!("{:.3}", eval.completeness),
        ]);
    };
    for t in [0.23, 0.26, 0.29, 0.32, 0.35] {
        let outcome = SpecHd::new(
            SpecHdConfig::builder()
                .distance_threshold_fraction(t)
                .build(),
        )
        .run(dataset);
        push(
            "SpecHD",
            format!("{t:.2}"),
            &outcome.assignment_full(dataset.len()),
        );
    }
    for t in [0.26, 0.30, 0.34] {
        let tool = HyperSpecHac {
            threshold_fraction: t,
            ..Default::default()
        };
        push(tool.name(), format!("{t:.2}"), &tool.cluster(dataset));
    }
    for eps in [0.20, 0.25, 0.30] {
        let tool = HyperSpecDbscan {
            eps_fraction: eps,
            ..Default::default()
        };
        push(tool.name(), format!("{eps:.2}"), &tool.cluster(dataset));
    }
    for eps in [0.10, 0.16, 0.22] {
        let tool = Falcon {
            eps,
            ..Default::default()
        };
        push(tool.name(), format!("{eps:.2}"), &tool.cluster(dataset));
    }
    for sim in [0.92, 0.86, 0.80] {
        let tool = MsCrush {
            min_similarity: sim,
            ..Default::default()
        };
        push(tool.name(), format!("{sim:.2}"), &tool.cluster(dataset));
    }
    for thr in [1e-5, 1e-4, 1e-3] {
        let tool = MaRaCluster {
            threshold: thr,
            ..Default::default()
        };
        push(tool.name(), format!("{thr:.0e}"), &tool.cluster(dataset));
    }
    for thr in [0.40, 0.52, 0.64] {
        let tool = Gleams {
            threshold: thr,
            ..Default::default()
        };
        push(tool.name(), format!("{thr:.2}"), &tool.cluster(dataset));
    }
    {
        let tool = GreedyCascade::spectra_cluster();
        push(tool.name(), "default".into(), &tool.cluster(dataset));
        let tool = GreedyCascade::mscluster();
        push(tool.name(), "default".into(), &tool.cluster(dataset));
    }
    rows
}

/// Fig. 11: identify peptides from each tool's consensus spectra at 1%
/// FDR and intersect the sets, split by precursor charge. One row per
/// charge: the charge and the Venn region counts of the unique peptide
/// identifications (A = SpecHD, B = GLEAMS, C = HyperSpec).
pub fn fig11_overlap(
    generator: &SyntheticGenerator,
    dataset: &SpectrumDataset,
) -> Vec<(u8, overlap::Venn3)> {
    let db = PeptideDatabase::build(generator.peptide_library());
    let engine = SearchEngine::new(db, SearchConfig::default());

    let spechd_consensus = {
        let outcome = SpecHd::new(SpecHdConfig::default()).run(dataset);
        outcome.consensus().to_vec()
    };
    let gleams_consensus = representatives(&Gleams::default().cluster(dataset), dataset);
    let hyperspec_consensus = representatives(&HyperSpecHac::default().cluster(dataset), dataset);

    let identify = |consensus: &[usize], charge: u8| -> Vec<String> {
        let spectra: Vec<_> = consensus
            .iter()
            .map(|&i| dataset.spectrum(i).clone())
            .filter(|s| s.precursor().charge() == charge)
            .collect();
        let psms: Vec<_> = engine
            .search_dataset(&spectra)
            .into_iter()
            .flatten()
            .collect();
        let accepted = filter_at_fdr(&psms, 0.01);
        accepted
            .iter()
            .map(|&i| psms[i].peptide.sequence().to_string())
            .collect()
    };

    [2u8, 3u8]
        .iter()
        .map(|&charge| {
            let a = identify(&spechd_consensus, charge);
            let b = identify(&gleams_consensus, charge);
            let c = identify(&hyperspec_consensus, charge);
            (
                charge,
                overlap::venn3(
                    a.iter().map(String::as_str),
                    b.iter().map(String::as_str),
                    c.iter().map(String::as_str),
                ),
            )
        })
        .collect()
}

/// Picks a representative spectrum per cluster: the member with the
/// highest total ion current (a cheap consensus proxy for tools that do
/// not expose medoids).
pub fn representatives(assignment: &ClusterAssignment, dataset: &SpectrumDataset) -> Vec<usize> {
    assignment
        .clusters()
        .iter()
        .map(|members| {
            members
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    dataset
                        .spectrum(a)
                        .total_ion_current()
                        .total_cmp(&dataset.spectrum(b).total_ion_current())
                })
                .expect("clusters are non-empty")
        })
        .collect()
}

/// DSE sweep rows (time, energy, feasibility per configuration).
fn dse_rows() -> Vec<Vec<String>> {
    let shape = WorkloadShape::pxd000561();
    let points = spechd_fpga::dse::explore(&shape, &spechd_fpga::dse::DseSweep::default());
    let front = spechd_fpga::dse::pareto_front(&points);
    front
        .iter()
        .map(|p| {
            vec![
                p.encoders.to_string(),
                p.cluster_kernels.to_string(),
                p.msas_channels.to_string(),
                p.p2p.to_string(),
                format!("{:.1}", p.total_s),
                format!("{:.0}", p.total_j),
            ]
        })
        .collect()
}

/// Prints Table I.
pub fn print_table1() {
    print_table(
        "Table I: preprocessing performance (paper vs MSAS model)",
        &[
            "dataset",
            "sample",
            "#spectra",
            "size",
            "paper t(s)",
            "model t(s)",
            "paper E(J)",
            "model E(J)",
        ],
        &table1_rows(),
    );
}

/// Prints Fig. 2 for n = 100 … 1 600.
pub fn print_fig2() {
    print_table(
        "Fig. 2: naive vs NN-chain HAC (complete linkage, random distances)",
        &[
            "n",
            "naive cmp (M)",
            "chain cmp (M)",
            "naive (s)",
            "chain (s)",
            "speedup",
        ],
        &fig2_rows(&[100, 200, 400, 800, 1600]),
    );
}

/// Prints Fig. 6a on `hard_dataset(2_000, 6)`.
pub fn print_fig6a() {
    let (_, dataset) = hard_dataset(2_000, 6);
    print_table(
        "Fig. 6a: linkage efficacy at ICR <= 1.5% (paper: complete 44%/0.764, ward 40%/0.756)",
        &[
            "linkage",
            "threshold",
            "clustered(%)",
            "ICR(%)",
            "completeness",
        ],
        &fig6a_rows(&dataset, 0.015),
    );
}

/// Prints Fig. 6b.
pub fn print_fig6b() {
    print_table(
        "Fig. 6b: compression factor at D=2048",
        &["dataset", "raw size", "HV archive", "factor"],
        &fig6b_rows(),
    );
}

/// Prints Fig. 7.
pub fn print_fig7() {
    print_table(
        "Fig. 7: end-to-end speedup over SpecHD=1 (paper: GLEAMS 31-54x, HyperSpec-HAC 6x)",
        &[
            "dataset",
            "SpecHD (s)",
            "GLEAMS",
            "HyperSpec-HAC",
            "msCRUSH",
            "Falcon",
        ],
        &fig7_rows(),
    );
}

/// Prints Fig. 8.
pub fn print_fig8() {
    print_table(
        "Fig. 8: standalone clustering, PXD000561 (paper: SpecHD 80s, HyperSpec 1000s, Falcon ~100x)",
        &["tool", "time (s)", "vs SpecHD"],
        &fig8_rows(),
    );
}

/// Prints Fig. 9.
pub fn print_fig9() {
    print_table(
        "Fig. 9: energy on PXD000561 (paper: e2e 14x/31x, clustering 12x/40x)",
        &[
            "tool",
            "e2e (J)",
            "e2e ratio",
            "clustering (J)",
            "clustering ratio",
        ],
        &fig9_rows(),
    );
}

/// Prints Fig. 10 on `hard_dataset(2_000, 10)`.
pub fn print_fig10() {
    let (_, dataset) = hard_dataset(2_000, 10);
    print_table(
        "Fig. 10: clustered ratio vs ICR (paper: SpecHD ~45% at 1% ICR)",
        &["tool", "knob", "clustered(%)", "ICR(%)", "completeness"],
        &fig10_rows(&dataset),
    );
}

/// Prints Fig. 11 on `hard_dataset(2_500, 11)`.
pub fn print_fig11() {
    let (generator, dataset) = hard_dataset(2_500, 11);
    let rows: Vec<Vec<String>> = fig11_overlap(&generator, &dataset)
        .iter()
        .map(|(charge, venn)| {
            let (a, c) = (venn.total_a() as f64, venn.total_c() as f64);
            vec![
                format!("{charge}+"),
                venn.total_a().to_string(),
                venn.total_b().to_string(),
                venn.total_c().to_string(),
                venn.abc.to_string(),
                format!("{:+.2}%", venn.a_vs_b_percent()),
                format!("{:+.2}%", if c == 0.0 { 0.0 } else { (a - c) / c * 100.0 }),
            ]
        })
        .collect();
    print_table(
        "Fig. 11: unique peptides at 1% FDR (paper: SpecHD -1.38/-3.24% vs GLEAMS, +7.33/+5.10% vs HyperSpec)",
        &["charge", "SpecHD", "GLEAMS", "HyperSpec", "all three", "vs GLEAMS", "vs HyperSpec"],
        &rows,
    );
}

/// Prints the DSE Pareto front.
pub fn print_dse() {
    print_table(
        "DSE Pareto front on PXD000561 (time vs energy)",
        &[
            "encoders",
            "cluster kernels",
            "MSAS channels",
            "p2p",
            "total (s)",
            "energy (J)",
        ],
        &dse_rows(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_five_rows() {
        assert_eq!(table1_rows().len(), 5);
    }

    #[test]
    fn fig2_speedup_grows_with_n() {
        let rows = fig2_rows(&[60, 240]);
        assert_eq!(rows.len(), 2);
        let naive_small: f64 = rows[0][1].parse().unwrap();
        let naive_large: f64 = rows[1][1].parse().unwrap();
        assert!(
            naive_large > naive_small * 10.0,
            "naive comparisons grow cubically"
        );
    }

    #[test]
    fn fig6b_factors_span_paper_range() {
        let rows = fig6b_rows();
        let factors: Vec<f64> = rows
            .iter()
            .map(|r| r[3].trim_end_matches('x').parse::<f64>().unwrap())
            .collect();
        assert!(factors.iter().cloned().fold(f64::INFINITY, f64::min) < 30.0);
        assert!(factors.iter().cloned().fold(0.0, f64::max) > 80.0);
    }

    #[test]
    fn fig7_has_all_datasets() {
        assert_eq!(fig7_rows().len(), 5);
    }

    #[test]
    fn representatives_one_per_cluster() {
        let (_, ds) = hard_dataset(120, 3);
        let a = HyperSpecHac::default().cluster(&ds);
        let reps = representatives(&a, &ds);
        assert_eq!(reps.len(), a.num_clusters());
    }
}
