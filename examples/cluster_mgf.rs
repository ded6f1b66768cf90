//! End-to-end file workflow: write an MGF run, read it back, cluster it
//! with SpecHD, and write the consensus spectra as a new MGF — the shape
//! of a real deployment where SpecHD sits between the instrument output
//! and the database search engine.
//!
//! ```bash
//! cargo run --release --example cluster_mgf [input.mgf]
//! ```
//!
//! Without an argument, a synthetic MGF is generated under the system
//! temp directory first.

use spechd_core::{SpecHd, SpecHdConfig};
use spechd_ms::formats::mgf;
use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
use spechd_ms::SpectrumDataset;
use std::error::Error;
use std::fs::File;
use std::io::BufWriter;

fn main() -> Result<(), Box<dyn Error>> {
    let tmp = std::env::temp_dir();
    let input_path = match std::env::args().nth(1) {
        Some(path) => path.into(),
        None => {
            // Generate a small run and persist it as MGF.
            let dataset = SyntheticGenerator::new(SyntheticConfig {
                num_spectra: 1_000,
                num_peptides: 200,
                seed: 7,
                ..SyntheticConfig::default()
            })
            .generate();
            let path = tmp.join("spechd_example_input.mgf");
            mgf::write(BufWriter::new(File::create(&path)?), dataset.spectra())?;
            println!("generated {}", path.display());
            path
        }
    };

    // Parse the MGF (titles, precursors, peaks); the reader buffers the
    // file itself.
    let spectra = mgf::read(File::open(&input_path)?)?;
    println!(
        "parsed {} spectra from {}",
        spectra.len(),
        input_path.display()
    );
    let dataset = SpectrumDataset::from_spectra(spectra);

    // Cluster.
    let spechd = SpecHd::new(SpecHdConfig::default());
    let outcome = spechd.run(&dataset);
    println!(
        "{} clusters, clustered ratio {:.1}%, {} consensus spectra",
        outcome.assignment().num_clusters(),
        outcome.assignment().clustered_ratio() * 100.0,
        outcome.consensus().len()
    );

    // Write consensus (medoid) spectra of all non-singleton clusters: the
    // reduced peak list a search engine would consume.
    let sizes = outcome.assignment().sizes();
    let consensus_spectra: Vec<_> = outcome
        .consensus()
        .iter()
        .enumerate()
        .filter(|&(cluster, _)| sizes[cluster] > 1)
        .map(|(_, &original_index)| dataset.spectrum(original_index).clone())
        .collect();
    let out_path = tmp.join("spechd_example_consensus.mgf");
    mgf::write(BufWriter::new(File::create(&out_path)?), &consensus_spectra)?;
    println!(
        "wrote {} consensus spectra to {} ({}x search reduction over clustered spectra)",
        consensus_spectra.len(),
        out_path.display(),
        if consensus_spectra.is_empty() {
            0
        } else {
            sizes.iter().filter(|&&s| s > 1).sum::<usize>() / consensus_spectra.len().max(1)
        }
    );
    Ok(())
}
