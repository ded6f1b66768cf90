//! File-format round trips feeding the full pipeline: the MS data path of
//! Fig. 1 (instrument formats → preprocessing → clustering).

use spechd_core::{SpecHd, SpecHdConfig};
use spechd_ms::formats::{mgf, ms2};
use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
use spechd_ms::SpectrumDataset;

fn dataset(n: usize, seed: u64) -> SpectrumDataset {
    SyntheticGenerator::new(SyntheticConfig {
        num_spectra: n,
        num_peptides: n / 5,
        seed,
        ..SyntheticConfig::default()
    })
    .generate()
}

#[test]
fn mgf_roundtrip_preserves_clustering() {
    let ds = dataset(300, 201);
    let text = mgf::to_string(ds.spectra());
    let parsed = mgf::read(text.as_bytes()).unwrap();
    assert_eq!(parsed.len(), ds.len());
    let ds2 = SpectrumDataset::from_spectra(parsed);

    let engine = SpecHd::new(SpecHdConfig::default());
    let a = engine.run(&ds);
    let b = engine.run(&ds2);
    // MGF stores at reduced float precision; the partition itself must
    // survive the round trip.
    assert_eq!(a.assignment(), b.assignment());
}

#[test]
fn ms2_roundtrip_preserves_clustering() {
    let ds = dataset(200, 203);
    let text = ms2::to_string(ds.spectra());
    let parsed = ms2::read(text.as_bytes()).unwrap();
    assert_eq!(parsed.len(), ds.len());
    let ds2 = SpectrumDataset::from_spectra(parsed);
    let engine = SpecHd::new(SpecHdConfig::default());
    assert_eq!(engine.run(&ds).assignment(), engine.run(&ds2).assignment());
}

#[test]
fn consensus_mgf_export_searchable() {
    // The cluster_mgf example's workflow: consensus spectra written as MGF
    // can be read back and searched.
    use spechd_search::{PeptideDatabase, SearchConfig, SearchEngine};
    let generator = SyntheticGenerator::new(SyntheticConfig {
        num_spectra: 400,
        num_peptides: 80,
        noise_spectrum_fraction: 0.0,
        seed: 205,
        ..SyntheticConfig::default()
    });
    let ds = generator.generate();
    let outcome = SpecHd::new(SpecHdConfig::default()).run(&ds);
    let consensus: Vec<_> = outcome
        .consensus()
        .iter()
        .map(|&i| ds.spectrum(i).clone())
        .collect();
    let text = mgf::to_string(&consensus);
    let parsed = mgf::read(text.as_bytes()).unwrap();
    let engine = SearchEngine::new(
        PeptideDatabase::build(generator.peptide_library()),
        SearchConfig::default(),
    );
    let hits = engine.search_dataset(&parsed).iter().flatten().count();
    assert!(
        hits * 2 > parsed.len(),
        "a majority of consensus spectra should identify ({hits}/{})",
        parsed.len()
    );
}
