//! File-format round trips feeding the full pipeline: the MS data path of
//! Fig. 1 (instrument formats → preprocessing → clustering).

use spechd_core::{SpecHd, SpecHdConfig};
use spechd_ms::formats::{mgf, ms2};
use spechd_ms::SpectrumDataset;
use spechd_tests::{synthetic_dataset as dataset, Data, Gen};

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
    let ds = Data::new(Gen::Clean, 400, 205);
    let outcome = SpecHd::new(SpecHdConfig::default()).run(&ds);
    let consensus: Vec<_> = outcome
        .consensus()
        .iter()
        .map(|&i| ds.spectrum(i).clone())
        .collect();
    let text = mgf::to_string(&consensus);
    let parsed = mgf::read(text.as_bytes()).unwrap();
    let engine = SearchEngine::new(
        PeptideDatabase::build(ds.generator().unwrap().peptide_library()),
        SearchConfig::default(),
    );
    let hits = engine.search_dataset(&parsed).iter().flatten().count();
    assert!(
        hits * 2 > parsed.len(),
        "a majority of consensus spectra should identify ({hits}/{})",
        parsed.len()
    );
}
