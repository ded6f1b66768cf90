//! Downstream database-search integration: the Fig. 11 peptide-overlap
//! experiment, the consensus-search speedup claim, and HD search agreeing
//! with hyperscore on real encoded spectra.

use spechd_core::{SpecHd, SpecHdConfig};
use spechd_hdc::{EncoderConfig, IdLevelEncoder};
use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
use spechd_search::overlap::venn3;
use spechd_search::{
    encode_spectrum_peaks, filter_at_fdr, HdPsm, HvLibrary, PackedSearchConfig, PackedSearchEngine,
    PeptideDatabase, SearchConfig, SearchEngine,
};
use spechd_tests::{Data, Gen};
use std::collections::BTreeSet;

#[test]
fn fig11_overlap_shape() {
    let (generator, dataset) = spechd_bench::hard_dataset(1_500, 401);
    let outcomes = spechd_bench::fig11_overlap(&generator, &dataset);
    assert_eq!(outcomes.len(), 2, "charges 2+ and 3+");
    for (charge, venn) in &outcomes {
        let a = venn.total_a();
        let b = venn.total_b();
        let c = venn.total_c();
        assert!(a > 0 && b > 0 && c > 0, "every tool identifies peptides");
        // The three tools must substantially agree: the triple overlap is
        // the dominant region (Fig. 11's visual message).
        assert!(
            venn.abc * 2 > venn.union(),
            "charge {}: triple overlap {} of union {}",
            charge,
            venn.abc,
            venn.union()
        );
        // SpecHD within 25% of either competitor (paper: within ~7%).
        assert!(
            (a as f64 - b as f64).abs() / b as f64 <= 0.25,
            "charge {}: SpecHD {a} vs GLEAMS {b}",
            charge
        );
        assert!(
            (a as f64 - c as f64).abs() / c as f64 <= 0.25,
            "charge {}: SpecHD {a} vs HyperSpec {c}",
            charge
        );
    }
}

#[test]
fn consensus_search_reduces_work_with_small_id_loss() {
    // §IV-E1: "1.5-2x speedup in spectra searching by skipping redundant
    // searches for similar spectra". Searching consensus spectra only must
    // cut the searched-spectrum count substantially while recovering most
    // peptides.
    let generator = SyntheticGenerator::new(SyntheticConfig {
        num_spectra: 1_200,
        num_peptides: 150,
        noise_spectrum_fraction: 0.10,
        seed: 402,
        ..SyntheticConfig::default()
    });
    let dataset = generator.generate();
    let engine = SearchEngine::new(
        PeptideDatabase::build(generator.peptide_library()),
        SearchConfig::default(),
    );

    // Full search.
    let full_psms: Vec<_> = engine
        .search_dataset(dataset.spectra())
        .into_iter()
        .flatten()
        .collect();
    let full_accepted = filter_at_fdr(&full_psms, 0.01);
    let full_peptides: std::collections::BTreeSet<&str> = full_accepted
        .iter()
        .map(|&i| full_psms[i].peptide.sequence())
        .collect();

    // Consensus-only search.
    let outcome = SpecHd::new(SpecHdConfig::default()).run(&dataset);
    let consensus: Vec<_> = outcome
        .consensus()
        .iter()
        .map(|&i| dataset.spectrum(i).clone())
        .collect();
    let searched_reduction = dataset.len() as f64 / consensus.len() as f64;
    assert!(
        searched_reduction > 1.4,
        "consensus search should skip >=1.4x spectra, got {searched_reduction:.2}"
    );
    let psms: Vec<_> = engine
        .search_dataset(&consensus)
        .into_iter()
        .flatten()
        .collect();
    let accepted = filter_at_fdr(&psms, 0.01);
    let peptides: std::collections::BTreeSet<&str> = accepted
        .iter()
        .map(|&i| psms[i].peptide.sequence())
        .collect();
    let recovered = peptides.intersection(&full_peptides).count();
    assert!(
        recovered * 10 >= full_peptides.len() * 8,
        "consensus search should recover >=80% of peptides ({recovered}/{})",
        full_peptides.len()
    );
}

#[test]
fn fdr_control_is_effective_end_to_end() {
    // With decoys present, accepted identifications at 1% FDR should be
    // overwhelmingly correct against ground truth.
    let generator = SyntheticGenerator::new(SyntheticConfig {
        num_spectra: 600,
        num_peptides: 120,
        noise_spectrum_fraction: 0.3,
        hidden_label_fraction: 0.0,
        seed: 403,
        ..SyntheticConfig::default()
    });
    let dataset = generator.generate();
    let engine = SearchEngine::new(
        PeptideDatabase::build(generator.peptide_library()),
        SearchConfig::default(),
    );
    let psms: Vec<_> = engine
        .search_dataset(dataset.spectra())
        .into_iter()
        .flatten()
        .collect();
    let accepted = filter_at_fdr(&psms, 0.01);
    assert!(!accepted.is_empty());
    let mut correct = 0usize;
    let mut wrong = 0usize;
    for &i in &accepted {
        let psm = &psms[i];
        match dataset.labels()[psm.spectrum_index] {
            Some(label)
                if generator.peptide_library()[label as usize].sequence()
                    == psm.peptide.sequence() =>
            {
                correct += 1
            }
            Some(_) => wrong += 1,
            None => {} // noise spectrum identified: counted by FDR itself
        }
    }
    let wrong_rate = wrong as f64 / (correct + wrong).max(1) as f64;
    assert!(
        wrong_rate < 0.05,
        "wrong-peptide rate too high: {wrong}/{correct}"
    );
}

#[test]
fn hd_search_identifies_what_hyperscore_identifies() {
    // Hyperscore vs packed-standard vs packed-OMS top-1 target ids on one
    // noise-free peptide workload, searched as real encoded spectra
    // against a library encoded from the same database.
    let dataset = Data::new(Gen::Clean, 400, 0x7EA5);
    let generator = dataset.generator().unwrap();
    let db = PeptideDatabase::build(generator.peptide_library());
    let hyper_ids: BTreeSet<String> = SearchEngine::new(db.clone(), SearchConfig::default())
        .search_dataset(dataset.spectra())
        .iter()
        .flatten()
        .filter(|p| !p.is_decoy)
        .map(|p| p.peptide.sequence().to_string())
        .collect();

    let encoder = IdLevelEncoder::new(EncoderConfig::default());
    let lib = HvLibrary::from_database(&db, &encoder, 1);
    let packed = PackedSearchEngine::new(PackedSearchConfig {
        top_k: 1,
        ..PackedSearchConfig::default()
    });
    let top_target = |hits: &[HdPsm]| {
        hits.iter()
            .find(|h| !h.is_decoy)
            .map(|h| lib.id(h.library_index).to_string())
    };
    let mut std_ids = BTreeSet::new();
    let mut oms_ids = BTreeSet::new();
    let mut oms_psms: Vec<HdPsm> = Vec::new();
    for (i, s) in dataset.spectra().iter().enumerate() {
        let hv = encode_spectrum_peaks(&encoder, s.peaks());
        let mass = s.precursor().neutral_mass();
        std_ids.extend(top_target(&packed.search_standard(&lib, &hv, mass, i)));
        let open = packed.search_open(&lib, &hv, mass, i);
        oms_ids.extend(top_target(&open));
        oms_psms.extend(open.first().copied());
    }

    let venn = venn3(
        hyper_ids.iter().map(String::as_str),
        std_ids.iter().map(String::as_str),
        oms_ids.iter().map(String::as_str),
    );
    assert!(venn.total_a() > 0, "hyperscore identified nothing");
    assert!(
        venn.abc * 10 >= venn.total_a() * 9,
        "all three modes agree on {} of hyperscore's {} peptides",
        venn.abc,
        venn.total_a()
    );
    let accepted = filter_at_fdr(&oms_psms, 0.01).len();
    assert!(
        accepted * 10 >= oms_psms.len() * 9,
        "{accepted} of {} OMS top-1 HD PSMs survive 1% FDR",
        oms_psms.len()
    );
}
