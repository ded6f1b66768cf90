//! Equivalence of incremental clustering (k installments into a
//! persistent store) with one batch run over the union of the same
//! spectra.
//!
//! The union dataset is split into contiguous installments, so a spectrum
//! kept by preprocessing receives the same position in the incremental
//! global-id order as in the batch kept order — the two assignments are
//! directly comparable index-by-index. k = 1 must be bit-identical to
//! batch; k > 1 is gated by [`EquivalenceGate`] (partition agreement plus
//! ground-truth quality deltas), because absorption into frozen medoids
//! is an approximation on buckets that span installments.

use spechd_core::{ClusterStore, IncrementalOutcome, SpecHd, SpecHdConfig};
use spechd_ms::SpectrumDataset;
use spechd_tests::{
    assert_gate, assert_paths, assert_same, installments, run_installments, Data, Gen, Outcome,
    Path,
};

#[test]
fn one_installment_is_bit_identical_to_batch() {
    let union = Data::new(Gen::Union, 400, 21);
    assert_paths(&union, &[Path::Incremental, Path::ServedIncremental]);
}

#[test]
fn k_installments_stay_inside_the_equivalence_gate() {
    let union = Data::new(Gen::Union, 600, 22);
    let engine = SpecHd::new(SpecHdConfig::default());
    let batch = engine.run(&union);
    // Installments are contiguous slices of the union, so incremental
    // global-id order is batch kept order.
    for k in [1usize, 2, 5] {
        let mut store = engine.new_store().unwrap();
        let inc = run_installments(&engine, &mut store, &installments(&union, k));
        assert_eq!(
            inc.assignment().len(),
            batch.assignment().len(),
            "k={k}: same kept spectra"
        );
        let path = format!("Incremental, k = {k}");
        assert_gate(&path, &union, inc.assignment().labels(), &batch);
        if k == 1 {
            assert_same("Incremental", &union.name, &(&inc).into(), &(&batch).into());
        }
    }
}

#[test]
fn labels_are_stable_across_sessions() {
    let union = Data::new(Gen::Union, 500, 23);
    let engine = SpecHd::new(SpecHdConfig::default());
    let parts = installments(&union, 5);

    let mut store = engine.new_store().unwrap();
    let mut previous: Option<IncrementalOutcome> = None;
    for (session, part) in parts.iter().enumerate() {
        // Simulate a fresh process per session: persist and reload.
        let mut reloaded = ClusterStore::from_bytes(&store.to_bytes()).unwrap();
        let outcome = engine.run_incremental(&mut reloaded, part).unwrap();
        store = reloaded;
        if let Some(prev) = &previous {
            let n_prev = prev.assignment().len();
            assert_eq!(
                &outcome.assignment().labels()[..n_prev],
                prev.assignment().labels(),
                "session {session}: prior labels must survive verbatim"
            );
            assert!(
                outcome.assignment().num_clusters() >= prev.assignment().num_clusters(),
                "clusters only append"
            );
            // Consensus medoids of surviving clusters never move.
            assert_eq!(
                &outcome.consensus()[..prev.consensus().len()],
                prev.consensus(),
                "session {session}: medoids are frozen"
            );
        }
        previous = Some(outcome);
    }
    let last = previous.unwrap();
    assert_eq!(last.assignment().len() as u64, store.next_spectrum_id());
}

#[test]
fn cold_start_on_empty_store_matches_batch() {
    let union = Data::new(Gen::Union, 300, 24);
    let engine = SpecHd::new(SpecHdConfig::default());
    let store = engine.new_store().unwrap();
    assert!(store.is_empty());

    // Round-trip the *empty* store through bytes first: a brand-new file
    // must behave exactly like a brand-new store.
    let mut store = ClusterStore::from_bytes(&store.to_bytes()).unwrap();
    let inc = engine.run_incremental(&mut store, &union).unwrap();
    let batch = engine.run(&union);
    assert_same(
        "Incremental",
        &union.name,
        &Outcome::from(&inc),
        &(&batch).into(),
    );
    assert_eq!(inc.stats().dirty_buckets, 0);
    assert_eq!(inc.stats().fresh_buckets, store.num_buckets());
}

#[test]
fn single_new_spectrum_lands_in_an_existing_cluster_or_its_own() {
    let union = Data::new(Gen::Union, 400, 25);
    let engine = SpecHd::new(SpecHdConfig::default());
    let mut store = engine.new_store().unwrap();
    let first = engine.run_incremental(&mut store, &union).unwrap();
    let clusters_before = store.num_clusters();
    let spectra_before = store.next_spectrum_id();

    // Resubmit one already-seen spectrum as a new installment: it must
    // be absorbed into an existing cluster of its bucket (its distance
    // to that cluster's medoid is within the cut threshold by
    // construction — distance zero to its own previous encoding).
    let mut one = SpectrumDataset::new();
    let idx = first.kept()[0];
    one.push(union.spectra()[idx].clone(), union.labels()[idx]);
    let second = engine.run_incremental(&mut store, &one).unwrap();

    assert_eq!(second.stats().spectra_kept, 1);
    assert_eq!(second.stats().absorbed, 1, "duplicate must be absorbed");
    assert_eq!(second.stats().new_clusters, 0);
    assert_eq!(store.num_clusters(), clusters_before);
    assert_eq!(store.next_spectrum_id(), spectra_before + 1);
    // The duplicate gets its twin's label.
    let new_label = second.installment_labels()[0];
    assert_eq!(new_label, first.assignment().labels()[0]);
    // And everything that was labelled stays labelled identically.
    assert_eq!(
        &second.assignment().labels()[..first.assignment().len()],
        first.assignment().labels()
    );
}

#[test]
fn genuinely_novel_spectrum_starts_a_new_cluster() {
    let union = Data::new(Gen::Union, 200, 26);
    let engine = SpecHd::new(SpecHdConfig::default());
    let mut store = engine.new_store().unwrap();
    engine.run_incremental(&mut store, &union).unwrap();
    let clusters_before = store.num_clusters();
    let buckets_before = store.num_buckets();

    // A spectrum in a mass region the union never touched: fresh bucket,
    // new singleton cluster. Probe precursor masses until one maps to a
    // bucket the store has never seen.
    let peaks: Vec<spechd_ms::Peak> = (0..10)
        .map(|i| spechd_ms::Peak::new(300.0 + 50.0 * i as f64, 1.0))
        .collect();
    let spectrum = (0..10_000)
        .map(|step| {
            let mz = 400.0 + 0.37 * f64::from(step);
            spechd_ms::Spectrum::new(
                format!("novel-{step}"),
                spechd_ms::Precursor::new(mz, 2).unwrap(),
                peaks.clone(),
            )
            .unwrap()
        })
        .find(|s| store.bucket(engine.bucketer().bucket_of(s)).is_none())
        .expect("some bucket is unused");
    let mut novel = SpectrumDataset::new();
    novel.push(spectrum, None);
    let out = engine.run_incremental(&mut store, &novel).unwrap();
    assert_eq!(out.stats().spectra_kept, 1);
    assert_eq!(out.stats().absorbed, 0);
    assert_eq!(out.stats().new_clusters, 1);
    assert_eq!(out.stats().fresh_buckets, 1);
    assert_eq!(store.num_clusters(), clusters_before + 1);
    assert_eq!(store.num_buckets(), buckets_before + 1);
}
