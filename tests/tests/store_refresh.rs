//! Medoid refresh / compaction coverage.
//!
//! Absorption drifts: clusters grow member-by-member against medoids
//! frozen at creation time, so a long-lived store accumulates clusters
//! whose medoid is no longer its own best center, plus near-duplicate
//! clusters that would have been one under a fresh HAC cut. The
//! [`SpecHd::refresh_store`] pass fixes both — re-medoiding every
//! drifted cluster and merging clusters within the cut threshold — and
//! this suite pins its contract:
//!
//! * refreshed labels stay inside the [`EquivalenceGate`] against a
//!   batch run over the same union (NMI ≥ 0.90, bounded v-drop);
//! * the pass is a fixed point (a second refresh is a no-op) and the
//!   compacted store round-trips bit-identically through SHPK bytes;
//! * a crash at **any** byte of the post-refresh save never corrupts
//!   the store: recovery always yields the pre-refresh or post-refresh
//!   image, checksum-clean.

use spechd_core::{ClusterStore, SpecHd, SpecHdConfig};
use spechd_ms::SpectrumDataset;
use spechd_store::{FaultIo, FaultPlan, MemIo};
use spechd_tests::{assert_gate, installments, run_installments, Data, Gen};
use std::path::Path;

/// A store drifted by `k` installments of the union, keeping member
/// rows so it is refreshable.
fn drifted_store(engine: &SpecHd, union: &SpectrumDataset, k: usize) -> ClusterStore {
    let mut store = engine.new_store_keeping_rows().unwrap();
    run_installments(engine, &mut store, &installments(union, k));
    store
}

#[test]
fn refreshed_labels_stay_inside_the_equivalence_gate() {
    let union = Data::new(Gen::Union, 600, 31);
    let engine = SpecHd::new(SpecHdConfig::default());
    let batch = engine.run(&union);
    let mut store = drifted_store(&engine, &union, 6);
    let clusters_before = store.num_clusters();
    let report = engine.refresh_store(&mut store).unwrap();
    assert_eq!(
        store.num_clusters() as u64 + report.merged,
        clusters_before as u64,
        "every merge removes exactly one cluster"
    );
    // Compaction must not lose a single member.
    let (assignment, _medoids) = store.union_assignment().unwrap();
    assert_eq!(assignment.len(), batch.kept().len());

    assert_gate("refreshed", &union, assignment.labels(), &batch);
}

#[test]
fn refresh_is_a_fixed_point_and_compaction_round_trips() {
    let union = Data::new(Gen::Union, 400, 32);
    let engine = SpecHd::new(SpecHdConfig::default());
    let mut store = drifted_store(&engine, &union, 5);

    engine.refresh_store(&mut store).unwrap();
    let bytes = store.to_bytes();

    // Bit-identical SHPK round trip of the compacted store.
    let reloaded = ClusterStore::from_bytes(&bytes).unwrap();
    assert_eq!(reloaded.to_bytes(), bytes, "compacted store round-trips");

    // Fixed point: refreshing the refreshed store changes nothing.
    let mut again = reloaded;
    let second = engine.refresh_store(&mut again).unwrap();
    assert_eq!(second.refreshed, 0, "second refresh re-medoids nothing");
    assert_eq!(second.merged, 0, "second refresh merges nothing");
    assert_eq!(
        again.to_bytes(),
        bytes,
        "second refresh is byte-level no-op"
    );
}

#[test]
fn refresh_keeps_the_stable_prefix_out_of_scope_but_consistent() {
    // Refresh sits *outside* the stable-label contract: merged clusters
    // relabel their members. What must still hold afterwards is a
    // consistent store — every spectrum id labelled exactly once, and
    // later installments continue from the compacted state.
    let union = Data::new(Gen::Union, 500, 33);
    let engine = SpecHd::new(SpecHdConfig::default());
    let parts = installments(&union, 5);
    let mut store = engine.new_store_keeping_rows().unwrap();
    for part in &parts[..4] {
        engine.run_incremental(&mut store, part).unwrap();
    }
    engine.refresh_store(&mut store).unwrap();
    let spectra_before = store.next_spectrum_id();

    // The store keeps absorbing after a refresh, ids continuing densely.
    let out = engine.run_incremental(&mut store, &parts[4]).unwrap();
    assert_eq!(out.base_id(), spectra_before);
    let (assignment, medoids) = store.union_assignment().unwrap();
    assert_eq!(assignment.len() as u64, store.next_spectrum_id());
    assert_eq!(medoids.len(), store.num_clusters());
}

#[test]
fn crash_at_any_byte_of_the_post_refresh_save_never_corrupts() {
    let union = Data::new(Gen::Union, 300, 34);
    let engine = SpecHd::new(SpecHdConfig::default());
    let path = Path::new("stores/refreshed.shpk");

    let mut store = drifted_store(&engine, &union, 4);
    let mem = MemIo::new();
    store.save_with(&mem, path).unwrap();
    let before = store.to_bytes();

    engine.refresh_store(&mut store).unwrap();
    let after = store.to_bytes();
    assert_ne!(before, after, "drift scenario must actually change bytes");

    // Sweep the crash point across the entire post-refresh save.
    let total = after.len() as u64 + 128;
    let mut recovered_old = 0u32;
    let mut recovered_new = 0u32;
    for budget in (0..total).step_by(97) {
        let mem_run = MemIo::new();
        // Seed the filesystem with the durable pre-refresh image.
        let seed_io = FaultIo::new(mem_run.clone(), FaultPlan::crash_after_bytes(u64::MAX));
        ClusterStore::from_bytes(&before)
            .unwrap()
            .save_with(&seed_io, path)
            .unwrap();

        let io = FaultIo::new(mem_run.clone(), FaultPlan::crash_after_bytes(budget));
        let saved = store.save_with(&io, path);

        let (loaded, _report) = ClusterStore::load_or_recover_with(&mem_run, path)
            .expect("recovery must always find a checksum-clean image");
        let loaded_bytes = loaded.to_bytes();
        if saved.is_ok() {
            assert_eq!(loaded_bytes, after, "completed save must read back");
        }
        if loaded_bytes == before {
            recovered_old += 1;
        } else if loaded_bytes == after {
            recovered_new += 1;
        } else {
            panic!("recovered image is neither pre- nor post-refresh");
        }
    }
    assert!(recovered_old > 0, "some crash points keep the old image");
    assert!(recovered_new > 0, "some crash points reach the new image");
}
