//! Crash-safety contract of `ClusterStore` persistence: **any**
//! interrupted save leaves a loadable store.
//!
//! The matrix drives [`ClusterStore::save_with`] through a [`FaultIo`]
//! over an in-memory filesystem, crashing at every byte offset of the
//! written image and at every operation boundary of the durability
//! protocol (write → fsync → rename-to-`.bak` → rename-into-place →
//! dir fsync), then proves [`ClusterStore::load_or_recover_with`]
//! still produces a checksum-valid generation — the previous one if
//! the save died early, the new one if it died after the commit point
//! — with a typed [`RecoveryReport`] saying which. A real-filesystem
//! test pins the same behavior for `.bak` recovery through [`DiskIo`].

use spechd_core::{SpecHd, SpecHdConfig};
use spechd_store::io::{backup_path, pending_path};
use spechd_store::{ClusterStore, FaultIo, FaultPlan, MemIo, RecoverySource, StoreError, StoreIo};
use spechd_tests::{synthetic_dataset, TempDir};
use std::path::Path;

/// Two consecutive generations of one store, produced by the real
/// incremental pipeline so the bytes under test are genuine.
fn two_generations() -> (ClusterStore, ClusterStore) {
    let engine = SpecHd::new(SpecHdConfig::default());
    let mut store = engine.new_store().unwrap();
    engine
        .run_incremental(&mut store, &synthetic_dataset(12, 0xD1))
        .unwrap();
    let gen1 = store.clone();
    engine
        .run_incremental(&mut store, &synthetic_dataset(8, 0xD2))
        .unwrap();
    assert_ne!(gen1, store, "second run must change the store");
    (gen1, store)
}

/// The tentpole guarantee, exhaustively: a crash after **any** byte of
/// the new image's write leaves the previous generation recoverable,
/// and a crash after the full write leaves the new generation
/// committed.
#[test]
fn crash_at_every_byte_offset_leaves_a_loadable_store() {
    let (gen1, gen2) = two_generations();
    let gen1_bytes = gen1.to_bytes();
    let image = gen2.to_bytes();
    let path = Path::new("store.shpk");

    for k in 0..=image.len() as u64 {
        let mem = MemIo::new();
        mem.plant(path, gen1_bytes.clone());
        let io = FaultIo::new(mem.clone(), FaultPlan::crash_after_bytes(k));
        let saved = gen2.save_with(&io, path);

        let (loaded, report) = ClusterStore::load_or_recover_with(&mem, path)
            .unwrap_or_else(|e| panic!("crash after byte {k}: nothing recoverable: {e}"));
        if saved.is_ok() {
            assert_eq!(loaded, gen2, "crash after byte {k}: commit must stick");
        } else {
            assert_eq!(
                loaded, gen1,
                "crash after byte {k}: previous generation must survive"
            );
            assert_eq!(report.source, RecoverySource::Primary);
            assert!(!report.recovered());
        }
    }
}

/// Crash at every *operation* boundary of the durability protocol. The
/// interesting point is between the two renames: the primary is gone,
/// and recovery must find the already-synced pending generation.
#[test]
fn crash_at_every_operation_boundary_recovers_a_valid_generation() {
    let (gen1, gen2) = two_generations();
    let gen1_bytes = gen1.to_bytes();
    let path = Path::new("store.shpk");

    // Ops during a save over an existing primary: 0 = write image,
    // 1 = fsync tmp, 2 = rename primary→bak, 3 = rename tmp→primary,
    // 4 = fsync parent dir; budget 5 lets everything through.
    for ops in 0..=5u64 {
        let mem = MemIo::new();
        mem.plant(path, gen1_bytes.clone());
        let io = FaultIo::new(mem.clone(), FaultPlan::crash_after_ops(ops));
        let saved = gen2.save_with(&io, path);
        assert_eq!(saved.is_ok(), ops >= 5, "op budget {ops}");

        let (loaded, report) = ClusterStore::load_or_recover_with(&mem, path)
            .unwrap_or_else(|e| panic!("crash after op {ops}: nothing recoverable: {e}"));
        match ops {
            // Save died before the primary was touched.
            0..=2 => {
                assert_eq!(loaded, gen1, "op {ops}");
                assert_eq!(report.source, RecoverySource::Primary, "op {ops}");
            }
            // Between the renames: primary missing, pending is newer
            // than the backup and already synced — recovery must
            // prefer it and say so.
            3 => {
                assert_eq!(loaded, gen2, "op 3 recovers the pending generation");
                assert_eq!(report.source, RecoverySource::Pending);
                assert!(report.recovered());
                assert_eq!(report.loaded_from, pending_path(path));
                let primary_error = report.primary_error.expect("primary failure is reported");
                assert!(
                    matches!(*primary_error, StoreError::Io { .. }),
                    "missing primary reports as a typed i/o error: {primary_error}"
                );
            }
            // Commit point passed: the new generation is the primary.
            _ => {
                assert_eq!(loaded, gen2, "op {ops}");
                assert_eq!(report.source, RecoverySource::Primary, "op {ops}");
            }
        }
    }
}

/// A successful save keeps the previous generation as `.bak`, and a
/// post-save corruption of the primary recovers from it with a typed
/// report naming the damage.
#[test]
fn corrupted_primary_recovers_from_backup() {
    let (gen1, gen2) = two_generations();
    let path = Path::new("store.shpk");
    let mem = MemIo::new();
    gen1.save_with(&mem, path).unwrap();
    gen2.save_with(&mem, path).unwrap();
    assert_eq!(
        mem.contents(&backup_path(path)).unwrap(),
        gen1.to_bytes(),
        "previous generation preserved as .bak"
    );
    assert!(
        mem.contents(&pending_path(path)).is_none(),
        "no stale .tmp after a clean save"
    );

    // Bit rot in the primary.
    let mut damaged = mem.contents(path).unwrap();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x10;
    mem.plant(path, damaged);

    let (loaded, report) = ClusterStore::load_or_recover_with(&mem, path).unwrap();
    assert_eq!(loaded, gen1, "backup generation recovered");
    assert_eq!(report.source, RecoverySource::Backup);
    assert_eq!(report.loaded_from, backup_path(path));
    assert!(matches!(
        *report.primary_error.expect("damage is reported"),
        StoreError::ChecksumMismatch { .. }
    ));
}

/// ENOSPC mid-save: the save fails with an `Io` error naming the
/// *pending* file (the primary was never touched), and the previous
/// generation still loads without recovery.
#[test]
fn enospc_fails_the_save_but_never_the_store() {
    let (gen1, gen2) = two_generations();
    let path = Path::new("store.shpk");
    let mem = MemIo::new();
    gen1.save_with(&mem, path).unwrap();

    let budget = gen2.to_bytes().len() as u64 / 2;
    let io = FaultIo::new(mem.clone(), FaultPlan::enospc_after_bytes(budget));
    let err = gen2.save_with(&io, path).unwrap_err();
    match &err {
        StoreError::Io { path: failed, .. } => {
            assert_eq!(failed, &pending_path(path), "error names the pending file");
        }
        other => panic!("expected Io error, got {other}"),
    }
    assert!(io.tripped());

    // The device is full but the data is safe: a plain load (no
    // recovery machinery) still returns the committed generation.
    assert_eq!(ClusterStore::load_with(&mem, path).unwrap(), gen1);
}

/// An interrupted **first** save has no previous generation to fall
/// back to; recovery must fail with the primary's typed error rather
/// than panic or fabricate a store.
#[test]
fn interrupted_first_save_reports_a_typed_error() {
    let (gen1, _) = two_generations();
    let path = Path::new("store.shpk");
    let mem = MemIo::new();
    let io = FaultIo::new(mem.clone(), FaultPlan::crash_after_bytes(10));
    assert!(gen1.save_with(&io, path).is_err());

    let err = ClusterStore::load_or_recover_with(&mem, path).unwrap_err();
    assert!(
        matches!(err, StoreError::Io { .. }),
        "no generation to recover: {err}"
    );
}

/// The same `.bak` recovery through the production [`DiskIo`] path on a
/// real filesystem, via the non-`_with` convenience API.
#[test]
fn backup_recovery_works_on_the_real_filesystem() {
    let (gen1, gen2) = two_generations();
    let dir = TempDir::new("durability");
    let path = dir.join("store.shpk");

    gen1.save(&path).unwrap();
    gen2.save(&path).unwrap();
    let mut damaged = std::fs::read(&path).unwrap();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x04;
    std::fs::write(&path, &damaged).unwrap();

    let (loaded, report) = ClusterStore::load_or_recover(&path).unwrap();
    assert_eq!(loaded, gen1);
    assert_eq!(report.source, RecoverySource::Backup);
    assert!(report.recovered());

    // An undamaged primary loads without recovery.
    gen2.save(&path).unwrap();
    let (loaded, report) = ClusterStore::load_or_recover(&path).unwrap();
    assert_eq!(loaded, gen2);
    assert!(!report.recovered());
    assert!(report.primary_error.is_none());
}

/// `MemIo` honors the same `StoreIo` contract `DiskIo` does for the
/// fragments the durability protocol relies on (rename replaces,
/// exists reflects renames) — keeping the in-memory matrix honest.
#[test]
fn mem_io_matches_the_disk_contract_for_renames() {
    let mem = MemIo::new();
    let a = Path::new("a");
    let b = Path::new("b");
    mem.write(a, b"one").unwrap();
    mem.write(b, b"two").unwrap();
    mem.rename(a, b).unwrap();
    assert!(!mem.exists(a));
    assert_eq!(mem.read(b).unwrap(), b"one", "rename replaces destination");
}
