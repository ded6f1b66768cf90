//! Cross-process persistence contract of `spechd-store`: a store written
//! by one process reloads bit-identically in another (simulated here by
//! going through the filesystem and fresh deserialization), and every
//! class of file damage surfaces as a specific typed [`StoreError`] —
//! never a panic, never partial state.

use spechd_core::{SpecHd, SpecHdConfig};
use spechd_store::{ClusterStore, StoreError};
use spechd_tests::{synthetic_dataset as dataset, TempDir};

/// A store populated through the real incremental pipeline, so the bytes
/// under test carry genuine medoid rows and memberships.
fn populated_store() -> (SpecHd, ClusterStore) {
    let engine = SpecHd::new(SpecHdConfig::default());
    let mut store = engine.new_store().unwrap();
    engine
        .run_incremental(&mut store, &dataset(250, 81))
        .unwrap();
    (engine, store)
}

#[test]
fn file_round_trip_is_bit_identical() {
    let (_, store) = populated_store();
    assert!(store.num_buckets() > 0 && store.num_clusters() > 0);

    let dir = TempDir::new("store-roundtrip");
    let path = dir.join("store.shpk");
    store.save(&path).unwrap();
    let reloaded = ClusterStore::load(&path).unwrap();
    assert_eq!(reloaded, store, "reload must reproduce the exact store");

    // Re-saving the reloaded store writes the exact same bytes — the
    // format is canonical, so persistence is idempotent across sessions.
    let original_bytes = std::fs::read(&path).unwrap();
    assert_eq!(reloaded.to_bytes(), original_bytes);
}

#[test]
fn reloaded_store_continues_clustering_identically() {
    let (engine, mut live) = populated_store();
    let mut reloaded = ClusterStore::from_bytes(&live.to_bytes()).unwrap();

    let next = dataset(120, 82);
    let from_live = engine.run_incremental(&mut live, &next).unwrap();
    let from_reloaded = engine.run_incremental(&mut reloaded, &next).unwrap();
    assert_eq!(from_live.assignment(), from_reloaded.assignment());
    assert_eq!(from_live.consensus(), from_reloaded.consensus());
    assert_eq!(live, reloaded, "both sessions end in the same state");
}

#[test]
fn missing_file_is_io_error_naming_the_path() {
    let dir = TempDir::new("store-missing");
    let path = dir.join("never-written.shpk");
    let err = ClusterStore::load(&path).unwrap_err();
    assert!(matches!(err, StoreError::Io { .. }), "{err}");
    let msg = err.to_string();
    assert!(
        msg.contains(path.to_string_lossy().as_ref()),
        "i/o error must name the file involved: {msg}"
    );
}

#[test]
fn truncation_at_every_prefix_is_typed_and_panic_free() {
    let (_, store) = populated_store();
    let bytes = store.to_bytes();
    // Every strict prefix must fail with a *typed* error. Short prefixes
    // report Truncated; prefixes that still cover the whole header +
    // table report the mismatch between declared and actual length.
    for len in 0..bytes.len() {
        let err = ClusterStore::from_bytes(&bytes[..len]).unwrap_err();
        assert!(
            matches!(err, StoreError::Truncated { .. }),
            "prefix {len}: {err}"
        );
    }
}

#[test]
fn bad_magic_is_reported_first() {
    let (_, store) = populated_store();
    let mut bytes = store.to_bytes();
    bytes[..4].copy_from_slice(b"GIF8");
    let err = ClusterStore::from_bytes(&bytes).unwrap_err();
    assert!(
        matches!(err, StoreError::BadMagic { found } if &found == b"GIF8"),
        "{err}"
    );
}

#[test]
fn future_version_is_refused_with_the_version() {
    let (_, store) = populated_store();
    let mut bytes = store.to_bytes();
    bytes[4..6].copy_from_slice(&7u16.to_le_bytes());
    let err = ClusterStore::from_bytes(&bytes).unwrap_err();
    assert!(
        matches!(err, StoreError::UnsupportedVersion { found: 7 }),
        "{err}"
    );
}

#[test]
fn dim_stride_mismatch_is_refused() {
    let (_, store) = populated_store();
    let mut bytes = store.to_bytes();
    // dim 2048 → stride 32; claim stride 33.
    bytes[12..16].copy_from_slice(&33u32.to_le_bytes());
    let err = ClusterStore::from_bytes(&bytes).unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::StrideMismatch {
                dim: 2048,
                stride: 33
            }
        ),
        "{err}"
    );
}

#[test]
fn corruption_and_trailing_bytes_are_caught() {
    let (_, store) = populated_store();
    let bytes = store.to_bytes();

    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    assert!(matches!(
        ClusterStore::from_bytes(&flipped).unwrap_err(),
        StoreError::ChecksumMismatch { .. }
    ));

    let mut longer = bytes;
    longer.extend_from_slice(b"junk");
    assert!(matches!(
        ClusterStore::from_bytes(&longer).unwrap_err(),
        StoreError::TrailingBytes { .. }
    ));
}

#[test]
fn config_skew_is_refused_before_any_clustering() {
    let (_, store) = populated_store();
    let dir = TempDir::new("store-skew");
    store.save(dir.join("store.shpk")).unwrap();
    let reloaded = ClusterStore::load(dir.join("store.shpk")).unwrap();

    // An engine with any result-affecting knob changed must refuse the
    // store up front rather than silently mixing incomparable
    // hypervectors.
    let other = SpecHd::new(
        SpecHdConfig::builder()
            .distance_threshold_fraction(0.25)
            .build(),
    );
    let mut reloaded = reloaded;
    let err = other
        .run_incremental(&mut reloaded, &dataset(20, 83))
        .unwrap_err();
    assert!(
        matches!(
            err,
            spechd_core::SpecHdError::Store(StoreError::ConfigMismatch { .. })
        ),
        "{err}"
    );
    assert_eq!(
        reloaded, store,
        "a refused session must leave the store untouched"
    );
}

#[test]
fn errors_are_std_error_with_sources() {
    // The typed errors compose into `Box<dyn Error>` call chains.
    let err: Box<dyn std::error::Error> =
        Box::new(ClusterStore::from_bytes(&[0u8; 3]).unwrap_err());
    assert!(err.to_string().contains("truncated"));
}
