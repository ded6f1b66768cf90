//! Old SHPK files keep loading. `tests/golden/shpk_v1_rows.shpk` is a
//! row-keeping version-1 archive written by the version-1 writer from
//! [`recipe`]; it must load to the store the recipe builds today, migrate
//! to version 2 at its next save, and have its footer checked by the
//! checksum its version field names.

use spechd_core::{SpecHd, SpecHdConfig};
use spechd_store::{ClusterStore, StoreError};
use spechd_tests::synthetic_dataset;

const FIXTURE: &[u8] = include_bytes!("../golden/shpk_v1_rows.shpk");

/// What the fixture holds: two installments (24 then 16 spectra) into a
/// row-keeping store under the default configuration.
fn recipe() -> ClusterStore {
    let engine = SpecHd::new(SpecHdConfig::default());
    let mut store = engine.new_store_keeping_rows().unwrap();
    for (n, seed) in [(24, 0x5631), (16, 0x5632)] {
        engine
            .run_incremental(&mut store, &synthetic_dataset(n, seed))
            .unwrap();
    }
    store
}

/// FNV-1a 64, the version-1 footer's checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn version(bytes: &[u8]) -> u16 {
    u16::from_le_bytes([bytes[4], bytes[5]])
}

#[test]
fn fixture_is_the_recorded_version_1_file() {
    assert_eq!(FIXTURE.len(), 16_244);
    assert_eq!(version(FIXTURE), 1);
    assert_eq!(fnv1a64(FIXTURE), 0x691c_ae16_7ef7_630f);
    // A version-1 footer is the FNV-1a 64 of everything before it.
    let (payload, footer) = FIXTURE.split_at(FIXTURE.len() - 8);
    assert_eq!(footer, fnv1a64(payload).to_le_bytes());
}

#[test]
fn fixture_loads_to_the_store_the_recipe_builds() {
    let store = ClusterStore::from_bytes(FIXTURE).unwrap();
    assert!(store.keeps_member_rows());
    assert_eq!(store.next_spectrum_id(), 40);
    assert_eq!(store, recipe());
}

#[test]
fn fixture_resaves_as_a_version_2_fixed_point() {
    let recipe = recipe();
    let migrated = ClusterStore::from_bytes(FIXTURE).unwrap().to_bytes();
    assert_eq!(version(&migrated), 2);
    assert_eq!(migrated, recipe.to_bytes());
    // Only the version field and the footer differ: layout and size
    // carry over.
    let body = 6..FIXTURE.len() - 8;
    assert_eq!(migrated.len(), FIXTURE.len());
    assert_eq!(migrated[..4], FIXTURE[..4]);
    assert_eq!(migrated[body.clone()], FIXTURE[body]);
    let reloaded = ClusterStore::from_bytes(&migrated).unwrap();
    assert_eq!(reloaded, recipe);
    assert_eq!(reloaded.to_bytes(), migrated);
}

#[test]
fn a_flipped_body_bit_fails_the_version_1_checksum() {
    let mut bytes = FIXTURE.to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    let err = ClusterStore::from_bytes(&bytes).unwrap_err();
    assert!(matches!(err, StoreError::ChecksumMismatch { .. }), "{err}");
}

#[test]
fn the_version_field_picks_the_checksum() {
    // Claiming version 2 over a version-1 footer: the reader checks the
    // lane sum, which the FNV-1a footer does not match.
    let mut bytes = FIXTURE.to_vec();
    bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
    let err = ClusterStore::from_bytes(&bytes).unwrap_err();
    assert!(matches!(err, StoreError::ChecksumMismatch { .. }), "{err}");
}
