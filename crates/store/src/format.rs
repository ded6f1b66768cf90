//! The versioned `SHPK` byte format (see the [crate docs](crate) for the
//! layout diagram).
//!
//! The writer is canonical: buckets in ascending key order, sections laid
//! out back-to-back in table order, every reserved field zero. The reader
//! *requires* that canonical form, so `to_bytes ∘ from_bytes` is the
//! identity on valid files and any two stores with equal contents have
//! equal bytes. Validation is strictly ordered — truncation, magic,
//! version, header consistency, total length, checksum, body, then id
//! coverage — so a hostile file always reports its outermost defect.
//! Every read goes through the workspace's shared little-endian cursor,
//! [`spechd_hdc::LeReader`]; each names what it reads, so a short read is
//! a self-describing [`StoreError::Truncated`].

use crate::store::{ClusterStore, StoredBucket, StoredCluster, StoredMember};
use crate::StoreError;
use spechd_hdc::{HvPack, LeReader, Short};
use std::collections::BTreeMap;

/// File magic, first four bytes of every store file.
pub(crate) const MAGIC: [u8; 4] = *b"SHPK";
/// Current (and only) format version.
pub(crate) const VERSION: u16 = 1;
/// Header flag bit: every bucket section carries a member hypervector
/// row per member record (a row-keeping store, see
/// [`ClusterStore::new_keeping_rows`]). All other flag bits are
/// reserved and must be zero.
pub(crate) const FLAG_MEMBER_ROWS: u16 = 0x0001;

const HEADER_LEN: usize = 36;
const TABLE_ENTRY_LEN: usize = 24;
const CLUSTER_META_LEN: usize = 16;
const MEMBER_LEN: usize = 12;
const FOOTER_LEN: usize = 8;

/// FNV-1a 64 over `bytes` — the footer checksum. Not cryptographic; it
/// exists to catch bit rot and truncated writes, not tampering.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A bucket section's byte length. Counts and stride of at most
/// `u32::MAX` keep it under `2^63`, so the sum cannot overflow.
fn section_len(cluster_count: u32, member_count: u32, stride: u32, member_rows: bool) -> u64 {
    let (clusters, members) = (u64::from(cluster_count), u64::from(member_count));
    let rows = if member_rows { members } else { 0 };
    clusters * CLUSTER_META_LEN as u64
        + (clusters + rows) * u64::from(stride) * 8
        + members * MEMBER_LEN as u64
}

/// A record count as its `u32` field. Memory runs out long before one
/// store holds `2^32` records of one kind, so the conversion cannot fail.
fn count_field(count: usize) -> u32 {
    u32::try_from(count).expect("SHPK counts are u32: no store holds 2^32 records")
}

pub(crate) fn to_bytes(store: &ClusterStore) -> Vec<u8> {
    let dim = store.header_dim();
    let stride = dim.div_ceil(64);
    let keep_rows = store.keeps_member_rows();
    let buckets = store.buckets();
    // A bucket's two counts as their fields, and its section's length.
    let section = |b: &StoredBucket| {
        let c = count_field(b.clusters().len());
        let m = count_field(b.members().len());
        (c, m, section_len(c, m, stride, keep_rows))
    };
    let body_len: u64 = buckets.values().map(|b| section(b).2).sum();
    let total = HEADER_LEN + buckets.len() * TABLE_ENTRY_LEN + body_len as usize + FOOTER_LEN;
    let mut out = Vec::with_capacity(total);

    // Header.
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    let flags = if keep_rows { FLAG_MEMBER_ROWS } else { 0 };
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&dim.to_le_bytes());
    out.extend_from_slice(&stride.to_le_bytes());
    out.extend_from_slice(&store.fingerprint().to_le_bytes());
    out.extend_from_slice(&store.next_spectrum_id().to_le_bytes());
    out.extend_from_slice(&count_field(buckets.len()).to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN);

    // Section table: offsets are from the body start and strictly
    // sequential — the reader rejects anything else.
    let mut offset = 0u64;
    for (key, bucket) in buckets {
        let (clusters, members, len) = section(bucket);
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&clusters.to_le_bytes());
        out.extend_from_slice(&members.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        offset += len;
    }

    // Body.
    for bucket in buckets.values() {
        for c in bucket.clusters() {
            out.extend_from_slice(&c.medoid_id.to_le_bytes());
            out.extend_from_slice(&c.members.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes()); // reserved
        }
        for word in bucket.medoids().words() {
            out.extend_from_slice(&word.to_le_bytes());
        }
        for m in bucket.members() {
            out.extend_from_slice(&m.id.to_le_bytes());
            out.extend_from_slice(&m.cluster.to_le_bytes());
        }
        if keep_rows {
            // Every constructor gives a row-keeping store's buckets rows.
            let rows = bucket
                .member_rows()
                .expect("row-keeping store bucket has member rows");
            for word in rows.words() {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
    }

    // Footer.
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    debug_assert_eq!(out.len(), total);
    out
}

/// Names what a short read was reading.
fn reading(context: &'static str) -> impl FnOnce(Short) -> StoreError {
    move |short| StoreError::Truncated {
        context,
        needed: short.wanted,
        available: short.have,
    }
}

struct TableEntry {
    key: i64,
    cluster_count: usize,
    member_count: usize,
    offset: u64,
}

pub(crate) fn from_bytes(bytes: &[u8]) -> Result<ClusterStore, StoreError> {
    let mut r = LeReader::new(bytes);

    // Header — checked field by field so the first defect wins.
    let magic = r.array().map_err(reading("header magic"))?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic { found: magic });
    }
    let version = r.u16().map_err(reading("header version"))?;
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let flags = r.u16().map_err(reading("header flags"))?;
    if flags & !FLAG_MEMBER_ROWS != 0 {
        return Err(StoreError::Corrupt(format!(
            "reserved header flags must be zero, found {flags:#06x}"
        )));
    }
    let keep_rows = flags & FLAG_MEMBER_ROWS != 0;
    let dim = r.u32().map_err(reading("header dim"))?;
    let stride = r.u32().map_err(reading("header stride"))?;
    if dim == 0 || (dim as usize).div_ceil(64) != stride as usize {
        return Err(StoreError::StrideMismatch { dim, stride });
    }
    let fingerprint = r.u64().map_err(reading("header fingerprint"))?;
    let next_id = r.u64().map_err(reading("header next_id"))?;
    let bucket_count = r.u32().map_err(reading("header bucket_count"))? as usize;

    // Section table. Offsets must be exactly sequential (canonical form);
    // anything else would let sections alias each other.
    let mut table = Vec::with_capacity(bucket_count.min(1 << 16));
    let mut expected_offset = 0u64;
    for i in 0..bucket_count {
        let key = r.i64().map_err(reading("table key"))?;
        if let Some(prev) = table.last().map(|e: &TableEntry| e.key) {
            if key <= prev {
                return Err(StoreError::Corrupt(format!(
                    "bucket keys must be strictly ascending ({prev} then {key})"
                )));
            }
        }
        let cluster_count = r.u32().map_err(reading("table cluster_count"))?;
        let member_count = r.u32().map_err(reading("table member_count"))?;
        let offset = r.u64().map_err(reading("table offset"))?;
        if offset != expected_offset {
            return Err(StoreError::Corrupt(format!(
                "bucket {i} section offset {offset} is not sequential (expected {expected_offset})"
            )));
        }
        let len = section_len(cluster_count, member_count, stride, keep_rows);
        expected_offset = expected_offset.checked_add(len).ok_or_else(|| {
            StoreError::Corrupt("section offsets overflow the 64-bit file space".into())
        })?;
        table.push(TableEntry {
            key,
            cluster_count: cluster_count as usize,
            member_count: member_count as usize,
            offset,
        });
    }

    // Total length: header + table + body + footer must match the file
    // exactly before the checksum (and any section parse) is trusted.
    let expected_total = usize::try_from(expected_offset)
        .ok()
        .and_then(|body| (HEADER_LEN + bucket_count * TABLE_ENTRY_LEN).checked_add(body))
        .and_then(|len| len.checked_add(FOOTER_LEN))
        .ok_or_else(|| StoreError::Corrupt("file length overflows the address space".into()))?;
    match bytes.len().cmp(&expected_total) {
        std::cmp::Ordering::Less => {
            return Err(StoreError::Truncated {
                context: "bucket sections",
                needed: expected_total,
                available: bytes.len(),
            })
        }
        std::cmp::Ordering::Greater => {
            return Err(StoreError::TrailingBytes {
                expected: expected_total,
                found: bytes.len(),
            })
        }
        std::cmp::Ordering::Equal => {}
    }
    let (payload, footer) = bytes.split_at(expected_total - FOOTER_LEN);
    let stored = LeReader::new(footer).u64().map_err(reading("footer"))?;
    let computed = fnv1a64(payload);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }

    // Body. The cursor walks sections in table order, which the offset
    // check above made equivalent to file order.
    let stride = stride as usize;
    let mut buckets = BTreeMap::new();
    for entry in &table {
        debug_assert_eq!(
            r.position(),
            HEADER_LEN + bucket_count * TABLE_ENTRY_LEN + entry.offset as usize
        );
        if entry.cluster_count == 0 && entry.member_count == 0 {
            return Err(StoreError::Corrupt(format!(
                "bucket {} is empty; empty buckets are never written",
                entry.key
            )));
        }
        let mut clusters = Vec::with_capacity(entry.cluster_count);
        for c in 0..entry.cluster_count {
            let medoid_id = r.u64().map_err(reading("cluster medoid id"))?;
            let members = r.u32().map_err(reading("cluster member count"))?;
            let reserved = r.u32().map_err(reading("cluster reserved field"))?;
            if reserved != 0 {
                return Err(StoreError::Corrupt(format!(
                    "cluster {c} of bucket {} has non-zero reserved field",
                    entry.key
                )));
            }
            if medoid_id >= next_id {
                return Err(StoreError::Corrupt(format!(
                    "medoid id {medoid_id} of bucket {} is outside the id space (next id {next_id})",
                    entry.key
                )));
            }
            clusters.push(StoredCluster { medoid_id, members });
        }
        let words = r
            .words(entry.cluster_count * stride)
            .map_err(reading("medoid rows"))?;
        // Tail-invariant violations surface as StoreError::Pack here.
        let medoids = HvPack::from_raw_parts(dim as usize, words)?;
        let mut counted = vec![0u32; entry.cluster_count];
        let mut members = Vec::with_capacity(entry.member_count);
        for _ in 0..entry.member_count {
            let id = r.u64().map_err(reading("member id"))?;
            let cluster = r.u32().map_err(reading("member cluster"))?;
            if id >= next_id {
                return Err(StoreError::Corrupt(format!(
                    "member id {id} of bucket {} is outside the id space (next id {next_id})",
                    entry.key
                )));
            }
            let slot = counted.get_mut(cluster as usize).ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "member of bucket {} references cluster {cluster} of {}",
                    entry.key, entry.cluster_count
                ))
            })?;
            *slot += 1;
            members.push(StoredMember { id, cluster });
        }
        for (c, (meta, &count)) in clusters.iter().zip(&counted).enumerate() {
            if meta.members != count {
                return Err(StoreError::Corrupt(format!(
                    "cluster {c} of bucket {} declares {} members but {count} are listed",
                    entry.key, meta.members
                )));
            }
        }
        let member_rows = if keep_rows {
            let words = r
                .words(entry.member_count * stride)
                .map_err(reading("member rows"))?;
            Some(HvPack::from_raw_parts(dim as usize, words)?)
        } else {
            None
        };
        buckets.insert(
            entry.key,
            StoredBucket {
                medoids,
                clusters,
                members,
                member_rows,
            },
        );
    }
    debug_assert_eq!(r.position(), expected_total - FOOTER_LEN);

    let store = ClusterStore::from_parts(dim, fingerprint, next_id, keep_rows, buckets);
    store.covered()?;
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_hdc::BinaryHypervector;
    use spechd_rng::Xoshiro256StarStar;

    /// Bucket 5 holds ids 0 and 1 in one cluster, bucket 9 holds id 2.
    fn sample_store_bytes(dim: usize, keep_rows: bool) -> Vec<u8> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mut row = || BinaryHypervector::random(dim, &mut rng).words().to_vec();
        // Id 1's row is drawn only where it is kept.
        let (r0, r1) = (row(), if keep_rows { row() } else { Vec::new() });
        let members = [(5, 0, 0, &r0[..]), (5, 0, 1, &r1), (9, 0, 2, &row())];
        ClusterStore::fixture(dim, 0xABCD, keep_rows, &members).to_bytes()
    }

    fn sample_bytes(dim: usize) -> Vec<u8> {
        sample_store_bytes(dim, false)
    }

    /// Same shape as [`sample_bytes`] but through a row-keeping store,
    /// so the member-rows section and flag bit are exercised.
    fn sample_bytes_with_rows(dim: usize) -> Vec<u8> {
        sample_store_bytes(dim, true)
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn truncated_header_reports_context() {
        let bytes = sample_bytes(100);
        let err = from_bytes(&bytes[..10]).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Truncated {
                    context: "header dim",
                    ..
                }
            ),
            "{err}"
        );
        assert!(matches!(
            from_bytes(&[]).unwrap_err(),
            StoreError::Truncated {
                context: "header magic",
                ..
            }
        ));
    }

    #[test]
    fn bad_magic_wins_over_everything_else() {
        let mut bytes = sample_bytes(100);
        bytes[0] = b'X';
        assert!(matches!(
            from_bytes(&bytes).unwrap_err(),
            StoreError::BadMagic {
                found: [b'X', b'H', b'P', b'K']
            }
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample_bytes(100);
        bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        assert!(matches!(
            from_bytes(&bytes).unwrap_err(),
            StoreError::UnsupportedVersion { found: 2 }
        ));
    }

    #[test]
    fn stride_dim_disagreement_is_rejected() {
        let mut bytes = sample_bytes(100); // stride 2
        bytes[12..16].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            from_bytes(&bytes).unwrap_err(),
            StoreError::StrideMismatch {
                dim: 100,
                stride: 3
            }
        ));
    }

    #[test]
    fn truncated_body_and_trailing_bytes_are_distinguished() {
        let bytes = sample_bytes(100);
        let err = from_bytes(&bytes[..bytes.len() - 9]).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Truncated {
                    context: "bucket sections",
                    ..
                }
            ),
            "{err}"
        );
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(matches!(
            from_bytes(&longer).unwrap_err(),
            StoreError::TrailingBytes { .. }
        ));
    }

    #[test]
    fn flipped_bit_fails_the_checksum() {
        let mut bytes = sample_bytes(100);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            from_bytes(&bytes).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));
    }

    /// Re-seals a tampered file so the corruption reaches the body parser
    /// instead of stopping at the checksum.
    fn reseal(bytes: &mut [u8]) {
        let payload_len = bytes.len() - FOOTER_LEN;
        let checksum = fnv1a64(&bytes[..payload_len]);
        bytes[payload_len..].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn non_sequential_offset_is_corrupt() {
        let mut bytes = sample_bytes(100);
        // Second table entry's offset field.
        let pos = HEADER_LEN + TABLE_ENTRY_LEN + 16;
        bytes[pos..pos + 8].copy_from_slice(&1u64.to_le_bytes());
        reseal(&mut bytes);
        let err = from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("not sequential"), "{err}");
    }

    #[test]
    fn member_referencing_missing_cluster_is_corrupt() {
        let mut bytes = sample_bytes(100);
        // Bucket 5's first member record sits after its single cluster
        // meta (16 B) and medoid row (stride 2 → 16 B); its cluster field
        // is 8 bytes in.
        let body = HEADER_LEN + 2 * TABLE_ENTRY_LEN;
        let pos = body + CLUSTER_META_LEN + 2 * 8 + 8;
        bytes[pos..pos + 4].copy_from_slice(&7u32.to_le_bytes());
        reseal(&mut bytes);
        let err = from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("references cluster 7"), "{err}");
    }

    #[test]
    fn member_count_mismatch_is_corrupt() {
        let mut bytes = sample_bytes(100);
        // Bucket 5's cluster meta declares 2 members; claim 3.
        let body = HEADER_LEN + 2 * TABLE_ENTRY_LEN;
        let pos = body + 8;
        bytes[pos..pos + 4].copy_from_slice(&3u32.to_le_bytes());
        reseal(&mut bytes);
        let err = from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("declares 3 members"), "{err}");
    }

    #[test]
    fn nonzero_tail_bits_surface_as_pack_error() {
        let mut bytes = sample_bytes(100);
        // Last byte of bucket 5's medoid row (word 1 of stride 2 holds
        // bits 64..100; byte 7 of that word is bits 120..128, all beyond
        // dim 100).
        let body = HEADER_LEN + 2 * TABLE_ENTRY_LEN;
        let pos = body + CLUSTER_META_LEN + 15;
        bytes[pos] = 0xFF;
        reseal(&mut bytes);
        assert!(matches!(
            from_bytes(&bytes).unwrap_err(),
            StoreError::Pack(spechd_hdc::PackError::NonZeroTail { row: 0 })
        ));
    }

    #[test]
    fn out_of_range_ids_are_corrupt() {
        let mut bytes = sample_bytes(100);
        // Bucket 5's medoid id (first field of its first cluster meta).
        let body = HEADER_LEN + 2 * TABLE_ENTRY_LEN;
        bytes[body..body + 8].copy_from_slice(&99u64.to_le_bytes());
        reseal(&mut bytes);
        let err = from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("medoid id 99"), "{err}");
    }

    #[test]
    fn every_single_byte_corruption_is_detected_or_equivalent() {
        // Flipping any one bit either fails validation or (never) yields a
        // different store that round-trips to the same bytes. This is the
        // belt-and-braces sweep behind the targeted cases above.
        for bytes in [sample_bytes(65), sample_bytes_with_rows(65)] {
            let original = from_bytes(&bytes).unwrap();
            for i in 0..bytes.len() {
                let mut mutated = bytes.clone();
                mutated[i] ^= 1;
                match from_bytes(&mutated) {
                    Err(_) => {}
                    Ok(store) => {
                        panic!(
                            "byte {i} flip silently accepted (stores {}equal)",
                            if store == original { "" } else { "un" }
                        );
                    }
                }
            }
        }
    }

    /// Header and table only (228 bytes): `dim = u32::MAX` makes each
    /// cluster `2^29 + 16` bytes, and eight sequential sections sum to
    /// `2^64 - 232`, so header + table + body + footer is one past the
    /// address space. That must be `Corrupt`, not an overflow.
    #[test]
    fn file_length_past_the_address_space_is_corrupt() {
        let stride = u32::MAX.div_ceil(64);
        let cluster_len = (CLUSTER_META_LEN + stride as usize * 8) as u64;
        let mut bytes = MAGIC.to_vec();
        bytes.extend(VERSION.to_le_bytes());
        bytes.extend(0u16.to_le_bytes()); // flags
        bytes.extend(u32::MAX.to_le_bytes()); // dim
        bytes.extend(stride.to_le_bytes());
        bytes.extend([0; 16]); // fingerprint, next id
        bytes.extend(8u32.to_le_bytes()); // bucket count
        let (mut offset, mut remaining) = (0u64, 0u64.wrapping_sub(232));
        for key in 0..8i64 {
            let clusters = (remaining / cluster_len).min(u64::from(u32::MAX));
            let mut len = clusters * cluster_len;
            let members = if key == 7 {
                (remaining - len) / MEMBER_LEN as u64
            } else {
                0
            };
            len += members * MEMBER_LEN as u64;
            bytes.extend(key.to_le_bytes());
            bytes.extend((clusters as u32).to_le_bytes());
            bytes.extend((members as u32).to_le_bytes());
            bytes.extend(offset.to_le_bytes());
            (offset, remaining) = (offset + len, remaining - len);
        }
        assert_eq!((remaining, bytes.len()), (0, 228));
        let err = from_bytes(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("overflows the address space"),
            "{err}"
        );
    }

    /// One mutation of the kind `seeded_mutations_never_panic` draws.
    fn mutate(bytes: &mut Vec<u8>, rng: &mut impl spechd_rng::Rng) {
        let len = bytes.len();
        match rng.range_usize(0, 5) {
            0 if len > 0 => bytes[rng.range_usize(0, len)] ^= 1 << rng.range_usize(0, 8),
            1 if len > 0 => bytes[rng.range_usize(0, len)] = rng.next_u32() as u8,
            2 => bytes.insert(rng.range_usize(0, len + 1), rng.next_u32() as u8),
            3 if len > 0 => {
                bytes.remove(rng.range_usize(0, len));
            }
            _ => bytes.truncate(rng.range_usize(0, len + 1)),
        }
    }

    /// 5 000 seeded mutants each of a rowless and a row-keeping store
    /// (bit flip, random byte, insert, delete, cut), most re-sealed so
    /// they reach the body decoder: each one either decodes to a store
    /// whose bytes are the mutant's, or is a typed error. None panics.
    #[test]
    fn seeded_mutations_never_panic() {
        use spechd_rng::Rng;
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5348_504B);
        let (mut accepted, mut rejected) = (0u32, 0u32);
        for bytes in [sample_bytes(100), sample_bytes_with_rows(100)] {
            for _ in 0..5000 {
                let mut mutant = bytes.clone();
                for _ in 0..rng.range_usize(1, 4) {
                    mutate(&mut mutant, &mut rng);
                }
                if mutant.len() >= FOOTER_LEN && rng.range_usize(0, 4) != 0 {
                    reseal(&mut mutant);
                }
                match from_bytes(&mutant) {
                    Ok(store) => {
                        accepted += 1;
                        assert_eq!(store.to_bytes(), mutant, "accepted mutant re-saves");
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
        println!("store mutations: {accepted} accepted / {rejected} rejected");
        assert!(accepted > 0 && rejected > 0);
    }

    #[test]
    fn member_rows_flag_round_trips_and_preserves_rowless_bytes() {
        let rowless = sample_bytes(100);
        let rowed = sample_bytes_with_rows(100);
        // The row-less encoding is byte-identical to pre-flag files:
        // flags stay zero and no member-rows section is emitted.
        assert_eq!(&rowless[6..8], &[0, 0]);
        assert_eq!(&rowed[6..8], &FLAG_MEMBER_ROWS.to_le_bytes());
        assert!(rowed.len() > rowless.len());
        let store = from_bytes(&rowed).unwrap();
        assert!(store.keeps_member_rows());
        assert_eq!(store.to_bytes(), rowed, "re-save must be identical");
        let b = store.bucket(5).unwrap();
        assert_eq!(b.member_rows().unwrap().len(), b.members().len());
        assert!(!from_bytes(&rowless).unwrap().keeps_member_rows());
    }

    #[test]
    fn member_rows_flag_on_rowless_body_is_rejected() {
        // Setting the flag without the section makes every bucket claim
        // more bytes than the file holds; the second bucket's table
        // offset no longer lines up, which is the first defect reported.
        let mut bytes = sample_bytes(100);
        bytes[6..8].copy_from_slice(&FLAG_MEMBER_ROWS.to_le_bytes());
        reseal(&mut bytes);
        let err = from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("not sequential"), "{err}");
    }

    #[test]
    fn unknown_flag_bits_stay_reserved() {
        let mut bytes = sample_bytes_with_rows(100);
        bytes[6..8].copy_from_slice(&(FLAG_MEMBER_ROWS | 0x0002).to_le_bytes());
        reseal(&mut bytes);
        let err = from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("reserved header flags"), "{err}");
    }

    #[test]
    fn member_row_tail_bits_surface_as_pack_error() {
        // Corrupt the very last member-row byte of the last bucket (a
        // tail byte beyond dim 100 in the stride-2 layout).
        let mut bytes = sample_bytes_with_rows(100);
        let pos = bytes.len() - FOOTER_LEN - 1;
        bytes[pos] = 0xFF;
        reseal(&mut bytes);
        assert!(matches!(
            from_bytes(&bytes).unwrap_err(),
            StoreError::Pack(spechd_hdc::PackError::NonZeroTail { .. })
        ));
    }
}
