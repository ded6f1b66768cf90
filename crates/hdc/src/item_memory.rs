//! The encoder's two pre-allocated memories: random ID rows and correlated
//! Level rows, each one [`HvPack`] slab.
//!
//! The SpecHD encoder keeps two read-only arrays in FPGA on-chip memory,
//! partitioned by HLS pragmas so all lanes can be read in parallel:
//! `ID[0, f]` with one random hypervector per m/z bin, and `L[0, q]` with one
//! hypervector per intensity level. The ID memory is i.i.d. random so that
//! distinct m/z bins are quasi-orthogonal; the Level memory is *correlated*
//! — adjacent levels differ in only `D / (2(q-1))` bits — so that similar
//! intensities produce similar codes.

use crate::{BinaryHypervector, HvPack};
use spechd_rng::Xoshiro256StarStar;

/// `ID[0, f]`: `count` independent random rows of dimensionality `dim`,
/// seeded deterministically.
pub(crate) fn id_memory(count: usize, dim: usize, seed: u64) -> HvPack {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut pack = HvPack::with_capacity(dim, count);
    for _ in 0..count {
        pack.push(&BinaryHypervector::random(dim, &mut rng));
    }
    pack
}

/// `L[0, q]`: `levels` correlated rows of dimensionality `dim`, seeded
/// deterministically (`levels ≥ 2`).
///
/// Level 0 is random; each subsequent level flips a fresh, disjoint batch
/// of `D / (2(q-1))` bit positions, so `hamming(L[a], L[b]) ≈ |a − b| ·
/// D/(2(q-1))` and the extreme levels differ in exactly `D/2` bits
/// (quasi-orthogonal) — the thermometer-style construction of HyperSpec and
/// SpecHD. The flipped positions form a random partition of a `D/2`-subset,
/// which makes the inter-level distance exactly linear in the level gap.
pub(crate) fn level_memory(levels: usize, dim: usize, seed: u64) -> HvPack {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0xC0FF_EE00_DEAD_BEEF);
    let mut current = BinaryHypervector::random(dim, &mut rng);

    // Choose D/2 positions and split them into (levels-1) nearly equal
    // disjoint batches; level k flips batches 0..k of the base vector.
    let half = dim / 2;
    let mut positions: Vec<usize> = (0..dim).collect();
    spechd_rng::shuffle(&mut positions, &mut rng);
    positions.truncate(half);

    let segments = levels - 1;
    let mut pack = HvPack::with_capacity(dim, levels);
    pack.push(&current);
    for seg in 0..segments {
        let start = seg * half / segments;
        let end = (seg + 1) * half / segments;
        for &pos in &positions[start..end] {
            current.flip_bit(pos);
        }
        pack.push(&current);
    }
    pack
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_rng::Rng;

    #[test]
    fn item_memory_deterministic() {
        let a = id_memory(10, 256, 5);
        let b = id_memory(10, 256, 5);
        assert_eq!(a, b);
        let c = id_memory(10, 256, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn item_memory_entries_quasi_orthogonal() {
        let mem = id_memory(20, 2048, 1);
        for i in 0..mem.len() {
            for j in (i + 1)..mem.len() {
                let d = mem.hamming(i, j);
                assert!(
                    (820..1230).contains(&d),
                    "entries {i},{j} too close/far: {d}"
                );
            }
        }
    }

    #[test]
    fn item_memory_storage() {
        let mem = id_memory(4, 2048, 0);
        assert_eq!(mem.storage_bytes(), 4 * 256);
    }

    #[test]
    fn level_memory_distance_linear_in_gap() {
        let q = 17;
        let dim = 2048;
        let levels = level_memory(q, dim, 9);
        let step = dim / 2 / (q - 1); // 64 bits per level step
        for a in 0..q {
            for b in a..q {
                let d = levels.hamming(a, b) as usize;
                let expect = (b - a) * step;
                assert!(
                    d.abs_diff(expect) <= (q - 1), // rounding slack from uneven batches
                    "levels {a}->{b}: d={d} expected≈{expect}"
                );
            }
        }
    }

    #[test]
    fn level_memory_extremes_near_orthogonal() {
        let levels = level_memory(32, 2048, 4);
        let d = levels.hamming(0, 31);
        assert_eq!(d, 1024, "extremes must differ in exactly D/2 bits");
    }

    #[test]
    fn level_memory_monotone_in_gap() {
        let levels = level_memory(8, 1024, 11);
        let mut prev = 0;
        for k in 1..8 {
            let d = levels.hamming(0, k);
            assert!(d > prev, "distance must grow with level gap");
            prev = d;
        }
    }

    #[test]
    fn level_memory_gap_monotone() {
        for case in 0..64 {
            let mut rng = Xoshiro256StarStar::seed_from_u64(0x9000 + case);
            let q = rng.range_usize(3, 24);
            let seed = rng.next_u64();
            let levels = level_memory(q, 1024, seed);
            let mut prev = 0u32;
            for k in 1..q {
                let d = levels.hamming(0, k);
                assert!(d >= prev, "level distance must be non-decreasing in gap");
                prev = d;
            }
        }
    }

    #[test]
    fn level_memory_deterministic() {
        assert_eq!(level_memory(8, 512, 3), level_memory(8, 512, 3));
        assert_ne!(level_memory(8, 512, 3), level_memory(8, 512, 4));
    }

    #[test]
    fn level_memory_len_and_dim() {
        let levels = level_memory(5, 100, 0);
        assert_eq!(levels.len(), 5);
        assert_eq!(levels.dim(), 100);
    }
}
