//! Golden digest of the ID-Level encoder's output bits.
//!
//! SHPK archives and served libraries persist encoded hypervectors, so the
//! encoder's bits are a storage format: a change that moves one of them
//! silently invalidates every stored archive. This test pins them against a
//! digest recorded from the per-lane `Vec<i32>` counter encoder that preceded
//! the bit-sliced one, rather than against an oracle that could drift with
//! the implementation.

use spechd_hdc::{EncoderConfig, IdLevelEncoder};
use spechd_rng::{Rng, Xoshiro256StarStar};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[test]
fn default_encoder_bits_match_recorded_digest() {
    let encoder = IdLevelEncoder::new(EncoderConfig::default());
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EED_601D);
    let mut digest = FNV_OFFSET;
    // Peak counts straddle every plane-growth boundary of the accumulator;
    // 150–2050 Da exercises both clamped ends of the m/z quantizer.
    for n in [0, 1, 2, 3, 7, 8, 31, 32, 33, 50, 63, 64, 65, 150, 500] {
        let peaks: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                let mz = 150.0 + rng.bounded_u64(1_900_000) as f64 / 1000.0;
                let intensity = rng.bounded_u64(1001) as f64 / 1000.0;
                (mz, intensity)
            })
            .collect();
        for word in encoder.encode(&peaks).words() {
            for byte in word.to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            }
        }
    }
    assert_eq!(digest, 0x07dd_cbfa_09cb_c5ea, "digest {digest:#018x}");
}
