//! The two roofline ceilings, measured in the same process as the kernels
//! compared against them: streaming memory bandwidth and L1-resident
//! xor-popcount throughput, both on one thread.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

const SAMPLES: usize = 5;

fn median_seconds(mut call: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            call();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// GB/s of a plain `u64` sum over a 256 MiB buffer (64× the L2) — the rate
/// at which one thread can stream a library that does not fit in cache.
pub fn memory_bandwidth_gbps() -> f64 {
    const WORDS: usize = 32 << 20;
    let buffer: Vec<u64> = (0..WORDS as u64).collect();
    let seconds = median_seconds(|| {
        let sum = black_box(&buffer)
            .iter()
            .fold(0u64, |acc, &w| acc.wrapping_add(w));
        black_box(sum);
    });
    (WORDS * 8) as f64 / seconds / 1e9
}

/// Giga word-operations per second of `popcount(q ^ row)` of one query
/// against 64 rows (16 KiB, L1-resident), four rows sharing each loaded
/// query word as the tiled distance kernel does — what the distance kernels
/// would reach if memory were free.
pub fn popcount_gops() -> f64 {
    const WORDS: usize = 32;
    const ROWS: usize = 64;
    const ROUNDS: usize = 1 << 17;
    let mix = |i: u64| {
        i.wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29)
    };
    let query: Vec<u64> = (0..WORDS as u64).map(mix).collect();
    let rows: Vec<u64> = (0..(WORDS * ROWS) as u64)
        .map(|i| mix(i ^ 0xABCD))
        .collect();
    let seconds = median_seconds(|| {
        let mut total = 0u64;
        for _ in 0..ROUNDS {
            let (query, rows) = (black_box(&query), black_box(&rows));
            for four in rows.chunks_exact(4 * WORDS) {
                let (r0, rest) = four.split_at(WORDS);
                let (r1, rest) = rest.split_at(WORDS);
                let (r2, r3) = rest.split_at(WORDS);
                let (mut d0, mut d1, mut d2, mut d3) = (0u64, 0u64, 0u64, 0u64);
                for ((((&q, &x0), &x1), &x2), &x3) in query.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
                    d0 += u64::from((q ^ x0).count_ones());
                    d1 += u64::from((q ^ x1).count_ones());
                    d2 += u64::from((q ^ x2).count_ones());
                    d3 += u64::from((q ^ x3).count_ones());
                }
                total += d0 + d1 + d2 + d3;
            }
        }
        black_box(total);
    });
    (WORDS * ROWS * ROUNDS) as f64 / seconds / 1e9
}
