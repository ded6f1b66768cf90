//! Every decode-time cap of the wire protocol, in one place.
//!
//! The protocol refuses hostile resource demands *at decode time*,
//! before anything is allocated, spawned, or locked: a count prefix, a
//! knob, or a length that exceeds its cap is a
//! [`WireError::Malformed`](crate::protocol::WireError) (or
//! [`WireError::Oversized`](crate::protocol::WireError) for the frame
//! cap) and the offending connection is closed. [`Limits`] gathers all
//! of those caps into one configurable value, surfaced through
//! [`ServerConfig`](crate::server::ServerConfig) and threaded into
//! [`decode_payload`](crate::protocol::decode_payload) /
//! [`read_frame`](crate::protocol::read_frame) — the *only* enforcement
//! points, so raising or lowering a cap in one place changes every code
//! path uniformly. The `MAX_*` constants are the documented defaults
//! ([`Limits::default`]); they are what both bundled clients assume.
//!
//! | cap | default | guards against |
//! |---|---|---|
//! | [`Limits::max_frame_len`] | [`DEFAULT_MAX_FRAME_LEN`] | a 4 GiB length prefix becoming an allocation |
//! | [`Limits::max_workers`] | [`MAX_WORKERS`] | one `OpenJob` demanding billions of threads |
//! | [`Limits::max_library_batch`] | [`MAX_LIBRARY_BATCH`] | a hostile entry-count prefix |
//! | [`Limits::max_query_batch`] | [`MAX_QUERY_BATCH`] | one frame demanding unbounded scans |
//! | [`Limits::max_top_k`] | [`MAX_TOP_K`] | unbounded per-query result memory |
//! | [`Limits::max_search_window_da`] | [`MAX_SEARCH_WINDOW_DA`] | a meaningless `inf`-wide window |
//! | [`Limits::max_store_name_len`] | [`MAX_STORE_NAME_LEN`] | unbounded store names (they become file names) |
//! | [`Limits::max_incremental_batch`] | [`MAX_INCREMENTAL_BATCH`] | one `SubmitIncremental` holding the store lock for an unbounded installment |
//!
//! Two caps are constants, not fields: [`MAX_LIBRARY_TOTAL_ENTRIES`] is
//! checked where state accumulates (a search job's library, over any
//! number of frames) instead of at decode, and [`MAX_WATERMARK`] bounds a
//! field that has no effect (SPHD v3 compatibility only).

/// Default cap on a frame's payload length: 32 MiB. At ~16 bytes per
/// peak this is roughly 40k spectra of 50 peaks in one `Submit` — far
/// above any sane batch, far below an OOM.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 32 * 1024 * 1024;
/// Default cap on `JobConfig::workers` accepted over the wire (0 = all
/// cores available on the server is still allowed). A worker count is a
/// thread count: without this cap a single well-formed `OpenJob` frame
/// could demand billions of pipeline threads.
pub const MAX_WORKERS: u32 = 64;
/// Cap on `JobConfig::watermark` accepted over the wire; 0 is also
/// rejected. The field once sized a per-shard raw-spectrum buffer and now
/// has no effect (the pipeline encodes on arrival), so the cap guards
/// nothing and is a constant, not a [`Limits`] field; the range is still
/// enforced so SPHD v3 accepts exactly the frames it always did.
pub const MAX_WATERMARK: u32 = 1 << 20;
/// Default cap on library entries per `LoadLibrary` frame. Checked at
/// decode time *before* any allocation: a hostile count prefix is
/// rejected without reserving a single entry. Larger libraries ship as
/// multiple frames.
pub const MAX_LIBRARY_BATCH: u32 = 65_536;
/// Server-side cap on a search job's **total** library size, across all
/// `LoadLibrary` frames and participants. The per-frame cap
/// ([`MAX_LIBRARY_BATCH`]) bounds one decode; this bounds what a client
/// can make the server hold by looping frames. 2²⁰ entries at the
/// paper's `D = 2048` is 256 MiB of packed rows.
pub const MAX_LIBRARY_TOTAL_ENTRIES: usize = 1 << 20;
/// Default cap on queries per `SearchQuery` frame, checked at decode
/// time before allocation. Each query fans out into a windowed scan of
/// the library, so this also bounds the work one frame can demand.
pub const MAX_QUERY_BATCH: u32 = 4096;
/// Default cap on `SearchQuery::top_k`: hits kept (and sent back) per
/// query. `top_k = 0` is also rejected — it would make a search a no-op.
pub const MAX_TOP_K: u32 = 1024;
/// Default cap on `SearchQuery::window_da` in Dalton. Open-modification
/// searches use windows of a few hundred Dalton; 10⁴ already admits any
/// practical library slice, and capping it keeps a hostile `inf`/huge
/// window from being meaningful.
pub const MAX_SEARCH_WINDOW_DA: f64 = 10_000.0;
/// Default cap on a store name's length in bytes. Store names become
/// server-side file names (`<store_dir>/<name>.shpk`), so they are also
/// restricted to `[A-Za-z0-9_-]` at decode time — no separators, no
/// dots, no traversal.
pub const MAX_STORE_NAME_LEN: u32 = 64;
/// Default cap on spectra per `SubmitIncremental` frame. Incremental
/// installments run synchronously under the store-session lock, so this
/// bounds how long one frame can hold it; larger installments ship as
/// multiple sequence-numbered frames.
pub const MAX_INCREMENTAL_BATCH: u32 = 65_536;

/// The full set of decode-time caps, threaded into
/// [`decode_payload`](crate::protocol::decode_payload) and
/// [`read_frame`](crate::protocol::read_frame). [`Limits::default`]
/// mirrors the documented `MAX_*` constants; servers expose the value
/// through [`ServerConfig`](crate::server::ServerConfig) so every cap
/// is configurable without touching the protocol layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Limits {
    /// Cap on a frame's payload length in bytes; longer frames are
    /// rejected from the header alone
    /// ([`WireError::Oversized`](crate::protocol::WireError)).
    pub max_frame_len: u32,
    /// Cap on `JobConfig::workers` (0 = server default stays allowed).
    pub max_workers: u32,
    /// Cap on library entries per `LoadLibrary` frame.
    pub max_library_batch: u32,
    /// Cap on queries per `SearchQuery` frame.
    pub max_query_batch: u32,
    /// Cap on hits kept per query; 0 is always rejected.
    pub max_top_k: u32,
    /// Cap on the search window half-width in Dalton.
    pub max_search_window_da: f64,
    /// Cap on store-name length in bytes; the `[A-Za-z0-9_-]` alphabet
    /// and non-emptiness are enforced unconditionally.
    pub max_store_name_len: u32,
    /// Cap on spectra per `SubmitIncremental` frame.
    pub max_incremental_batch: u32,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_workers: MAX_WORKERS,
            max_library_batch: MAX_LIBRARY_BATCH,
            max_query_batch: MAX_QUERY_BATCH,
            max_top_k: MAX_TOP_K,
            max_search_window_da: MAX_SEARCH_WINDOW_DA,
            max_store_name_len: MAX_STORE_NAME_LEN,
            max_incremental_batch: MAX_INCREMENTAL_BATCH,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        decode_payload, encode_payload, Frame, FrameType, JobConfig, QueryWire, WireError,
    };
    use spechd_ms::{Peak, Precursor, Spectrum};

    fn spectrum() -> Spectrum {
        Spectrum::new(
            "s",
            Precursor::new(500.0, 2).unwrap(),
            vec![Peak::new(200.0, 1.0)],
        )
        .unwrap()
    }

    fn open_job(workers: u32, watermark: u32) -> Frame {
        Frame::OpenJob {
            job_id: 1,
            client_id: 7,
            config: JobConfig {
                workers,
                watermark,
                ..JobConfig::default()
            },
        }
    }

    fn search(window_da: f64, top_k: u32, queries: usize) -> Frame {
        Frame::SearchQuery {
            job_id: 1,
            dim: 64,
            window_da,
            top_k,
            queries: vec![
                QueryWire {
                    mass: 900.0,
                    words: vec![42],
                };
                queries
            ],
        }
    }

    /// Every configurable cap, exercised from one table: each row names
    /// the limit, a `Limits` value with that cap tightened, a frame
    /// sitting exactly at the tightened cap (must decode), and a frame
    /// one past it (must be rejected). This is the single enforcement
    /// test the scattered per-cap tests used to be.
    #[test]
    fn every_cap_is_enforced_from_its_limits_field() {
        let tighten = |f: fn(&mut Limits)| {
            let mut l = Limits::default();
            f(&mut l);
            l
        };
        let table: Vec<(&str, Limits, Frame, Frame)> = vec![
            (
                "max_workers",
                tighten(|l| l.max_workers = 3),
                open_job(3, 16),
                open_job(4, 16),
            ),
            (
                "max_library_batch",
                tighten(|l| l.max_library_batch = 0),
                Frame::LoadLibrary {
                    job_id: 1,
                    dim: 64,
                    entries: Vec::new(),
                },
                Frame::LoadLibrary {
                    job_id: 1,
                    dim: 64,
                    entries: vec![crate::protocol::LibraryEntryWire {
                        mass: 900.0,
                        charge: 2,
                        is_decoy: false,
                        id: "x".into(),
                        words: vec![1],
                    }],
                },
            ),
            (
                "max_query_batch",
                tighten(|l| l.max_query_batch = 1),
                search(1.0, 1, 1),
                search(1.0, 1, 2),
            ),
            (
                "max_top_k",
                tighten(|l| l.max_top_k = 2),
                search(1.0, 2, 1),
                search(1.0, 3, 1),
            ),
            (
                "max_search_window_da",
                tighten(|l| l.max_search_window_da = 10.0),
                search(10.0, 1, 1),
                search(10.5, 1, 1),
            ),
            (
                "max_store_name_len",
                tighten(|l| l.max_store_name_len = 2),
                Frame::StoreStats { name: "ab".into() },
                Frame::StoreStats { name: "abc".into() },
            ),
            (
                "max_incremental_batch",
                tighten(|l| l.max_incremental_batch = 1),
                Frame::SubmitIncremental {
                    name: "s".into(),
                    seq: 0,
                    spectra: vec![spectrum()],
                },
                Frame::SubmitIncremental {
                    name: "s".into(),
                    seq: 0,
                    spectra: vec![spectrum(), spectrum()],
                },
            ),
        ];
        for (limit, limits, at_cap, past_cap) in table {
            let frame_type = |f: &Frame| match f {
                Frame::OpenJob { .. } => FrameType::OpenJob,
                Frame::LoadLibrary { .. } => FrameType::LoadLibrary,
                Frame::SearchQuery { .. } => FrameType::SearchQuery,
                Frame::StoreStats { .. } => FrameType::StoreStats,
                Frame::SubmitIncremental { .. } => FrameType::SubmitIncremental,
                other => panic!("unexpected table frame {other:?}"),
            };
            assert_eq!(
                decode_payload(frame_type(&at_cap), &encode_payload(&at_cap), &limits)
                    .unwrap_or_else(|e| panic!("{limit}: at-cap frame rejected: {e}")),
                at_cap,
                "{limit}: at-cap frame must decode"
            );
            assert!(
                matches!(
                    decode_payload(frame_type(&past_cap), &encode_payload(&past_cap), &limits),
                    Err(WireError::Malformed(_))
                ),
                "{limit}: past-cap frame must be rejected"
            );
            // The same past-cap frame decodes under the defaults —
            // proving the rejection came from the tightened field, not
            // some other validation.
            assert!(
                decode_payload(
                    frame_type(&past_cap),
                    &encode_payload(&past_cap),
                    &Limits::default()
                )
                .is_ok(),
                "{limit}: past-cap frame must pass under defaults"
            );
        }
    }

    #[test]
    fn defaults_mirror_the_documented_constants() {
        let l = Limits::default();
        assert_eq!(l.max_frame_len, DEFAULT_MAX_FRAME_LEN);
        assert_eq!(l.max_workers, MAX_WORKERS);
        assert_eq!(l.max_library_batch, MAX_LIBRARY_BATCH);
        assert_eq!(l.max_query_batch, MAX_QUERY_BATCH);
        assert_eq!(l.max_top_k, MAX_TOP_K);
        assert_eq!(l.max_search_window_da, MAX_SEARCH_WINDOW_DA);
        assert_eq!(l.max_store_name_len, MAX_STORE_NAME_LEN);
        assert_eq!(l.max_incremental_batch, MAX_INCREMENTAL_BATCH);
    }
}
