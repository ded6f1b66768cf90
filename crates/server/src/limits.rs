//! Every decode-time cap of the wire protocol, in one place.
//!
//! The protocol refuses hostile resource demands *at decode time*,
//! before anything is allocated, spawned, or locked: a count prefix, a
//! knob, or a length that exceeds its cap is a
//! [`WireError::Malformed`](crate::protocol::WireError) (or
//! [`WireError::Oversized`](crate::protocol::WireError) for the frame
//! cap) and the offending connection is closed.
//! [`decode_payload`](crate::protocol::decode_payload) and
//! [`read_frame`](crate::protocol::read_frame) are the *only*
//! enforcement points.
//!
//! One cap is a per-server setting, the one field of [`Limits`]
//! (surfaced through [`ServerConfig`](crate::server::ServerConfig); the
//! binary's `--max-frame-mb` sets it). Every other cap is a protocol
//! constant: both bundled clients split their batches at the `MAX_*`
//! values, so a server that refused less would refuse its own clients.
//!
//! | cap | value | guards against |
//! |---|---|---|
//! | [`Limits::max_frame_len`] | [`DEFAULT_MAX_FRAME_LEN`] by default | a 4 GiB length prefix becoming an allocation |
//! | [`MAX_WORKERS`] | 64 pipeline threads per `OpenJob` (0 = all cores) | one `OpenJob` demanding billions of threads |
//! | [`MAX_LIBRARY_BATCH`] | 65 536 entries per `LoadLibrary` | a hostile entry-count prefix |
//! | [`MAX_QUERY_BATCH`] | 4 096 queries per `SearchQuery` | one frame demanding unbounded scans |
//! | [`MAX_TOP_K`] | 1 024 hits per query | unbounded per-query result memory |
//! | [`MAX_SEARCH_WINDOW_DA`] | 10⁴ Da | a meaningless `inf`-wide window |
//! | [`MAX_STORE_NAME_LEN`] | 64 bytes | unbounded store names (they become file names) |
//! | [`MAX_INCREMENTAL_BATCH`] | 65 536 spectra per `SubmitIncremental`, labels per `IncrementalAck` | one `SubmitIncremental` holding the store lock for an unbounded installment |
//! | [`MAX_WATERMARK`] | 2²⁰ | nothing: the field has no effect (SPHD v3 compatibility only) |
//!
//! [`MAX_LIBRARY_TOTAL_ENTRIES`] is not checked at decode but where
//! state accumulates: it bounds one search job's library over any number
//! of frames, and every live search job's library together.

/// Default cap on a frame's payload length: 32 MiB. At ~16 bytes per
/// peak this is roughly 40k spectra of 50 peaks in one `Submit` — far
/// above any sane batch, far below an OOM.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 32 * 1024 * 1024;
/// Cap on `JobConfig::workers` accepted over the wire (0 = all cores
/// available on the server is still allowed). A worker count is a
/// thread count: without this cap a single well-formed `OpenJob` frame
/// could demand billions of pipeline threads.
pub const MAX_WORKERS: u32 = 64;
/// Cap on `JobConfig::watermark` accepted over the wire; 0 is also
/// rejected. The field once sized a per-shard raw-spectrum buffer and now
/// has no effect (the pipeline encodes on arrival), so the cap guards
/// nothing; the range is still enforced so SPHD v3 accepts exactly the
/// frames it always did.
pub const MAX_WATERMARK: u32 = 1 << 20;
/// Cap on library entries per `LoadLibrary` frame. Checked at decode
/// time *before* any allocation: a hostile count prefix is rejected
/// without reserving a single entry. Larger libraries ship as multiple
/// frames.
pub const MAX_LIBRARY_BATCH: u32 = 65_536;
/// Cap on library entries held by the server, across all `LoadLibrary`
/// frames and participants. The per-frame cap ([`MAX_LIBRARY_BATCH`])
/// bounds one decode; this bounds what clients can make the server hold
/// by looping frames or opening jobs. A load past it within its own job
/// is a protocol-state error; a load that fits its job but not what
/// every live search job holds together is shed with the retryable
/// `Busy`. 2²⁰ entries at the paper's `D = 2048` is 256 MiB of packed
/// rows.
pub const MAX_LIBRARY_TOTAL_ENTRIES: usize = 1 << 20;
/// Cap on queries per `SearchQuery` frame, checked at decode time before
/// allocation. Each query fans out into a windowed scan of the library,
/// so this also bounds the work one frame can demand.
pub const MAX_QUERY_BATCH: u32 = 4096;
/// Cap on `SearchQuery::top_k`: hits kept (and sent back) per query.
/// `top_k = 0` is also rejected — it would make a search a no-op.
pub const MAX_TOP_K: u32 = 1024;
/// Cap on `SearchQuery::window_da` in Dalton. Open-modification searches
/// use windows of a few hundred Dalton; 10⁴ already admits any practical
/// library slice, and capping it keeps a hostile `inf`/huge window from
/// being meaningful.
pub const MAX_SEARCH_WINDOW_DA: f64 = 10_000.0;
/// Cap on a store name's length in bytes. Store names become server-side
/// file names (`<store_dir>/<name>.shpk`), so they are also restricted
/// to `[A-Za-z0-9_-]` at decode time — no separators, no dots, no
/// traversal.
pub const MAX_STORE_NAME_LEN: u32 = 64;
/// Cap on spectra per `SubmitIncremental` frame, and so on the labels
/// of an `IncrementalAck`. Incremental installments run synchronously
/// under the store-session lock, so this bounds how long one frame can
/// hold it; larger installments ship as multiple sequence-numbered
/// frames.
pub const MAX_INCREMENTAL_BATCH: u32 = 65_536;

/// The decode-time cap a server sets, threaded into
/// [`decode_payload`](crate::protocol::decode_payload) and
/// [`read_frame`](crate::protocol::read_frame). [`Limits::default`]
/// mirrors the documented default.
#[derive(Debug, Clone, PartialEq)]
pub struct Limits {
    /// Cap on a frame's payload length in bytes; longer frames are
    /// rejected from the header alone
    /// ([`WireError::Oversized`](crate::protocol::WireError)).
    pub max_frame_len: u32,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        decode_payload, encode_payload, Frame, FrameType, IncrementalAckFrame, LibraryEntryWire,
        QueryWire, WireError,
    };
    use spechd_ms::{Peak, Precursor, Spectrum};

    fn library(entries: u32) -> Frame {
        let entry = LibraryEntryWire {
            mass: 900.0,
            charge: 2,
            is_decoy: false,
            id: String::new(),
            words: vec![1],
        };
        Frame::LoadLibrary {
            job_id: 1,
            dim: 64,
            entries: vec![entry; entries as usize],
        }
    }

    fn queries(queries: u32) -> Frame {
        let query = QueryWire {
            mass: 900.0,
            words: vec![42],
        };
        Frame::SearchQuery {
            job_id: 1,
            dim: 64,
            window_da: 1.0,
            top_k: 1,
            queries: vec![query; queries as usize],
        }
    }

    fn installment(spectra: u32) -> Frame {
        let spectrum = Spectrum::new(
            "",
            Precursor::new(500.0, 2).unwrap(),
            vec![Peak::new(200.0, 1.0)],
        )
        .unwrap();
        Frame::SubmitIncremental {
            name: "s".into(),
            seq: 0,
            spectra: vec![spectrum; spectra as usize],
        }
    }

    fn incremental_ack(kept: u32) -> Frame {
        Frame::IncrementalAck(IncrementalAckFrame {
            name: "s".into(),
            seq: 0,
            base_id: 0,
            kept: vec![0; kept as usize],
            labels: vec![0; kept as usize],
            absorbed: 0,
            residual: 0,
            new_clusters: 0,
            total_spectra: 0,
            total_clusters: 0,
        })
    }

    /// The count caps whose at-cap row `protocol`'s hostile-frame tests
    /// do not hold: each frame sitting exactly at its constant decodes,
    /// and the same frame one element longer is refused by the cap
    /// itself.
    #[test]
    fn every_count_cap_holds_at_its_constant() {
        // (frame type, frame of `n` elements, the cap on `n`)
        type Row = (FrameType, fn(u32) -> Frame, u32);
        let table: [Row; 4] = [
            (FrameType::LoadLibrary, library, MAX_LIBRARY_BATCH),
            (FrameType::SearchQuery, queries, MAX_QUERY_BATCH),
            (
                FrameType::SubmitIncremental,
                installment,
                MAX_INCREMENTAL_BATCH,
            ),
            (
                FrameType::IncrementalAck,
                incremental_ack,
                MAX_INCREMENTAL_BATCH,
            ),
        ];
        for (kind, frame, at) in table {
            let at_cap = frame(at);
            let decoded = decode_payload(kind, &encode_payload(&at_cap), &Limits::default());
            assert_eq!(
                decoded.unwrap_or_else(|e| panic!("{kind:?}: at-cap frame rejected: {e}")),
                at_cap,
                "{kind:?}: at-cap frame must decode"
            );
            let past = encode_payload(&frame(at + 1));
            match decode_payload(kind, &past, &Limits::default()) {
                Err(WireError::Malformed(msg)) => {
                    assert!(
                        msg.contains("exceeds cap"),
                        "{kind:?}: refused by the cap: {msg}"
                    )
                }
                other => panic!("{kind:?}: past-cap frame must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn defaults_mirror_the_documented_constants() {
        let l = Limits::default();
        assert_eq!(l.max_frame_len, DEFAULT_MAX_FRAME_LEN);
    }
}
