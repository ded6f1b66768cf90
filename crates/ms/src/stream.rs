//! Streaming spectrum sources.
//!
//! A [`SpectrumDataset`] holds every raw spectrum in memory at once, so
//! dataset size — not hardware — bounds what one run over it can process.
//! [`SpectrumStream`] is the pull-based counterpart: a
//! source hands out one `(Spectrum, label)` pair at a time, which lets the
//! consumer (the sharded pipeline in `spechd-core`) keep only one raw
//! spectrum alive at a time.
//!
//! Adapters cover the common source shapes:
//!
//! * [`DatasetStream`] — replays an in-memory dataset (the equivalence
//!   bridge between streaming and batch runs).
//! * [`ChannelStream`] — drains an [`std::sync::mpsc`] receiver, blocking
//!   until producers hang up: the async-ingest shape where acquisition
//!   threads feed clustering.
//! * [`crate::synth::SyntheticStream`] — generates labelled synthetic
//!   spectra lazily, bit-identical to
//!   [`crate::synth::SyntheticGenerator::generate`].
//! * [`AssertSorted`] — marks a stream as ordered by neutral mass, which
//!   lets the consumer retire precursor-mass shards early (the paper's
//!   "data organization strategy based on precursor m/z sorting").

use crate::{Spectrum, SpectrumDataset, HYDROGEN_AVG_MASS};
use std::sync::mpsc::Receiver;

/// A pull-based source of spectra with optional ground-truth labels.
///
/// Implementations yield items until exhausted; `None` is final. The
/// stream is consumed exactly once, in order — the order *is* the item
/// index space of the run consuming it.
pub trait SpectrumStream {
    /// The next spectrum, or `None` when the stream has ended.
    fn next_spectrum(&mut self) -> Option<(Spectrum, Option<u32>)>;

    /// Whether spectra arrive in non-decreasing Eq. (1) neutral-mass order
    /// (`(mz − 1.00794) · charge`).
    ///
    /// When `true`, a consumer that shards by precursor mass may close a
    /// shard as soon as a heavier spectrum arrives, overlapping clustering
    /// with ingest. Returning `true` for an unsorted stream is a contract
    /// violation the consumer is entitled to panic on.
    fn sorted_by_mass(&self) -> bool {
        false
    }

    /// Lower/upper bounds on the remaining stream length, mirroring
    /// [`Iterator::size_hint`]. Purely an allocation hint.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

/// The sort key [`SpectrumStream::sorted_by_mass`] promises monotonicity
/// of: the Eq. (1) neutral mass `(mz − 1.00794) · charge`. Any bucketing
/// resolution preserves its order, so one sorted pass serves every
/// resolution.
fn neutral_mass_key(spectrum: &Spectrum) -> f64 {
    (spectrum.precursor().mz() - HYDROGEN_AVG_MASS) * f64::from(spectrum.precursor().charge())
}

/// Streams a borrowed [`SpectrumDataset`] in insertion order, cloning each
/// spectrum out. Reusable: construct one per replay.
///
/// # Examples
///
/// ```
/// use spechd_ms::stream::{DatasetStream, SpectrumStream};
/// use spechd_ms::SpectrumDataset;
///
/// let ds = SpectrumDataset::new();
/// let mut stream = DatasetStream::new(&ds);
/// assert!(stream.next_spectrum().is_none());
/// ```
#[derive(Debug)]
pub struct DatasetStream<'a> {
    dataset: &'a SpectrumDataset,
    next: usize,
}

impl<'a> DatasetStream<'a> {
    /// Creates a stream replaying `dataset` from the start.
    pub fn new(dataset: &'a SpectrumDataset) -> Self {
        Self { dataset, next: 0 }
    }
}

impl SpectrumStream for DatasetStream<'_> {
    fn next_spectrum(&mut self) -> Option<(Spectrum, Option<u32>)> {
        if self.next >= self.dataset.len() {
            return None;
        }
        let i = self.next;
        self.next += 1;
        Some((self.dataset.spectra()[i].clone(), self.dataset.labels()[i]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.dataset.len() - self.next;
        (rem, Some(rem))
    }
}

/// Drains an [`std::sync::mpsc`] channel of spectra: the shape where one or
/// more acquisition/parser threads produce while the clustering pipeline
/// consumes. [`SpectrumStream::next_spectrum`] blocks until an item arrives
/// or every sender is dropped (which ends the stream).
///
/// ## End-of-stream semantics
///
/// The stream ends when — and only when — **every** sender clone has been
/// dropped *and* the channel's buffer has been drained: items sent before
/// the last hang-up are always yielded first, in send order, and only then
/// does [`SpectrumStream::next_spectrum`] return `None`. Once it has
/// returned `None` the stream is fused (every later call is `None`).
///
/// Two producer-side shutdown protocols therefore look identical to the
/// consumer, which is exactly what a network front end needs:
///
/// * **Explicit close** — a producer finishes its batch and deliberately
///   drops its sender (the `spechd-server` `CloseJob` path: the last
///   participant closing a job drops the last sender, finalizing the
///   job's pipeline).
/// * **Abrupt producer death** — a producer thread panics or a client
///   socket disconnects mid-stream, dropping its sender in the unwind
///   (the `spechd-server` client-disconnect path). Everything it already
///   sent is still clustered; the pipeline finalizes cleanly instead of
///   hanging, because `mpsc` hang-up is observable no matter *why* the
///   sender dropped.
///
/// There is no out-of-band cancel: a consumer cannot distinguish a
/// graceful close from a crash, so pipelines built on `ChannelStream`
/// must treat both as "input complete" (and they do — `run_streaming`
/// finalizes all open shards and joins its worker scope on either).
///
/// # Examples
///
/// ```
/// use spechd_ms::stream::{ChannelStream, SpectrumStream};
/// use spechd_ms::{Peak, Precursor, Spectrum};
/// use std::sync::mpsc;
///
/// let (tx, rx) = mpsc::channel();
/// let s = Spectrum::new("scan=1", Precursor::new(500.0, 2)?, vec![Peak::new(210.0, 5.0)])?;
/// tx.send((s, None)).unwrap();
/// drop(tx);
/// let mut stream = ChannelStream::new(rx);
/// assert!(stream.next_spectrum().is_some());
/// assert!(stream.next_spectrum().is_none());
/// # Ok::<(), spechd_ms::MsError>(())
/// ```
#[derive(Debug)]
pub struct ChannelStream {
    receiver: Receiver<(Spectrum, Option<u32>)>,
}

impl ChannelStream {
    /// Wraps a receiver; the stream ends when all senders hang up.
    pub fn new(receiver: Receiver<(Spectrum, Option<u32>)>) -> Self {
        Self { receiver }
    }
}

impl SpectrumStream for ChannelStream {
    fn next_spectrum(&mut self) -> Option<(Spectrum, Option<u32>)> {
        self.receiver.recv().ok()
    }
}

/// Marks an inner stream as sorted by non-decreasing Eq. (1) neutral
/// mass, unlocking early shard retirement in consumers. The claim is the
/// caller's to get right; sharded consumers verify monotonicity as keys
/// arrive and panic on violations rather than silently misclustering.
#[derive(Debug)]
pub struct AssertSorted<S> {
    inner: S,
}

impl<S: SpectrumStream> AssertSorted<S> {
    /// Asserts that `inner` yields spectra in non-decreasing neutral-mass
    /// order.
    pub fn new(inner: S) -> Self {
        Self { inner }
    }
}

impl<S: SpectrumStream> SpectrumStream for AssertSorted<S> {
    fn next_spectrum(&mut self) -> Option<(Spectrum, Option<u32>)> {
        self.inner.next_spectrum()
    }

    fn sorted_by_mass(&self) -> bool {
        true
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Sorts a dataset by Eq. (1) neutral mass (stable, so equal-mass spectra
/// keep their relative order), returning the reordered dataset. The
/// convenience for feeding [`AssertSorted`] in tests and benches: batch-run
/// the sorted dataset, stream it sorted, compare.
pub fn sort_dataset_by_mass(dataset: &SpectrumDataset) -> SpectrumDataset {
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    order.sort_by(|&a, &b| {
        neutral_mass_key(&dataset.spectra()[a]).total_cmp(&neutral_mass_key(&dataset.spectra()[b]))
    });
    order
        .into_iter()
        .map(|i| (dataset.spectra()[i].clone(), dataset.labels()[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Peak, Precursor};

    fn spectrum(title: &str, mz: f64, charge: u8) -> Spectrum {
        Spectrum::new(
            title,
            Precursor::new(mz, charge).unwrap(),
            vec![Peak::new(300.0, 10.0)],
        )
        .unwrap()
    }

    fn dataset() -> SpectrumDataset {
        let mut ds = SpectrumDataset::new();
        ds.push(spectrum("b", 700.0, 2), Some(1));
        ds.push(spectrum("a", 500.0, 2), None);
        ds.push(spectrum("c", 400.0, 3), Some(2));
        ds
    }

    fn drain(s: &mut impl SpectrumStream) -> Vec<(Spectrum, Option<u32>)> {
        let mut out = Vec::new();
        while let Some(item) = s.next_spectrum() {
            out.push(item);
        }
        out
    }

    #[test]
    fn dataset_stream_replays_in_order() {
        let ds = dataset();
        let stream = DatasetStream::new(&ds);
        assert_eq!(stream.size_hint(), (3, Some(3)));
        assert!(!stream.sorted_by_mass());
        let items = drain(&mut { stream });
        assert_eq!(items.len(), 3);
        for (i, (s, l)) in items.iter().enumerate() {
            assert_eq!(s, &ds.spectra()[i]);
            assert_eq!(*l, ds.labels()[i]);
        }
    }

    #[test]
    fn channel_stream_drains_buffer_after_explicit_close() {
        // Explicit close: producer sends everything, then deliberately
        // drops the sender. Buffered items must all be yielded, in send
        // order, before end-of-stream.
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..4 {
            tx.send((spectrum(&format!("s{i}"), 400.0 + f64::from(i), 2), Some(i)))
                .unwrap();
        }
        drop(tx); // close long before the consumer starts
        let mut stream = ChannelStream::new(rx);
        let items = drain(&mut stream);
        assert_eq!(items.len(), 4);
        assert!((0..4).all(|i| items[i as usize].1 == Some(i)));
        // Fused: once ended, the stream stays ended.
        assert!(stream.next_spectrum().is_none());
        assert!(stream.next_spectrum().is_none());
    }

    #[test]
    fn channel_stream_ends_only_when_last_sender_drops() {
        // Multiple producers (the multi-client server shape): dropping one
        // sender must not end the stream while another is still live.
        let (tx_a, rx) = std::sync::mpsc::channel();
        let tx_b = tx_a.clone();
        tx_a.send((spectrum("a", 400.0, 2), Some(0))).unwrap();
        drop(tx_a); // first producer hangs up (disconnect mid-stream)
        tx_b.send((spectrum("b", 500.0, 2), Some(1))).unwrap();
        let mut stream = ChannelStream::new(rx);
        assert_eq!(stream.next_spectrum().unwrap().1, Some(0));
        assert_eq!(stream.next_spectrum().unwrap().1, Some(1));
        // tx_b still live: the stream is not over. Prove it by sending
        // from another thread while the consumer blocks.
        let producer = std::thread::spawn(move || {
            tx_b.send((spectrum("c", 600.0, 2), Some(2))).unwrap();
            // tx_b drops here: *now* the stream may end.
        });
        assert_eq!(stream.next_spectrum().unwrap().1, Some(2));
        producer.join().unwrap();
        assert!(stream.next_spectrum().is_none());
    }

    #[test]
    fn channel_stream_abrupt_producer_death_looks_like_close() {
        // A producer that panics mid-stream drops its sender in the
        // unwind; the consumer sees everything already sent, then a clean
        // end-of-stream — not a hang.
        let (tx, rx) = std::sync::mpsc::channel();
        let producer = std::thread::spawn(move || {
            tx.send((spectrum("sent", 400.0, 2), Some(7))).unwrap();
            panic!("producer dies after one item");
        });
        assert!(producer.join().is_err());
        let items = drain(&mut ChannelStream::new(rx));
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].1, Some(7));
    }

    #[test]
    fn channel_stream_blocks_until_hangup() {
        let (tx, rx) = std::sync::mpsc::channel();
        let producer = std::thread::spawn(move || {
            for i in 0..5 {
                tx.send((spectrum(&format!("s{i}"), 400.0 + i as f64, 2), Some(i)))
                    .unwrap();
            }
        });
        let items = drain(&mut ChannelStream::new(rx));
        producer.join().unwrap();
        assert_eq!(items.len(), 5);
        assert_eq!(items[4].1, Some(4));
    }

    #[test]
    fn assert_sorted_sets_hint_and_passes_through() {
        let ds = sort_dataset_by_mass(&dataset());
        let stream = AssertSorted::new(DatasetStream::new(&ds));
        assert!(stream.sorted_by_mass());
        assert_eq!(stream.size_hint(), (3, Some(3)));
        let items = drain(&mut { stream });
        let keys: Vec<f64> = items.iter().map(|(s, _)| neutral_mass_key(s)).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys {keys:?}");
    }

    #[test]
    fn sort_preserves_multiset() {
        let ds = dataset();
        let sorted = sort_dataset_by_mass(&ds);
        assert_eq!(sorted.len(), ds.len());
        let mut titles: Vec<&str> = sorted.spectra().iter().map(|s| s.title()).collect();
        titles.sort_unstable();
        assert_eq!(titles, vec!["a", "b", "c"]);
        // Charge participates: (400−H)·3 ≈ 1197 outweighs (500−H)·2 ≈ 998,
        // so "c" sorts between "a" and "b" despite the lowest m/z.
        assert_eq!(sorted.spectra()[0].title(), "a");
        assert_eq!(sorted.spectra()[1].title(), "c");
        assert_eq!(sorted.spectra()[2].title(), "b");
    }

    #[test]
    fn neutral_mass_key_formula() {
        let s = spectrum("x", 500.5, 2);
        assert!((neutral_mass_key(&s) - (500.5 - HYDROGEN_AVG_MASS) * 2.0).abs() < 1e-12);
    }
}
