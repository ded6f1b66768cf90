//! Served state, written once: the reconnect-and-resume contract, the
//! table every registry keeps its entries in, and the rule that every
//! rejoin grace is a time stored in the state it expires.
//!
//! A participant is its wire `client_id`, not its TCP connection, and
//! its [`Slot`] outlives the connection carrying it:
//!
//! * A connection that dies *detaches* the slot, which records when. The
//!   slot stays resumable for the owner's rejoin grace; once that has
//!   run out with nobody rejoining, the slot has [lapsed](Slot::lapsed)
//!   and the owner may expire it. A zero grace expires it at once, on
//!   the detaching thread.
//! * A rejoin bumps the slot's **epoch** — also while the old
//!   connection still reads as attached (the server has not noticed it
//!   die): the newest connection wins, and whatever was issued under an
//!   older epoch is refused from then on. A rejoin also clears the
//!   detach time, so the grace it began no longer runs.
//! * Submissions are sequence-numbered per slot. Each `seq` is admitted
//!   once; a duplicate of the last acknowledged `seq` (a re-send after a
//!   lost ack) is answered with the recorded ack and not ingested
//!   again; any other `seq` is a protocol error.
//!
//! [`crate::job`] keeps a slot per participant of a clustering job,
//! [`crate::store`] one per store; result replay and writer exclusivity
//! stay theirs. Each registry keeps its entries in one [`Table`]: lookup
//! or create under a cap, removal, and nothing else.
//!
//! No grace owns a thread. The server's one sweeper checks every stored
//! time each poll interval (and treats every grace as run out once the
//! server is stopping), and a store's lapsed session is only noticed by
//! the next `OpenStore`. Every lock is taken through [`lock`], so a
//! thread that panicked while holding one fails alone instead of
//! panicking every connection that touches the same state.

use crate::job::JobError;
use crate::protocol::ErrorCode;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// Locks `mutex`, taking it over from a thread that panicked while it
/// held it. No server lock is held across a half-done update that can
/// panic on input the decoder admits, so the value is whole and the next
/// holder can go on with it.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] without waiting: `None` while another thread holds `mutex`.
/// Whatever decides under a [`Table`]'s lock takes entries this way.
pub(crate) fn try_lock<T>(mutex: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match mutex.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// A keyed table of shared entries with a cap: what every registry
/// keeps its jobs or stores in.
///
/// Lock order is table, then entry: whatever runs under the table's
/// lock may take an entry's lock only if no holder of that lock waits
/// on anything else meanwhile, and otherwise uses [`try_lock`].
pub(crate) struct Table<K, E> {
    entries: Mutex<HashMap<K, Arc<E>>>,
    cap: usize,
    /// What creating one entry past the cap is refused with.
    busy: ErrorCode,
    /// The entries' name in that refusal ("jobs", "stores").
    what: &'static str,
}

impl<K: Eq + Hash, E> Table<K, E> {
    /// An empty table holding at most `cap` (at least one) entries.
    pub(crate) fn new(cap: usize, busy: ErrorCode, what: &'static str) -> Self {
        Self {
            entries: Mutex::new(HashMap::new()),
            cap: cap.max(1),
            busy,
            what,
        }
    }

    /// The entry under `key`: an existing one once `join` admits it,
    /// or a new one from `create`. Creating one more entry than the cap
    /// is refused with the table's retryable busy code, and whatever
    /// `create` refuses registers nothing. Both run under the table's
    /// lock.
    pub(crate) fn open(
        &self,
        key: K,
        join: impl FnOnce(&E) -> Result<(), JobError>,
        create: impl FnOnce() -> Result<E, JobError>,
    ) -> Result<Arc<E>, JobError> {
        let mut entries = lock(&self.entries);
        if let Some(entry) = entries.get(&key) {
            join(entry)?;
            return Ok(Arc::clone(entry));
        }
        if entries.len() >= self.cap {
            let full = format!(
                "the server holds {} {}; retry after backoff",
                self.cap, self.what
            );
            return Err(JobError::new(self.busy, full));
        }
        let entry = Arc::new(create()?);
        entries.insert(key, Arc::clone(&entry));
        Ok(entry)
    }

    /// Every entry, for work that must not hold the table's lock.
    pub(crate) fn entries(&self) -> Vec<Arc<E>> {
        lock(&self.entries).values().cloned().collect()
    }

    /// Removes every entry `expired` picks. It runs under the table's
    /// lock, where every clone of an entry is taken, so an entry's
    /// [`Arc::strong_count`] holds still meanwhile; it takes an entry's
    /// own lock only with [`try_lock`].
    pub(crate) fn remove_where(&self, mut expired: impl FnMut(&Arc<E>) -> bool) {
        lock(&self.entries).retain(|_, entry| !expired(entry));
    }

    /// Number of entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        lock(&self.entries).len()
    }
}

/// One participant's resumable state; `A` is the ack a duplicate `seq`
/// is answered with.
pub(crate) struct Slot<A> {
    /// When the connection holding this slot went away: the start of its
    /// rejoin grace. `None` while a live connection holds it.
    detached: Option<Instant>,
    /// Bumped on every rejoin.
    epoch: u64,
    /// The next sequence number this slot will ingest.
    next_seq: u64,
    /// The last acknowledged `seq` and its ack.
    last_ack: Option<(u64, A)>,
}

impl<A: Clone> Slot<A> {
    /// A fresh slot, attached to the connection that created it, at
    /// epoch 0.
    pub(crate) fn new() -> Self {
        Self {
            detached: None,
            epoch: 0,
            next_seq: 0,
            last_ack: None,
        }
    }

    /// The same participant is back on a new connection: attaches it
    /// and returns the epoch the new connection's handle carries.
    pub(crate) fn rejoin(&mut self) -> u64 {
        self.detached = None;
        self.epoch += 1;
        self.epoch
    }

    /// Whether a handle issued under `epoch` still owns the slot.
    pub(crate) fn owned_by(&self, epoch: u64) -> bool {
        self.epoch == epoch
    }

    /// What a submission numbered `seq` from a handle issued under
    /// `epoch` is: `Ok(None)` — new, ingest it and [`record`] its ack;
    /// `Ok(Some(ack))` — the last acknowledged one again, answer with
    /// `ack` and ingest nothing; `Err` — a superseded handle or a gap.
    ///
    /// [`record`]: Self::record
    pub(crate) fn admit(&self, epoch: u64, seq: u64) -> Result<Option<A>, JobError> {
        if !self.owned_by(epoch) {
            return Err(JobError::state(
                "this connection's slot was resumed by a newer connection",
            ));
        }
        match &self.last_ack {
            Some((acked, ack)) if *acked == seq => Ok(Some(ack.clone())),
            _ if seq == self.next_seq => Ok(None),
            _ => Err(JobError::state(format!(
                "out-of-order seq {seq} (expected {})",
                self.next_seq
            ))),
        }
    }

    /// Records the ack of the just-ingested `seq`.
    pub(crate) fn record(&mut self, seq: u64, ack: A) {
        self.next_seq = seq + 1;
        self.last_ack = Some((seq, ack));
    }

    /// The connection whose handle was issued under `epoch` is gone:
    /// detaches the slot, which starts its rejoin grace, and returns
    /// `true` — unless a newer connection already holds it.
    pub(crate) fn detach(&mut self, epoch: u64) -> bool {
        let owned = self.owned_by(epoch);
        if owned {
            self.detached = Some(Instant::now());
        }
        owned
    }

    /// Whether the slot is detached and a rejoin grace of `grace` has
    /// run out since with nobody rejoining.
    pub(crate) fn lapsed(&self, grace: Duration) -> bool {
        self.detached.is_some_and(|since| since.elapsed() >= grace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(epoch, seq, what admit gives)`: an ack, or a word its
    /// `ProtocolState` refusal must contain.
    type Row = (u64, u64, Result<Option<&'static str>, &'static str>);

    fn admits(slot: &Slot<&str>, rows: &[Row]) {
        for &(epoch, seq, expect) in rows {
            match (slot.admit(epoch, seq), expect) {
                (Ok(ack), Ok(expect)) => assert_eq!(ack, expect, "admit({epoch}, {seq})"),
                (Err(e), Err(word)) if e.code == ErrorCode::ProtocolState => {
                    assert!(e.message.contains(word), "admit({epoch}, {seq}): {e:?}")
                }
                (got, _) => panic!("admit({epoch}, {seq}) gave {got:?}, not {expect:?}"),
            }
        }
    }

    #[test]
    fn slot_admits_each_seq_once_and_the_newest_epoch_wins() {
        let mut slot = Slot::new();
        admits(&slot, &[(0, 0, Ok(None)), (0, 1, Err("out-of-order"))]);
        slot.record(0, "ack0");
        let after_seq_0 = [
            (0, 0, Ok(Some("ack0"))),
            (0, 1, Ok(None)),
            (0, 2, Err("out-of-order")),
        ];
        admits(&slot, &after_seq_0);

        assert_eq!(slot.rejoin(), 1);
        let after_rejoin = [(0, 1, Err("newer connection")), (1, 0, Ok(Some("ack0")))];
        admits(&slot, &after_rejoin);
        assert!(!slot.detach(0), "a superseded handle releases nothing");
        assert!(!slot.lapsed(Duration::ZERO), "still attached");

        assert!(slot.detach(1));
        assert!(
            slot.lapsed(Duration::ZERO) && !slot.lapsed(Duration::from_secs(60)),
            "only once the grace ran out"
        );
        slot.rejoin();
        assert!(
            !slot.lapsed(Duration::ZERO),
            "a rejoin inside the grace cancels it"
        );
    }
}
