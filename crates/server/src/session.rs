//! The reconnect-and-resume contract, written once.
//!
//! A participant is its wire `client_id`, not its TCP connection, and
//! its [`Slot`] outlives the connection carrying it:
//!
//! * A connection that dies *detaches* the slot. The slot stays
//!   resumable for the owner's rejoin grace ([`after_grace`]); only if
//!   nobody rejoined by then does the owner expire it.
//! * A rejoin bumps the slot's **epoch** — also while the old
//!   connection still reads as attached (the server has not noticed it
//!   die): the newest connection wins, and whatever was issued under an
//!   older epoch, handle or grace timer, is refused from then on.
//! * Submissions are sequence-numbered per slot. Each `seq` is admitted
//!   once; a duplicate of the last acknowledged `seq` (a re-send after a
//!   lost ack) is answered with the recorded ack and not ingested
//!   again; any other `seq` is a protocol error.
//!
//! [`crate::job`] keeps a slot per participant of a clustering job,
//! [`crate::store`] one per store; result replay and writer exclusivity
//! stay theirs.

use crate::job::JobError;
use std::time::Duration;

/// One participant's resumable state; `A` is the ack a duplicate `seq`
/// is answered with.
pub(crate) struct Slot<A> {
    /// A live connection currently holds this slot.
    attached: bool,
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
            attached: true,
            epoch: 0,
            next_seq: 0,
            last_ack: None,
        }
    }

    /// The same participant is back on a new connection: attaches it
    /// and returns the epoch the new connection's handle carries.
    pub(crate) fn rejoin(&mut self) -> u64 {
        self.attached = true;
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
    /// detaches the slot and returns `true` (the caller starts its
    /// grace), unless a newer connection already holds it.
    pub(crate) fn detach(&mut self, epoch: u64) -> bool {
        let owned = self.owned_by(epoch);
        if owned {
            self.attached = false;
        }
        owned
    }

    /// Whether the grace that began when `epoch` detached ran out with
    /// nobody rejoining.
    pub(crate) fn lapsed(&self, epoch: u64) -> bool {
        !self.attached && self.owned_by(epoch)
    }
}

/// Runs `expire` once `grace` has passed: on the calling thread when
/// the grace is zero, otherwise on a detached timer thread (joining it
/// at shutdown would serialize shutdowns on the grace). `expire` takes
/// its own lock and re-checks that nothing superseded it meanwhile
/// ([`Slot::lapsed`], a generation); callers hold no lock across this.
pub(crate) fn after_grace(
    grace: Duration,
    thread_name: String,
    expire: impl FnOnce() + Send + 'static,
) {
    if grace.is_zero() {
        return expire();
    }
    let _ = std::thread::Builder::new()
        .name(thread_name)
        .spawn(move || {
            std::thread::sleep(grace);
            expire();
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrorCode;

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
        assert!(!slot.lapsed(0) && !slot.lapsed(1), "still attached");

        assert!(slot.detach(1));
        assert!(
            slot.lapsed(1) && !slot.lapsed(0),
            "only the epoch that left"
        );
        slot.rejoin();
        assert!(!slot.lapsed(1), "a rejoin inside the grace cancels it");
    }

    #[test]
    fn zero_grace_expires_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let (tx, rx) = std::sync::mpsc::channel();
        after_grace(Duration::ZERO, "unused".into(), move || {
            tx.send(std::thread::current().id())
                .expect("receiver alive");
        });
        assert_eq!(rx.try_recv(), Ok(caller), "ran inline, before returning");
    }
}
