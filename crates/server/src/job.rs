//! Job lifecycle: many connections multiplexing into one streaming
//! pipeline per job.
//!
//! Each job owns one [`spechd_core::SpecHd::run_streaming_observed`]
//! pipeline fed through a bounded [`ChannelStream`]. Participants are
//! identified by the wire `client_id`, **not** by their TCP connection:
//! a job tracks one `ClientSlot` per participant, and the stream —
//! and therefore the job — ends when the **last** slot closes, which
//! drops the final sender (see the end-of-stream semantics on
//! [`spechd_ms::stream::ChannelStream`]).
//!
//! ## Reconnect and resume
//!
//! A connection that dies abruptly *detaches* its slot instead of
//! closing it, and the same `client_id` may reconnect, re-send
//! `OpenJob`, and resume within the registry's rejoin grace. The slot
//! rules — epoch steal, exactly-once `seq`, duplicate re-ack, grace
//! expiry — are `session`'s; a slot whose grace lapses closes as if it
//! had sent `CloseJob` at the server's next sweep (with a grace of zero
//! a disconnect *is* a close). What is this module's own is the other
//! direction of the stream:
//!
//! * **Results** are archived per job (`emitted`) and replayed to a
//!   rejoining participant before it re-subscribes, so frames that were
//!   in flight when the connection died are not lost. The archive holds
//!   exactly the job's output frames and is freed when the job leaves
//!   the registry (the first sweep a rejoin grace after completion, so a
//!   participant disconnected across finalization can still rejoin for
//!   the replay).
//!
//! Backpressure is bounded in both directions. Ingest: the job's
//! bounded channel — when the pipeline falls behind, `submit` blocks,
//! which stops the connection's reader thread, which stops reading the
//! socket, so slow pipelines throttle producers at TCP. Fan-out: each
//! subscriber's outbound queue is bounded, and result frames are handed
//! over with a non-blocking send — a consumer that stops draining its
//! queue is dropped from the job (its subscription goes inactive)
//! instead of accumulating the job's output in server memory or
//! stalling the pipeline for the other participants. (Rejoin replay is
//! the one blocking send: it pushes the backlog into the rejoining
//! connection's own bounded queue, throttled by that client's reads.)
//!
//! Results stream back as shards finalize: the pipeline hands each
//! [`ShardAssignment`] over in ascending key order, with its raw label
//! block already placed (the [`spechd_cluster::ShardLabelMerger`]
//! layout), and the job turns it into an `Assignment` / `Consensus`
//! frame pair on the spot.

use crate::protocol::{ErrorCode, Frame, JobConfig, JobStatsFrame};
use crate::session::{lock, Slot, Table};
use spechd_core::{ShardAssignment, SpecHd, StreamOutcome};
use spechd_ms::stream::ChannelStream;
use spechd_ms::Spectrum;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type IngestItem = (Spectrum, Option<u32>);

/// Why an open/join or submit was rejected; maps onto a
/// [`Frame::Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JobError {
    /// Wire error code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl JobError {
    pub(crate) fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// A request that is well-formed but wrong for the state it meets.
    pub(crate) fn state(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::ProtocolState, message)
    }
}

struct Subscriber {
    tx: mpsc::SyncSender<Frame>,
    active: Arc<AtomicBool>,
}

/// One participant's durable state, keyed by `client_id` — it outlives
/// the TCP connection carrying it.
struct ClientSlot {
    /// Resume state; the recorded ack is a submit's `(base, count)`.
    slot: Slot<(u64, u32)>,
    /// The participant is done submitting (explicit `CloseJob`, or its
    /// rejoin grace expired).
    closed: bool,
}

#[derive(Default)]
struct JobState {
    /// Template sender; dropped when the last participant closes, which
    /// ends the job's stream.
    template: Option<SyncSender<IngestItem>>,
    clients: HashMap<u64, ClientSlot>,
    /// Next stream index to hand out; submits reserve contiguous ranges.
    next_index: u64,
    submitted: u64,
    subscribers: Vec<Subscriber>,
    /// Shards whose result frames have been sent.
    shards_clustered: u32,
    /// When the pipeline returned; the job leaves the registry once a
    /// rejoin grace has passed since.
    finished: Option<Instant>,
    /// Every result frame the job has broadcast, in order — the replay
    /// backlog for rejoining participants. Bounded by the job's own
    /// output (assignments + consensus + the final stats frame) and
    /// freed when the job leaves the registry.
    emitted: Vec<Frame>,
}

impl JobState {
    fn participants(&self) -> u32 {
        self.clients.values().filter(|c| !c.closed).count() as u32
    }

    /// Closes every slot `shut` picks by `client_id` and slot, and with
    /// the last open slot drops the template — ending the job's ingest
    /// stream so the pipeline can finalize.
    fn close_slots(&mut self, shut: impl Fn(u64, &Slot<(u64, u32)>) -> bool) {
        for (&client_id, client) in &mut self.clients {
            client.closed |= shut(client_id, &client.slot);
        }
        if self.participants() == 0 {
            self.template = None;
        }
    }
}

/// One clustering job: config, pipeline, and fan-out to subscribers.
pub(crate) struct Job {
    id: u64,
    config: JobConfig,
    rejoin_grace: Duration,
    state: Mutex<JobState>,
}

impl Job {
    fn stats_locked(&self, state: &JobState) -> JobStatsFrame {
        JobStatsFrame {
            job_id: self.id,
            participants: state.participants(),
            submitted: state.submitted,
            shards_clustered: state.shards_clustered,
            ..JobStatsFrame::default()
        }
    }

    /// Non-blocking fan-out: a subscriber whose bounded queue is full
    /// (a consumer that stopped draining its connection) or gone is
    /// dropped from the job, so fan-out memory is capped at the queue
    /// bound per connection and a stalled client never stalls the
    /// pipeline.
    fn broadcast(&self, state: &mut JobState, frame: &Frame) {
        state.subscribers.retain(|sub| {
            if sub.tx.try_send(frame.clone()).is_ok() {
                return true;
            }
            sub.active.store(false, Ordering::Release);
            false
        });
    }

    /// Broadcasts a result frame and archives it for rejoin replay.
    fn emit(&self, state: &mut JobState, frame: Frame) {
        self.broadcast(state, &frame);
        state.emitted.push(frame);
    }

    /// Observer callback, run by the pipeline once per shard in ascending
    /// key order: emits the shard's `Assignment` and `Consensus` frames.
    fn on_shard(&self, shard: ShardAssignment) {
        let mut state = lock(&self.state);
        state.shards_clustered += 1;
        let raw_base = shard.raw_base as u64;
        let assignment = Frame::Assignment {
            job_id: self.id,
            key: shard.key,
            raw_base,
            members: shard.members.iter().map(|&m| m as u64).collect(),
            labels: shard.labels.iter().map(|&l| l as u32).collect(),
        };
        let consensus = Frame::Consensus {
            job_id: self.id,
            raw_base,
            medoids: shard.medoids.iter().map(|&m| m as u64).collect(),
        };
        self.emit(&mut state, assignment);
        self.emit(&mut state, consensus);
    }

    /// Runs after the pipeline returns: every shard has been emitted
    /// (the pipeline hands over every shard before returning), so the
    /// final `done = 1` stats frame is the job's last.
    fn on_complete(&self, outcome: &StreamOutcome) {
        let mut state = lock(&self.state);
        state.finished = Some(Instant::now());
        let hac = outcome.outcome.stats().hac;
        let frame = Frame::JobStats(JobStatsFrame {
            job_id: self.id,
            participants: state.participants(),
            submitted: state.submitted,
            streamed: outcome.stream.spectra_streamed as u64,
            kept: outcome.outcome.kept().len() as u64,
            shards_opened: outcome.stream.shards_opened as u32,
            shards_clustered: state.shards_clustered,
            clusters: outcome.outcome.assignment().num_clusters() as u64,
            hac_comparisons: hac.comparisons,
            hac_updates: hac.updates,
            hac_merges: hac.merges,
            done: 1,
        });
        // Deactivate before broadcasting: by the time a client reads the
        // final frame off its socket, its handle already reads as
        // settled, so an immediately following `OpenJob` on the same
        // connection finds the slot vacated. The queued frames still
        // deliver after the senders drop.
        for sub in &state.subscribers {
            sub.active.store(false, Ordering::Release);
        }
        self.emit(&mut state, frame);
        state.subscribers.clear();
    }

    /// Replays the archived result frames into a rejoining
    /// participant's outbound queue. This send is *blocking* — the
    /// backlog drains at the pace the rejoining client reads its socket
    /// — and aborts quietly if the connection dies mid-replay.
    fn replay_locked(&self, state: &JobState, out_tx: &mpsc::SyncSender<Frame>) {
        for frame in &state.emitted {
            if out_tx.send(frame.clone()).is_err() {
                return;
            }
        }
    }
}

/// The server's table of live jobs, plus their pipeline threads.
pub(crate) struct JobRegistry {
    jobs: Table<u64, Job>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    queue_depth: usize,
    rejoin_grace: Duration,
}

impl JobRegistry {
    /// Creates an empty registry whose jobs use an ingest queue of
    /// `queue_depth` spectra (the backpressure bound), with no job cap
    /// and a zero rejoin grace — disconnect means close, exactly the
    /// pre-resume semantics. Servers also set a job cap and a rejoin
    /// grace ([`ServerConfig`](crate::ServerConfig)).
    #[cfg(test)]
    pub(crate) fn new(queue_depth: usize) -> Self {
        Self::with_policy(queue_depth, usize::MAX, Duration::ZERO)
    }

    /// Creates an empty registry with explicit robustness policy:
    /// at most `max_jobs` jobs may be live at once (`OpenJob` creating
    /// one more is shed with a retryable [`ErrorCode::Busy`]), and a
    /// disconnected participant's slot survives `rejoin_grace` for the
    /// same `client_id` to reconnect and resume. The same grace is the
    /// linger a finished job stays in the registry for result replay.
    /// A non-zero grace runs out only at a [`sweep`](Self::sweep).
    pub(crate) fn with_policy(queue_depth: usize, max_jobs: usize, rejoin_grace: Duration) -> Self {
        Self {
            jobs: Table::new(max_jobs, ErrorCode::Busy, "jobs"),
            threads: Mutex::new(Vec::new()),
            queue_depth: queue_depth.max(1),
            rejoin_grace,
        }
    }

    /// Opens `job_id` (creating its pipeline), joins it as a new
    /// participant, or — when `client_id` already holds a slot —
    /// **rejoins** after a disconnect: the job replays every result
    /// frame the participant may have missed, then resumes its slot
    /// (submit seq numbering and all).
    ///
    /// Joining requires a bit-identical [`JobConfig`]. `out_tx` is
    /// subscribed to the job's result frames; its bound is the fan-out
    /// budget — result frames are delivered with a non-blocking send,
    /// and a subscriber whose queue is full is dropped from the job.
    /// The returned [`JobHandle`] counts as one participant until
    /// closed or dropped. Creating a new job when `max_jobs` are live
    /// is shed with a retryable [`ErrorCode::Busy`], as is one whose
    /// pipeline thread the OS refuses, and one whose config the pipeline
    /// rejects with [`ErrorCode::ConfigMismatch`].
    pub(crate) fn open_or_join(
        self: &Arc<Self>,
        job_id: u64,
        client_id: u64,
        config: JobConfig,
        out_tx: mpsc::SyncSender<Frame>,
    ) -> Result<JobHandle, JobError> {
        let active = Arc::new(AtomicBool::new(true));
        let mut subscriber = Some(Subscriber {
            tx: out_tx.clone(),
            active: Arc::clone(&active),
        });
        let mut created = None;
        let job = self.jobs.open(
            job_id,
            |job| match job.config == config {
                true => Ok(()),
                false => Err(JobError::new(
                    ErrorCode::ConfigMismatch,
                    format!("job {job_id} exists with a different config"),
                )),
            },
            || {
                // Build the engine before the job is registered: a config
                // the pipeline rejects must not leave a job that never
                // retires.
                let engine = SpecHd::try_new(config.pipeline_config())
                    .map_err(|e| JobError::new(ErrorCode::ConfigMismatch, e.to_string()))?;
                let (tx, rx) = mpsc::sync_channel::<IngestItem>(self.queue_depth);
                created = Some((engine, rx, tx.clone()));
                Ok(Job {
                    id: job_id,
                    config: config.clone(),
                    rejoin_grace: self.rejoin_grace,
                    state: Mutex::new(JobState {
                        template: Some(tx),
                        clients: HashMap::from([(client_id, ClientSlot::fresh())]),
                        subscribers: subscriber.take().into_iter().collect(),
                        ..JobState::default()
                    }),
                })
            },
        )?;

        let (epoch, closed, sender) = if let Some((engine, rx, sender)) = created {
            if let Err(e) = self.start_pipeline(&job, engine, rx) {
                // No pipeline, no job: whoever joined it meanwhile is
                // unsubscribed and has its submits refused, a later joiner
                // finds it finalizing (`JobClosed`), and it leaves the table.
                let mut state = lock(&job.state);
                state.template = None;
                for sub in state.subscribers.drain(..) {
                    sub.active.store(false, Ordering::Release);
                }
                drop(state);
                self.jobs.remove_where(|entry| Arc::ptr_eq(entry, &job));
                let message = format!("no pipeline thread: {e}");
                return Err(JobError::new(ErrorCode::Busy, message));
            }
            (0, false, Some(sender))
        } else {
            let mut state = lock(&job.state);
            let finalizing = state.finished.is_some() || state.template.is_none();
            let (epoch, closed) = match state.clients.get_mut(&client_id) {
                // The same `client_id` back is a rejoin: the epoch bump
                // turns a zombie handle's close/detach into no-ops, and
                // its dead subscription self-prunes on the next broadcast.
                Some(client) => {
                    let resumed = (client.slot.rejoin(), client.closed);
                    // Replay the backlog *before* subscribing, so the
                    // rejoiner sees every frame exactly once and in order.
                    job.replay_locked(&state, &out_tx);
                    resumed
                }
                None if finalizing => {
                    return Err(JobError::new(
                        ErrorCode::JobClosed,
                        format!("job {job_id} is finalizing and cannot be joined"),
                    ));
                }
                None => {
                    state.clients.insert(client_id, ClientSlot::fresh());
                    (0, false)
                }
            };
            let sender = if state.finished.is_some() {
                // Nothing further will be broadcast; the replay already
                // delivered the final done frame.
                active.store(false, Ordering::Release);
                None
            } else {
                state.subscribers.extend(subscriber);
                state.template.clone().filter(|_| !closed)
            };
            (epoch, closed, sender)
        };
        Ok(JobHandle {
            job,
            client_id,
            epoch,
            sender,
            active,
            closed,
        })
    }

    /// Runs a new job's pipeline on a thread of its own, or returns why
    /// the OS refused one. A zero grace removes the job from the table as
    /// soon as it finishes (the pre-resume behavior); otherwise a sweep
    /// does, a grace later.
    fn start_pipeline(
        self: &Arc<Self>,
        job: &Arc<Job>,
        engine: SpecHd,
        rx: Receiver<IngestItem>,
    ) -> std::io::Result<()> {
        let registry = Arc::clone(self);
        let job = Arc::clone(job);
        let handle = std::thread::Builder::new()
            .name(format!("spechd-job-{}", job.id))
            .spawn(move || {
                let stream_cfg = job.config.stream_config();
                let outcome =
                    engine.run_streaming_observed(ChannelStream::new(rx), &stream_cfg, |shard| {
                        job.on_shard(shard)
                    });
                job.on_complete(&outcome);
                if registry.rejoin_grace.is_zero() {
                    registry.jobs.remove_where(|entry| entry.id == job.id);
                }
            })?;
        let mut threads = lock(&self.threads);
        // Prune handles of pipelines that already finished — a
        // long-running server must not retain one handle per job ever
        // created until shutdown.
        threads.retain(|t| !t.is_finished());
        threads.push(handle);
        Ok(())
    }

    /// Closes every slot detached, and removes every job finished, at
    /// least `grace` ago. Waits on no job's lock while it holds the
    /// table's.
    pub(crate) fn sweep(&self, grace: Duration) {
        let mut expired = Vec::new();
        for job in self.jobs.entries() {
            let mut state = lock(&job.state);
            state.close_slots(|_, slot| slot.lapsed(grace));
            if state.finished.is_some_and(|since| since.elapsed() >= grace) {
                expired.push(job.id);
            }
        }
        self.jobs.remove_where(|job| expired.contains(&job.id));
    }

    /// Joins every pipeline thread ever spawned. Call only after all
    /// connections are gone (their dropped senders are what let the
    /// pipelines finish) and every rejoin grace has run out.
    pub(crate) fn join_pipelines(&self) {
        let handles: Vec<_> = lock(&self.threads).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl ClientSlot {
    fn fresh() -> Self {
        Self {
            slot: Slot::new(),
            closed: false,
        }
    }
}

/// One connection's participation in one job.
pub(crate) struct JobHandle {
    job: Arc<Job>,
    client_id: u64,
    /// The slot epoch this handle was issued under; once a rejoin has
    /// bumped it, this handle's submit is refused and its close/detach
    /// are no-ops.
    epoch: u64,
    sender: Option<SyncSender<IngestItem>>,
    active: Arc<AtomicBool>,
    closed: bool,
}

impl JobHandle {
    /// The job this handle participates in.
    pub(crate) fn job_id(&self) -> u64 {
        self.job.id
    }

    /// Whether the subscription is still live (job not finished).
    /// Connections use this for idle accounting: a connection waiting on
    /// a live job's results is not idle.
    pub(crate) fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// True once this participation is over on both sides: closed (no
    /// more submits) and no longer subscribed (the job finished, or the
    /// subscription was dropped as a stalled consumer). A connection
    /// whose handle is settled may vacate it and open a new job.
    pub(crate) fn is_settled(&self) -> bool {
        self.closed && !self.is_active()
    }

    /// Appends a batch to the job's stream, returning the batch's base
    /// stream index. Spectra occupy contiguous indices `[base, base +
    /// len)` even with concurrent submitters — the job lock is held
    /// across the whole batch. Blocks (backpressure) when the ingest
    /// queue is full.
    ///
    /// `seq` makes this idempotent across reconnects: a duplicate of
    /// the slot's last acknowledged sequence number re-returns the
    /// stored `(base, count)` without ingesting anything, and any other
    /// out-of-order `seq` is a protocol error — each batch enters the
    /// clustering input exactly once.
    pub(crate) fn submit(&self, seq: u64, spectra: Vec<Spectrum>) -> Result<(u64, u32), JobError> {
        let Some(sender) = &self.sender else {
            return Err(JobError::state("job already closed on this connection"));
        };
        let count = spectra.len() as u32;
        let mut guard = lock(&self.job.state);
        let state = &mut *guard;
        let Some(client) = state.clients.get_mut(&self.client_id) else {
            return Err(JobError::state(format!(
                "client {} holds no slot in job {}",
                self.client_id, self.job.id
            )));
        };
        if let Some(receipt) = client.slot.admit(self.epoch, seq)? {
            // A re-sent batch whose ack was lost: re-ack, don't
            // re-ingest.
            return Ok(receipt);
        }
        let base = state.next_index;
        for spectrum in spectra {
            if sender.send((spectrum, None)).is_err() {
                return Err(JobError::new(
                    ErrorCode::JobClosed,
                    "job pipeline terminated",
                ));
            }
        }
        state.next_index += u64::from(count);
        state.submitted += u64::from(count);
        client.slot.record(seq, (base, count));
        Ok((base, count))
    }

    /// A statistics snapshot; serves as the `OpenJob` and `Flush` ack.
    /// Because a connection's frames are processed in order, by the time
    /// the snapshot is taken every earlier `Submit` on this connection
    /// has been ingested — `Flush` is a per-connection barrier.
    pub(crate) fn stats(&self) -> JobStatsFrame {
        self.job.stats_locked(&lock(&self.job.state))
    }

    /// Ends this participant's submissions **permanently** (the wire
    /// `CloseJob`). When the last slot closes, the job's stream ends
    /// and the pipeline finalizes. Idempotent — a re-sent `CloseJob`
    /// after a reconnect is a no-op.
    pub(crate) fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.sender = None;
        let mine =
            |client_id, slot: &Slot<_>| client_id == self.client_id && slot.owned_by(self.epoch);
        lock(&self.job.state).close_slots(mine);
    }

    /// The connection died without a `CloseJob`: release the slot but
    /// keep it resumable for the job's rejoin grace. If nobody rejoins
    /// in time the slot closes at a sweep as if `CloseJob` had arrived;
    /// with a zero grace that happens here and now.
    fn detach(&mut self) {
        self.sender = None;
        let mut state = lock(&self.job.state);
        let Some(client) = state.clients.get_mut(&self.client_id) else {
            return;
        };
        if client.slot.detach(self.epoch) && self.job.rejoin_grace.is_zero() {
            state.close_slots(|client_id, _| client_id == self.client_id);
        }
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        if self.closed {
            return;
        }
        // An abrupt end (connection gone without CloseJob) detaches
        // rather than closes, so the participant can reconnect and
        // resume within the grace.
        self.detach();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::AssignmentAssembler;
    use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
    use spechd_ms::SpectrumDataset;

    /// `n` synthetic spectra of `n / 5` peptides, deterministic in `seed`.
    fn dataset(n: usize, seed: u64) -> SpectrumDataset {
        SyntheticGenerator::new(SyntheticConfig {
            num_spectra: n,
            num_peptides: n / 5,
            seed,
            ..SyntheticConfig::default()
        })
        .generate()
    }

    /// One job's frames, read off its subscriber queue with no socket in
    /// between: per shard an `Assignment` then its `Consensus`, keys
    /// strictly ascending, raw blocks back to back, the `done` stats
    /// last — and together they reassemble to a local `run`.
    #[test]
    fn job_frames_leave_in_key_order_and_reassemble_to_run() {
        let ds = dataset(400, 31);
        for workers in [1, 4] {
            let config = JobConfig {
                workers,
                ..JobConfig::default()
            };
            let registry = Arc::new(JobRegistry::new(64));
            let (tx, rx) = mpsc::sync_channel(4096);
            let mut handle = registry.open_or_join(42, 7, config.clone(), tx).unwrap();
            handle.submit(0, ds.spectra().to_vec()).unwrap();
            handle.close();
            let mut frames = Vec::new();
            loop {
                let frame = rx.recv().expect("the job sends a done frame");
                let done = matches!(frame, Frame::JobStats(s) if s.done != 0);
                frames.push(frame);
                if done {
                    break;
                }
            }
            registry.join_pipelines();

            let Some((Frame::JobStats(stats), results)) = frames.split_last() else {
                panic!("workers {workers}: the done stats must come last");
            };
            assert_eq!(2 * stats.shards_clustered as usize, results.len());
            let (mut keys, mut raw_base) = (Vec::new(), 0);
            for pair in results.chunks(2) {
                let [Frame::Assignment {
                    key, raw_base: a, ..
                }, Frame::Consensus {
                    raw_base: c,
                    medoids,
                    ..
                }] = pair
                else {
                    panic!("workers {workers}: not an Assignment/Consensus pair: {pair:?}");
                };
                assert_eq!((*a, *c), (raw_base, raw_base), "workers {workers}");
                raw_base += medoids.len() as u64;
                keys.push(*key);
            }
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "workers {workers}");

            let mut assembler = AssignmentAssembler::new();
            frames.iter().for_each(|f| assembler.absorb(f));
            let served = assembler.finish().expect("a consistent frame set");
            let run = SpecHd::new(config.pipeline_config()).run(&ds);
            let wide = |v: &[usize]| v.iter().map(|&i| i as u64).collect::<Vec<_>>();
            assert_eq!(served.kept, wide(run.kept()), "workers {workers}");
            assert_eq!(
                served.labels,
                run.assignment().labels(),
                "workers {workers}"
            );
            assert_eq!(served.consensus, wide(run.consensus()), "workers {workers}");
        }
    }

    /// A library caller can hand `open_or_join` a config the wire would
    /// never decode: it is refused, and no job holds a slot for it.
    #[test]
    fn out_of_range_config_is_refused_and_registers_no_job() {
        let registry = Arc::new(JobRegistry::new(64));
        let (tx, _rx) = mpsc::sync_channel(16);
        let config = JobConfig {
            threshold_fraction: 1.5,
            ..JobConfig::default()
        };
        let Err(err) = registry.open_or_join(1, 1, config, tx) else {
            panic!("a threshold fraction above 1 opened a job");
        };
        assert_eq!(err.code, ErrorCode::ConfigMismatch);
        assert_eq!(registry.jobs.len(), 0);
        registry.join_pipelines();
    }

    /// A thread that panicked while holding job 1's state lock fails
    /// alone: job 1's handle still submits and closes, and both job 1
    /// and a second job run to their final frame.
    #[test]
    fn a_poisoned_job_lock_fails_no_later_caller() {
        let spectra = dataset(60, 5).spectra().to_vec();
        let registry = Arc::new(JobRegistry::new(64));
        let config = JobConfig::default();
        let (tx1, rx1) = mpsc::sync_channel(4096);
        let mut first = registry.open_or_join(1, 1, config.clone(), tx1).unwrap();
        let job = Arc::clone(&first.job);
        let poisoner = std::thread::spawn(move || {
            let _held = job.state.lock();
            panic!("poisoning job 1's state on purpose");
        });
        assert!(poisoner.join().is_err());
        assert!(first.job.state.is_poisoned());

        assert_eq!(first.submit(0, spectra.clone()).unwrap(), (0, 60));
        first.close();
        let (tx2, rx2) = mpsc::sync_channel(4096);
        let mut second = registry.open_or_join(2, 1, config, tx2).unwrap();
        second.submit(0, spectra).unwrap();
        second.close();
        for (job_id, rx) in [(1, rx1), (2, rx2)] {
            let done = rx.iter().find_map(|frame| match frame {
                Frame::JobStats(stats) if stats.done != 0 => Some(stats),
                _ => None,
            });
            assert_eq!(done.map(|s| s.submitted), Some(60), "job {job_id}");
        }
        registry.join_pipelines();
    }

    /// A subscriber that never drains its result queue is dropped from the
    /// job once the queue fills: the pipeline still completes (a stalled
    /// consumer cannot wedge it) and the server buffers no more than the
    /// queue's bound on its behalf.
    #[test]
    fn stalled_subscriber_is_dropped_not_buffered() {
        const FANOUT_BOUND: usize = 2;
        let registry = Arc::new(JobRegistry::new(8192));
        let (tx, rx) = mpsc::sync_channel(FANOUT_BOUND);
        let mut handle = registry
            .open_or_join(1, 1, JobConfig::default(), tx)
            .expect("open job");
        let dataset = dataset(240, 0x57A1);
        handle
            .submit(0, dataset.spectra().to_vec())
            .expect("submit");
        handle.close();

        // Joins the pipeline: hangs here if the stalled subscriber blocked it.
        registry.join_pipelines();
        assert!(handle.is_settled(), "settled once closed and finished");
        assert!(
            rx.try_iter().count() <= FANOUT_BOUND,
            "fan-out buffered beyond the queue bound for a stalled consumer"
        );
    }

    /// The registry-level resume contract: a re-sent batch under the last
    /// acknowledged sequence number is re-acked with the stored receipt and
    /// **not** re-ingested, and an out-of-order sequence is a protocol
    /// error.
    #[test]
    fn duplicate_submit_is_reacked_not_reingested() {
        let registry = Arc::new(JobRegistry::new(8192));
        let (tx, _rx) = mpsc::sync_channel(64);
        let mut handle = registry
            .open_or_join(1, 7, JobConfig::default(), tx)
            .expect("open");
        let dataset = dataset(40, 0xD0D0);
        let batch: Vec<_> = dataset.spectra().to_vec();

        let first = handle.submit(0, batch.clone()).expect("seq 0");
        // The ack was "lost"; the client re-sends the same seq.
        let replayed = handle.submit(0, batch.clone()).expect("seq 0 again");
        assert_eq!(first, replayed, "duplicate seq re-acks the stored receipt");
        assert_eq!(
            handle.stats().submitted,
            batch.len() as u64,
            "the duplicate must not have been ingested"
        );

        let err = handle.submit(5, batch.clone()).expect_err("seq gap");
        assert_eq!(err.code, ErrorCode::ProtocolState);

        let second = handle.submit(1, batch.clone()).expect("seq 1");
        assert_eq!(second.0, batch.len() as u64, "stream indices continue");
        handle.close();
        registry.join_pipelines();
        assert!(handle.is_settled());
    }
}
