//! The TCP front end: accept loop, per-connection threads, timeouts,
//! and graceful shutdown.
//!
//! A connection starts with one thread. It polls the socket in short
//! intervals (so it can notice shutdown and idle deadlines without a
//! frame arriving), reads and dispatches one frame at a time through one
//! buffered reader, and owns the connection's [`JobHandle`]; once a
//! handle settles (job closed and finished) it vacates it, so a
//! connection can run jobs sequentially. Until the connection opens a
//! job, the same thread writes every reply: an ack, or a search reply's
//! `SearchHit` frames and its closing `SearchStats`, is encoded into the
//! connection's 64 KiB write buffer and flushed once, before the next
//! request is read. A job's pipeline makes frames this thread did not
//! compute, so `OpenJob` starts a **writer** thread and a **bounded**
//! outbound queue, and from then on every frame of the connection, acks
//! and streamed results alike, goes through that queue — one queue, so
//! every client sees a single total order of server frames, and one cap
//! (4096 frames) on what a connection can make the server buffer. The
//! writer flushes at reply boundaries: a search reply leaves in one
//! flush, and any other frame is flushed once the queue runs empty
//! behind it. A client that stops draining results is dropped from its
//! job's fan-out when the queue fills, and a socket that stops
//! accepting writes fails the write at the frame deadline (10 s) and is
//! shut down — a stalled consumer costs a bounded queue, never the
//! job's output.
//!
//! Error policy: anything the frame layer rejects — bad magic or
//! version, an oversized length prefix, a truncated or undecodable
//! payload — is fatal for the **connection**: a best-effort
//! [`Frame::Error`] goes out and the socket closes, exactly as if the
//! client had disconnected (its job participation ends, the job
//! itself survives). Frames that are well-formed but wrong for the
//! connection's state (`Submit` before `OpenJob`, a mismatched
//! `job_id`) get an [`ErrorCode::ProtocolState`] error and the
//! connection stays up.

use crate::job::{JobError, JobHandle, JobRegistry};
use crate::limits::{Limits, MAX_LIBRARY_TOTAL_ENTRIES};
use crate::protocol::{finish_frame, write_frame, ErrorCode, Frame, WireError};
use crate::search::{SearchHandle, SearchRegistry};
use crate::store::{StoreRegistry, StoreSessionHandle};
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cap on frames queued toward one connection once it has opened a job
/// (its acks plus its job subscription) — the fan-out bound: a
/// subscriber whose queue is full when a result frame arrives is
/// dropped from the job, so a stalled client never accumulates a job's
/// output server-side.
const OUTBOUND_QUEUE_DEPTH: usize = 4096;

/// Once a frame has started arriving, the per-read deadline for the rest
/// of it; a mid-frame stall is treated as a truncated frame. Also the
/// per-write deadline of every reply: a peer whose socket stops accepting
/// bytes this long is disconnected.
const FRAME_DEADLINE: Duration = Duration::from_secs(10);

/// Capacity of a connection's read buffer and of the buffer its own
/// replies are encoded into: a 64-query search reply is one write.
const SOCKET_BUFFER: usize = 64 * 1024;

/// Load-shedding bound on resident cluster stores; an `OpenStore` that
/// would create one more is refused with the retryable
/// [`ErrorCode::StoreBusy`]. Every `OpenStore` first drops the idle
/// stores (see [`crate::store`]), so what counts toward it is the
/// stores some connection holds, whose session is inside its rejoin
/// grace, that hold changes their file lacks, or that are memory-only.
const MAX_STORES: usize = 1024;

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The decode-time caps the server sets — frame length and worker
    /// count — applied by the frame reader. Every other cap is a
    /// protocol constant (see [`crate::limits`]).
    pub limits: Limits,
    /// How long a connection with no open (unfinished) job may sit
    /// without sending a frame before the server closes it. Connections
    /// waiting on a live job's results are exempt.
    pub idle_timeout: Duration,
    /// Per-job ingest queue depth, in spectra — the backpressure bound:
    /// submitters block once the pipeline is this far behind.
    pub queue_depth: usize,
    /// Reader poll interval: the granularity at which shutdown and idle
    /// deadlines are noticed. Also the period of the server's one
    /// sweeper thread, which expires the job slots, finished jobs and
    /// empty search jobs whose [`rejoin_grace`](Self::rejoin_grace) ran
    /// out.
    pub poll_interval: Duration,
    /// Load-shedding bound: at most this many clustering jobs may be
    /// live at once. An `OpenJob` that would create one more is refused
    /// with the **retryable** [`ErrorCode::Busy`] — clients back off and
    /// retry instead of the server over-committing memory and threads.
    pub max_jobs: usize,
    /// How long a disconnected participant's job slot stays resumable:
    /// a connection that dies without `CloseJob` can reconnect within
    /// this window, re-open the job with the same `client_id`, and
    /// resume (missed result frames are replayed, submit sequencing
    /// continues). Zero restores disconnect-is-close. Also the linger a
    /// finished job (and an emptied search job) stays joinable for.
    /// Store sessions use the same window: a disconnected holder's
    /// exclusive slot stays resumable this long before the store frees.
    /// A grace holds no thread: it is the time its state was left, which
    /// the sweeper (or, for a store, the next `OpenStore`) judges, and
    /// shutdown ends every grace at once, since nobody can rejoin a
    /// stopped server.
    pub rejoin_grace: Duration,
    /// Directory of `<name>.shpk` cluster-store backing files for
    /// `OpenStore`/`PersistStore` sessions. `None` (the default) keeps
    /// stores memory-only and refuses `PersistStore`.
    pub store_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            limits: Limits::default(),
            idle_timeout: Duration::from_secs(60),
            queue_depth: 1024,
            poll_interval: Duration::from_millis(50),
            max_jobs: 1024,
            rejoin_grace: Duration::from_secs(2),
            store_dir: None,
        }
    }
}

/// What every connection thread shares with the accept loop.
struct Shared {
    config: ServerConfig,
    jobs: Arc<JobRegistry>,
    searches: Arc<SearchRegistry>,
    stores: StoreRegistry,
    /// Once set, [`Server::serve`] returns after its next accept and
    /// every connection hangs up at its next poll.
    shutdown: AtomicBool,
}

/// A bound, not-yet-serving clustering server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            jobs: Arc::new(JobRegistry::with_policy(
                config.queue_depth,
                config.max_jobs,
                config.rejoin_grace,
            )),
            searches: Arc::new(SearchRegistry::new(
                config.rejoin_grace,
                MAX_LIBRARY_TOTAL_ENTRIES,
            )),
            stores: StoreRegistry::new(config.store_dir.clone(), config.rejoin_grace, MAX_STORES),
            shutdown: AtomicBool::new(false),
            config,
        });
        Ok(Self { listener, shared })
    }

    /// The bound address (resolves an ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until the shutdown flag is set, then drains: waits for
    /// every connection thread to exit (dropping their job senders),
    /// ends every rejoin grace, and joins every job pipeline. Blocking —
    /// see [`Server::spawn`] for the backgrounded variant.
    pub fn serve(self) -> std::io::Result<()> {
        let (stop_sweeper, stopped) = mpsc::channel::<()>();
        let shared = Arc::clone(&self.shared);
        let sweeper = std::thread::Builder::new()
            .name("spechd-sweep".into())
            .spawn(move || sweep_until(&shared, &stopped))?;
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let shared = Arc::clone(&self.shared);
            connections.retain(|c| !c.is_finished());
            connections.push(
                std::thread::Builder::new()
                    .name("spechd-conn".into())
                    .spawn(move || handle_connection(stream, &shared))
                    // Fails only when the OS refuses a thread; a server
                    // that cannot start one cannot serve this client.
                    .expect("spawn connection thread"),
            );
        }
        for conn in connections {
            let _ = conn.join();
        }
        drop(stop_sweeper);
        let _ = sweeper.join();
        self.shared.jobs.join_pipelines();
        Ok(())
    }

    /// Serves on a background thread; the returned handle shuts the
    /// server down (and drains it) when asked or dropped.
    pub fn spawn(self) -> std::io::Result<RunningServer> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::Builder::new()
            .name("spechd-accept".into())
            .spawn(move || self.serve())?;
        Ok(RunningServer {
            addr,
            shared,
            thread: Some(thread),
        })
    }
}

/// A server running on a background thread.
pub struct RunningServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl RunningServer {
    /// The address the server is accepting on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown, wakes the accept loop, and waits for the
    /// server to drain (connections closed, job pipelines joined).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        let _ = thread.join();
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The server's one timer: every poll interval it expires what a rejoin
/// grace kept. From the shutdown flag on, every grace has run out, since
/// nobody can rejoin a stopping server: that closes the slots of the
/// connections already gone, so their jobs finish and the connections
/// drain. Once `stop` hangs up (every connection is gone) it sweeps a
/// last time and returns.
fn sweep_until(shared: &Shared, stop: &mpsc::Receiver<()>) {
    loop {
        let stopped =
            stop.recv_timeout(shared.config.poll_interval) != Err(mpsc::RecvTimeoutError::Timeout);
        let grace = match stopped || shared.shutdown.load(Ordering::Acquire) {
            true => Duration::ZERO,
            false => shared.config.rejoin_grace,
        };
        shared.jobs.sweep(grace);
        shared.searches.sweep(grace);
        if stopped {
            return;
        }
    }
}

/// What the polling frame reader produced.
enum ReadEvent {
    Frame(Frame),
    /// Clean close, idle kill, shutdown, or an I/O failure — in every
    /// case the connection is done; a `Some` carries the parting error.
    Hangup(Option<(ErrorCode, String)>),
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    // A peer that stops accepting bytes fails a write at the frame
    // deadline instead of wedging the connection forever.
    let _ = stream.set_write_timeout(Some(FRAME_DEADLINE));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = FrameReader {
        stream: BufReader::with_capacity(SOCKET_BUFFER, &stream),
        shared,
        last_activity: Instant::now(),
    };
    let out = Outbound {
        direct: BufWriter::with_capacity(SOCKET_BUFFER, write_half),
        queue: None,
    };
    serve_requests(|engaged| reader.next_frame(engaged), shared, out);
}

/// Answers one connection's requests until it hangs up. Each reply goes
/// out through `out` before `next_frame` reads the next request.
fn serve_requests<S: Socket>(
    mut next_frame: impl FnMut(bool) -> ReadEvent,
    shared: &Shared,
    mut out: Outbound<S>,
) {
    let mut held = Held::default();
    loop {
        // Idle exemption stays clustering-only: search and store
        // sessions never push unsolicited frames, so a connection
        // merely *holding* one open is idle if it stops sending — the
        // timeout reclaims it (and the handle's drop leaves the job /
        // detaches the store session into its rejoin grace).
        let engaged = held.job.as_ref().is_some_and(JobHandle::is_active);
        // The one place a frame's outcome becomes what goes back.
        let reply = match next_frame(engaged) {
            ReadEvent::Frame(frame) => match dispatch(frame, &mut held, shared, &mut out) {
                Ok(Some(reply)) => reply,
                Ok(None) => continue,
                Err(JobError { code, message }) => Frame::Error { code, message },
            },
            ReadEvent::Hangup(parting) => {
                if let Some((code, message)) = parting {
                    out.send(Frame::Error { code, message }, true);
                }
                break;
            }
        };
        out.send(reply, true);
    }
    // Dropping the handles ends this connection's job participations;
    // if it was a job's last participant the clustering stream ends
    // (pipeline finalizes) / the search job is removed / the store
    // session detaches into its rejoin grace. Dropping the queue's
    // sender lets the writer, if any, exit once the job's subscription
    // is gone too.
    drop(held);
    if let Some((out_tx, writer)) = out.queue {
        drop(out_tx);
        let _ = writer.join();
    }
}

/// The write half of a connection: the socket its thread writes its own
/// replies to, and a job's writer thread a second handle on.
trait Socket: Write + Send + Sized + 'static {
    /// A second handle on the same connection.
    fn try_clone(&self) -> std::io::Result<Self>;
    /// Ends the connection both ways, so its reader sees the hang-up.
    fn shutdown(&self);
}

impl Socket for TcpStream {
    fn try_clone(&self) -> std::io::Result<Self> {
        TcpStream::try_clone(self)
    }

    fn shutdown(&self) {
        let _ = TcpStream::shutdown(self, Shutdown::Both);
    }
}

/// Where one connection's frames go: into its write buffer, or, once it
/// has opened a job, through the bounded queue to its writer thread.
struct Outbound<S: Socket> {
    direct: BufWriter<S>,
    queue: Option<(mpsc::SyncSender<Frame>, JoinHandle<()>)>,
}

impl<S: Socket> Outbound<S> {
    /// Sends one frame, flushing a direct write once `ends_reply`. A
    /// write that fails shuts the socket down, on this thread as on the
    /// writer, so later writes fail at once and the next read hangs up.
    fn send(&mut self, frame: Frame, ends_reply: bool) {
        if let Some((out_tx, _)) = &self.queue {
            let _ = out_tx.send(frame);
            return;
        }
        let mut sent = write_frame(&mut self.direct, &frame);
        if ends_reply && sent.is_ok() {
            sent = self.direct.flush();
        }
        if sent.is_err() {
            self.direct.get_ref().shutdown();
        }
    }

    /// The queue a job subscribes to, started with its writer on first
    /// use. A writer that cannot start is the retryable
    /// [`ErrorCode::Busy`], and the connection goes on writing its own
    /// replies.
    fn queue(&mut self) -> Result<mpsc::SyncSender<Frame>, JobError> {
        if let Some((out_tx, _)) = &self.queue {
            return Ok(out_tx.clone());
        }
        let (out_tx, out_rx) = mpsc::sync_channel(OUTBOUND_QUEUE_DEPTH);
        let writer = self.direct.get_ref().try_clone().and_then(|socket| {
            std::thread::Builder::new()
                .name("spechd-conn-writer".into())
                .spawn(move || writer_loop(socket, out_rx))
        });
        let busy = |e| JobError::new(ErrorCode::Busy, format!("no writer thread: {e}"));
        self.queue = Some((out_tx.clone(), writer.map_err(busy)?));
        Ok(out_tx)
    }
}

/// Reads frames off a socket with a poll loop for the first byte (so
/// shutdown and idle deadlines are honored between frames) and a
/// deadline for the rest of each frame.
struct FrameReader<'a> {
    stream: BufReader<&'a TcpStream>,
    shared: &'a Shared,
    last_activity: Instant,
}

impl FrameReader<'_> {
    fn next_frame(&mut self, engaged: bool) -> ReadEvent {
        let config = &self.shared.config;
        // Phase 1: poll for the frame's first byte.
        let mut first = [0u8];
        let socket = *self.stream.get_ref();
        if socket.set_read_timeout(Some(config.poll_interval)).is_err() {
            return ReadEvent::Hangup(None);
        }
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                return ReadEvent::Hangup(Some((
                    ErrorCode::ServerShutdown,
                    "server shutting down".into(),
                )));
            }
            match self.stream.read(&mut first) {
                Ok(0) => return ReadEvent::Hangup(None),
                Ok(_) => break,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if !engaged && self.last_activity.elapsed() >= config.idle_timeout {
                        return ReadEvent::Hangup(Some((
                            ErrorCode::IdleTimeout,
                            "connection idle with no open job".into(),
                        )));
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadEvent::Hangup(None),
            }
        }
        // Phase 2: the frame has started — finish it under a deadline.
        if socket.set_read_timeout(Some(FRAME_DEADLINE)).is_err() {
            return ReadEvent::Hangup(None);
        }
        match finish_frame(&mut self.stream, first[0], &config.limits) {
            Ok(frame) => {
                self.last_activity = Instant::now();
                ReadEvent::Frame(frame)
            }
            Err(WireError::Closed | WireError::Io(_)) => ReadEvent::Hangup(None),
            Err(e) => ReadEvent::Hangup(Some((e.error_code(), e.to_string()))),
        }
    }
}

/// The sessions one connection holds: at most one of each kind at a
/// time.
#[derive(Default)]
struct Held {
    job: Option<JobHandle>,
    search: Option<SearchHandle>,
    store: Option<StoreSessionHandle>,
}

impl Held {
    /// The held clustering-job handle, if it is for `job_id`.
    fn job(&mut self, job_id: u64) -> Result<&mut JobHandle, JobError> {
        match &mut self.job {
            Some(h) if h.job_id() == job_id => Ok(h),
            _ => Err(JobError::state(format!(
                "job {job_id} is not open on this connection"
            ))),
        }
    }

    /// The held store session, if it is on store `name`.
    fn store(&self, name: &str) -> Result<&StoreSessionHandle, JobError> {
        match &self.store {
            Some(h) if h.name() == name => Ok(h),
            _ => Err(JobError::state(format!(
                "store {name} is not open on this connection"
            ))),
        }
    }

    /// The search handle for a frame naming `(job_id, dim)`: reuses the
    /// held handle when it matches, opens or joins the job when none is
    /// held, and rejects a mismatch — one connection drives at most one
    /// search job at a time (the search session ends with the
    /// connection; there is no search `CloseJob`).
    fn search(
        &mut self,
        registry: &Arc<SearchRegistry>,
        job_id: u64,
        dim: u32,
    ) -> Result<&SearchHandle, JobError> {
        let held = self.search.take();
        let handle = self
            .search
            .insert(held.map_or_else(|| registry.open_or_join(job_id, dim), Ok)?);
        if handle.job_id() != job_id {
            return Err(JobError::state(format!(
                "connection is in search job {}, not {job_id}",
                handle.job_id()
            )));
        }
        if handle.dim() != dim {
            return Err(JobError::new(
                ErrorCode::ConfigMismatch,
                format!("search job {job_id} has dim {}, not {dim}", handle.dim()),
            ));
        }
        Ok(handle)
    }
}

/// Applies one client frame to the connection's sessions: `Ok(Some)` is
/// the frame's direct ack, `Ok(None)` means it has none (`CloseJob`),
/// `Err` becomes a [`Frame::Error`] and the connection stays up.
fn dispatch<S: Socket>(
    frame: Frame,
    held: &mut Held,
    shared: &Shared,
    out: &mut Outbound<S>,
) -> Result<Option<Frame>, JobError> {
    Ok(Some(match frame {
        Frame::OpenJob {
            job_id,
            client_id,
            config,
        } => {
            // A settled handle (closed, job finished) no longer
            // occupies the connection: vacate it so jobs can run
            // sequentially on one socket.
            if held.job.as_ref().is_some_and(JobHandle::is_settled) {
                held.job = None;
            }
            if held.job.is_some() {
                return Err(JobError::state("connection already has an open job"));
            }
            let out_tx = out.queue()?;
            let handle = shared
                .jobs
                .open_or_join(job_id, client_id, config, out_tx)?;
            Frame::JobStats(held.job.insert(handle).stats())
        }
        Frame::Submit {
            job_id,
            seq,
            spectra,
        } => {
            let (base, count) = held.job(job_id)?.submit(seq, spectra)?;
            Frame::SubmitAck {
                job_id,
                seq,
                base,
                count,
            }
        }
        Frame::Flush { job_id } => Frame::JobStats(held.job(job_id)?.stats()),
        Frame::CloseJob { job_id } => {
            held.job(job_id)?.close();
            return Ok(None);
        }
        Frame::LoadLibrary {
            job_id,
            dim,
            entries,
        } => Frame::SearchStats(held.search(&shared.searches, job_id, dim)?.load(entries)?),
        Frame::SearchQuery {
            job_id,
            dim,
            window_da,
            top_k,
            queries,
        } => {
            // Hit frames go where every other frame of the connection
            // goes. Into the write buffer, to leave with the closing
            // stats; or, once a job is open, into the bounded queue,
            // where a full queue blocks this thread, so a client that
            // stops draining its results stops being served.
            let search = held.search(&shared.searches, job_id, dim)?;
            Frame::SearchStats(search.query(window_da, top_k, queries, |hit| out.send(hit, false)))
        }
        Frame::OpenStore {
            name,
            client_id,
            config,
        } => {
            let ack = match &held.store {
                // Idempotent re-open of the held session (same store,
                // same participant) is a stats snapshot; anything else
                // would need a second session on one connection.
                Some(h) if h.name() == name && h.client_id() == client_id => h.stats()?,
                Some(_) => {
                    return Err(JobError::state(
                        "connection already has an open store session",
                    ))
                }
                None => {
                    let handle = shared.stores.open(&name, client_id, &config)?;
                    let ack = handle.stats()?;
                    held.store = Some(handle);
                    ack
                }
            };
            Frame::StoreAck(ack)
        }
        Frame::SubmitIncremental { name, seq, spectra } => {
            Frame::IncrementalAck(held.store(&name)?.submit_incremental(seq, spectra)?)
        }
        Frame::PersistStore { name } => Frame::StoreAck(held.store(&name)?.persist()?),
        Frame::StoreStats { name } => Frame::StoreAck(held.store(&name)?.stats()?),
        Frame::RefreshStore { name } => Frame::StoreAck(held.store(&name)?.refresh()?),
        Frame::SubmitAck { .. }
        | Frame::Assignment { .. }
        | Frame::Consensus { .. }
        | Frame::JobStats(_)
        | Frame::SearchHit { .. }
        | Frame::SearchStats(_)
        | Frame::IncrementalAck(_)
        | Frame::StoreAck(_)
        | Frame::Error { .. } => {
            return Err(JobError::state("server-to-client frame sent by client"))
        }
    }))
}

/// Drains the connection's outbound queue onto the socket, flushing at
/// reply boundaries (see [`drain`]). Exits when every sender is gone
/// (reader exited and job subscription pruned) or on a write failure,
/// and shuts the socket down so the reader notices too.
fn writer_loop(socket: impl Socket, out_rx: mpsc::Receiver<Frame>) {
    let mut w = BufWriter::new(socket);
    let _ = drain(&mut w, &out_rx);
    w.get_ref().shutdown();
}

/// Writes queued frames to `w` until every sender is gone or a write
/// fails, flushing only at the end of a reply. A `SearchHit` never ends
/// a write batch: the protocol always follows a batch's hits with its
/// `SearchStats`, so after a hit the writer blocks for the next frame,
/// and a search reply leaves in one flush however the reader's sends
/// interleave with the writer. After any other frame it flushes once
/// the queue is empty.
fn drain(w: &mut impl Write, out_rx: &mpsc::Receiver<Frame>) -> std::io::Result<()> {
    let mut next = out_rx.recv().ok();
    while let Some(frame) = next {
        write_frame(w, &frame)?;
        next = match frame {
            Frame::SearchHit { .. } => out_rx.recv().ok(),
            _ => out_rx.try_recv().ok(),
        };
        if next.is_none() {
            w.flush()?;
            next = out_rx.recv().ok();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::JobClient;
    use crate::protocol::{
        parse_header, FrameType, JobConfig, LibraryEntryWire, QueryWire, SearchStatsFrame,
        HEADER_LEN,
    };
    use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};

    /// A participant that submits and vanishes without `CloseJob` keeps
    /// its slot for the grace, but a stopping server ends that grace:
    /// `shutdown` does not wait it out.
    #[test]
    fn a_detached_participant_does_not_hold_up_shutdown() {
        let config = ServerConfig {
            rejoin_grace: Duration::from_secs(20),
            ..ServerConfig::default()
        };
        let running = Server::bind("127.0.0.1:0", config)
            .and_then(Server::spawn)
            .expect("bind and spawn");
        let spectra = SyntheticGenerator::new(SyntheticConfig {
            num_spectra: 40,
            num_peptides: 8,
            seed: 3,
            ..SyntheticConfig::default()
        })
        .generate()
        .spectra()
        .to_vec();
        let mut client =
            JobClient::connect(running.addr(), 1, JobConfig::default()).expect("open job");
        client.submit(spectra).expect("submit");
        drop(client);
        let started = Instant::now();
        running.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(5), "shutdown took {took:?}");
    }

    #[derive(Debug, PartialEq)]
    enum Event {
        /// One `write` call, and the frames it carried.
        Wrote(Vec<FrameType>),
        Flushed,
        /// The connection asked for its next request.
        Read,
    }

    /// A writer that reports every write, with the frames in it, and
    /// every flush. Each write holds whole frames: `write_frame` hands
    /// over one frame per call, and a `BufWriter` whole buffered ones.
    struct Recorder(mpsc::Sender<Event>);

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let mut frames = Vec::new();
            let mut rest = buf;
            while !rest.is_empty() {
                let header: &[u8; HEADER_LEN] = rest[..HEADER_LEN].try_into().expect("a frame");
                let (frame_type, len) = parse_header(header, u32::MAX).expect("a frame header");
                frames.push(frame_type);
                rest = &rest[HEADER_LEN + len as usize..];
            }
            let _ = self.0.send(Event::Wrote(frames));
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            let _ = self.0.send(Event::Flushed);
            Ok(())
        }
    }

    /// A socket no writer thread can get a second handle on.
    impl Socket for Recorder {
        fn try_clone(&self) -> std::io::Result<Self> {
            Err(std::io::Error::other("a recorder has one handle"))
        }

        fn shutdown(&self) {}
    }

    /// A connection's outbound side, writing to a recorder.
    fn recorded(events: mpsc::Sender<Event>) -> Outbound<Recorder> {
        Outbound {
            direct: BufWriter::with_capacity(SOCKET_BUFFER, Recorder(events)),
            queue: None,
        }
    }

    /// Serves `requests` on one connection that writes to a recorder and
    /// then hangs up: what the connection read and wrote, in order.
    fn converse(requests: Vec<Frame>) -> Vec<Event> {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let (events_tx, events) = mpsc::channel();
        let reads = events_tx.clone();
        let mut requests = requests.into_iter();
        let next_frame = |_engaged| {
            let _ = reads.send(Event::Read);
            requests
                .next()
                .map_or(ReadEvent::Hangup(None), ReadEvent::Frame)
        };
        serve_requests(next_frame, &server.shared, recorded(events_tx));
        events.try_iter().collect()
    }

    fn load_library() -> Frame {
        Frame::LoadLibrary {
            job_id: 1,
            dim: 64,
            entries: (0..8u32)
                .map(|i| LibraryEntryWire {
                    mass: 500.0 + f64::from(i) * 0.01,
                    charge: 2,
                    is_decoy: i % 2 == 1,
                    id: format!("e{i}"),
                    words: vec![u64::from(i) * 0x0101_0101],
                })
                .collect(),
        }
    }

    #[test]
    fn a_direct_search_reply_leaves_in_one_write_and_one_flush() {
        let query = Frame::SearchQuery {
            job_id: 1,
            dim: 64,
            window_da: 0.05,
            top_k: 3,
            queries: (0..64u32)
                .map(|q| QueryWire {
                    mass: 500.0 + f64::from(q % 8) * 0.01,
                    words: vec![u64::from(q)],
                })
                .collect(),
        };
        let mut reply = vec![FrameType::SearchHit; 64];
        reply.push(FrameType::SearchStats);
        assert_eq!(
            converse(vec![load_library(), query]),
            [
                Event::Read,
                Event::Wrote(vec![FrameType::SearchStats]),
                Event::Flushed,
                Event::Read,
                Event::Wrote(reply),
                Event::Flushed,
                Event::Read,
            ]
        );
    }

    #[test]
    fn an_ack_is_flushed_before_the_next_request_is_read() {
        let name = "acks".to_string();
        let requests = vec![
            Frame::OpenStore {
                name: name.clone(),
                client_id: 1,
                config: JobConfig::default(),
            },
            Frame::StoreStats { name },
            // Well-formed but wrong for the connection's state: an error
            // is an ack too.
            Frame::Flush { job_id: 9 },
        ];
        let acked = |frame_type| [Event::Wrote(vec![frame_type]), Event::Flushed];
        let mut expected = vec![Event::Read];
        for frame_type in [FrameType::StoreAck, FrameType::StoreAck, FrameType::Error] {
            expected.extend(acked(frame_type));
            expected.push(Event::Read);
        }
        assert_eq!(converse(requests), expected);
    }

    /// A writer thread that cannot start turns `OpenJob` away with the
    /// retryable `Busy`, and the connection goes on answering directly.
    #[test]
    fn open_job_without_a_writer_is_busy_and_replies_stay_direct() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let shared = &server.shared;
        let (events_tx, events) = mpsc::channel();
        let mut out = recorded(events_tx);
        let mut held = Held::default();
        let open = Frame::OpenJob {
            job_id: 1,
            client_id: 1,
            config: JobConfig::default(),
        };
        let refused = dispatch(open, &mut held, shared, &mut out).expect_err("no writer");
        assert_eq!(refused.code, ErrorCode::Busy);
        assert!(refused.code.is_retryable());
        assert!(held.job.is_none() && out.queue.is_none());
        let ack = dispatch(load_library(), &mut held, shared, &mut out)
            .expect("load")
            .expect("an ack");
        out.send(ack, true);
        assert_eq!(
            events.try_iter().collect::<Vec<_>>(),
            [Event::Wrote(vec![FrameType::SearchStats]), Event::Flushed]
        );
    }

    /// `drain` on its own thread over a queue holding `queued`: the
    /// queue's sender, the writer's events, and the thread.
    fn spawn_drain(
        queued: Vec<Frame>,
    ) -> (
        mpsc::SyncSender<Frame>,
        mpsc::Receiver<Event>,
        JoinHandle<()>,
    ) {
        let (out_tx, out_rx) = mpsc::sync_channel(16);
        for frame in queued {
            out_tx.send(frame).expect("queue open");
        }
        let (events_tx, events) = mpsc::channel();
        let writer = std::thread::spawn(move || {
            drain(&mut Recorder(events_tx), &out_rx).expect("the recorder never fails");
        });
        (out_tx, events, writer)
    }

    /// The writer's next event; a writer that waits where it should
    /// report fails the test instead of hanging it.
    fn next(events: &mpsc::Receiver<Event>) -> Event {
        events
            .recv_timeout(Duration::from_secs(10))
            .expect("the writer reports")
    }

    fn hit(query_index: u64) -> Frame {
        Frame::SearchHit {
            job_id: 1,
            query_index,
            hits: Vec::new(),
        }
    }

    #[test]
    fn a_search_reply_leaves_in_one_flush() {
        let (out_tx, events, writer) = spawn_drain(Vec::new());
        for first in [0, 8] {
            // Each hit is queued only once the one before is written, so
            // the queue is empty behind every hit, and still no flush.
            for query_index in first..first + 8 {
                out_tx.send(hit(query_index)).expect("writer up");
                assert_eq!(next(&events), Event::Wrote(vec![FrameType::SearchHit]));
            }
            let stats = Frame::SearchStats(SearchStatsFrame::default());
            out_tx.send(stats).expect("writer up");
            assert_eq!(next(&events), Event::Wrote(vec![FrameType::SearchStats]));
            assert_eq!(next(&events), Event::Flushed);
        }
        drop(out_tx);
        writer.join().expect("writer exits");
        assert_eq!(events.iter().collect::<Vec<_>>(), []);
    }

    #[test]
    fn fan_out_frames_flush_when_the_queue_runs_empty() {
        let assignment = || Frame::Assignment {
            job_id: 1,
            key: 0,
            raw_base: 0,
            members: vec![0],
            labels: vec![0],
        };
        let consensus = Frame::Consensus {
            job_id: 1,
            raw_base: 0,
            medoids: vec![0],
        };
        // Frames queued together go out in one flush …
        let (out_tx, events, writer) = spawn_drain(vec![assignment(), consensus]);
        assert_eq!(next(&events), Event::Wrote(vec![FrameType::Assignment]));
        assert_eq!(next(&events), Event::Wrote(vec![FrameType::Consensus]));
        assert_eq!(next(&events), Event::Flushed);
        // … and a lone one is flushed without waiting for another.
        out_tx.send(assignment()).expect("writer up");
        assert_eq!(next(&events), Event::Wrote(vec![FrameType::Assignment]));
        assert_eq!(next(&events), Event::Flushed);
        drop(out_tx);
        writer.join().expect("writer exits");
    }

    #[test]
    fn a_queue_dropped_mid_reply_ends_the_writer() {
        let (out_tx, events, writer) = spawn_drain(vec![hit(0), hit(1)]);
        assert_eq!(next(&events), Event::Wrote(vec![FrameType::SearchHit]));
        assert_eq!(next(&events), Event::Wrote(vec![FrameType::SearchHit]));
        drop(out_tx);
        writer.join().expect("writer exits");
        assert_eq!(events.iter().collect::<Vec<_>>(), [Event::Flushed]);
    }
}
