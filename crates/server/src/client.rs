//! A blocking client for the `spechd` protocol.
//!
//! [`Connection`] is the shared transport: it owns the TCP socket pair
//! (buffered writer + cloned reader), the frame codec under the shared
//! [`Limits`] table, and the error-frame-to-[`ClientError`] translation
//! every client needs. The three job-flavored clients are thin state
//! machines over it, sharing one connect-with-[`RetryPolicy`] entry
//! point and one error surface:
//!
//! * [`JobClient`] wraps one connection participating in one clustering
//!   job. Submission is acknowledged per batch (the ack carries the
//!   batch's base stream index, so a participant knows exactly which
//!   stream slots its spectra occupy); result frames arriving in between
//!   are absorbed into an [`AssignmentAssembler`], and
//!   [`JobClient::close_and_wait`] turns them into a [`ServiceOutcome`]
//!   once the job's final frame lands.
//! * [`SearchClient`] is the search-job counterpart: library batches are
//!   acknowledged per `LoadLibrary` frame, and each
//!   [`SearchClient::search`] call sends the queries (chunked under the
//!   wire cap), collects the per-query [`Frame::SearchHit`]s, and returns
//!   once the batch's closing [`Frame::SearchStats`] lands.
//! * [`StoreClient`] holds the exclusive write session on a named
//!   server-side cluster store: sequence-numbered incremental
//!   installments ([`StoreClient::submit_incremental`]), plus the
//!   `persist` / `stats` / `refresh` admin round trips, each
//!   acknowledged by a [`StoreAckFrame`] snapshot.
//!
//! ## Failure handling
//!
//! Every failure a client can see is classified by
//! [`ClientError::is_retryable`]: connection-level faults (the socket
//! died, the peer hung up) and server frames in the retryable code range
//! ([`ErrorCode::is_retryable`], e.g. [`ErrorCode::Busy`] load shedding)
//! may be retried; protocol violations and fatal server errors must not
//! be. Both clients accept a [`RetryPolicy`] — deterministic bounded
//! exponential backoff — and, when one is set, transparently reconnect
//! and resume:
//!
//! * A [`JobClient`] identifies itself to the server with a `client_id`
//!   that outlives its TCP connection and sequence-numbers its submits,
//!   so a reconnect re-opens the same job slot, re-sends only the
//!   unacknowledged batch (a duplicate is recognized server-side and
//!   re-acked, never re-ingested), and absorbs the server's replay of
//!   any result frames that were in flight when the connection died —
//!   the assembled [`ServiceOutcome`] is bit-identical to an undisturbed
//!   run.
//! * A [`SearchClient`] retries its connect handshake and its query
//!   batches (scoring is read-only, hence idempotent); library loads are
//!   **not** retried, because a load whose ack was lost may or may not
//!   have been applied and re-sending it could double-load entries.
//! * A [`StoreClient`] reconnects by re-sending `OpenStore` with the
//!   same `client_id` — resuming its exclusive session — and re-sends
//!   the unacknowledged installment under its original sequence number,
//!   which the server re-acks without re-ingesting. The admin round
//!   trips are idempotent and freely retried.

use crate::assemble::{AssignmentAssembler, ServiceOutcome};
use crate::limits::Limits;
use crate::protocol::{
    check_store_name, read_frame, write_frame, ErrorCode, Frame, HitWire, IncrementalAckFrame,
    JobConfig, JobStatsFrame, LibraryEntryWire, QueryWire, SearchStatsFrame, StoreAckFrame,
    WireError, MAX_INCREMENTAL_BATCH, MAX_LIBRARY_BATCH, MAX_QUERY_BATCH,
};
use spechd_ms::Spectrum;
use std::io::BufWriter;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The transport or frame layer failed.
    Wire(WireError),
    /// The server reported an error frame.
    Server {
        /// Wire error code.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
}

impl ClientError {
    /// Whether retrying the failed operation can possibly succeed.
    ///
    /// Transport faults (`Wire(Io)` / `Wire(Closed)` / `Wire(Truncated)`
    /// — a connection killed mid-frame surfaces as a truncated read) are
    /// retryable: the connection died, but a reconnect may find the
    /// server healthy. Server error frames defer to the wire contract:
    /// [`ErrorCode::is_retryable`] (transient conditions such as
    /// [`ErrorCode::Busy`] load shedding). Everything else — malformed
    /// frames, protocol violations, config mismatches — is a bug or a
    /// genuine rejection, and retrying would only repeat it.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Wire(WireError::Io(_) | WireError::Closed | WireError::Truncated(_)) => {
                true
            }
            ClientError::Wire(_) => false,
            ClientError::Server { code, .. } => code.is_retryable(),
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

/// Deterministic bounded-exponential-backoff retry schedule.
///
/// Attempt *n* (1-based) sleeps `base_delay × 2ⁿ⁻¹`, capped at
/// `max_delay`, before retrying; after `max_retries` failed retries the
/// last error is returned. The schedule is a pure function of the
/// attempt number — no jitter, no clocks — so tests exercising retry
/// paths are exactly reproducible. [`RetryPolicy::none`] (zero retries)
/// disables retrying entirely; it is the default for
/// [`JobClient::connect`] / [`SearchClient::connect`], which preserve
/// fail-fast semantics unless a policy is opted into via the
/// `connect_with` constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How many times a failed operation is retried (0 = never).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
}

impl RetryPolicy {
    /// No retries: every failure is returned immediately.
    pub const fn none() -> Self {
        Self {
            max_retries: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// Whether this policy retries at all.
    pub fn enabled(&self) -> bool {
        self.max_retries > 0
    }

    /// The backoff before retry `attempt` (1-based):
    /// `base_delay × 2^(attempt-1)`, capped at `max_delay`.
    fn delay_for(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        self.base_delay
            .saturating_mul(1u32 << exp)
            .min(self.max_delay)
    }

    /// One step of the shared retry loop every client runs: if `err` is
    /// retryable and the attempt budget is not exhausted, consumes one
    /// attempt, sleeps its backoff, and returns `true` (caller retries);
    /// otherwise returns `false` (caller surfaces the error).
    pub fn backoff(&self, err: &ClientError, attempt: &mut u32) -> bool {
        if err.is_retryable() && *attempt < self.max_retries {
            *attempt += 1;
            std::thread::sleep(self.delay_for(*attempt));
            true
        } else {
            false
        }
    }
}

impl Default for RetryPolicy {
    /// Six retries starting at 25 ms, capped at 800 ms — under two
    /// seconds of total backoff, enough to ride out a server restart or
    /// a transient [`ErrorCode::Busy`] without hiding a real outage.
    fn default() -> Self {
        Self {
            max_retries: 6,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_millis(800),
        }
    }
}

/// A process-unique-ish participant id for clients that did not choose
/// one: a hash of wall clock, pid, and a process-global counter. Two
/// *concurrent* participants of one job must not share a `client_id`
/// (the server binds a job slot to it); explicit ids belong to callers
/// that want deterministic resume identities across process restarts.
fn default_client_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let pid = u64::from(std::process::id());
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [nanos, pid, n] {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn resolve(addr: impl ToSocketAddrs) -> Result<Vec<SocketAddr>, ClientError> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    if addrs.is_empty() {
        return Err(ClientError::Wire(WireError::Io(std::io::Error::other(
            "address resolved to no socket addresses",
        ))));
    }
    Ok(addrs)
}

/// The one connect loop every client goes through: open a
/// [`Connection`], run the client-specific `handshake` on it, and on a
/// retryable failure back off under `retry` and start over with a fresh
/// connection.
fn connect_retry<T>(
    addrs: &[SocketAddr],
    retry: RetryPolicy,
    mut handshake: impl FnMut(Connection) -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let mut attempt = 0u32;
    loop {
        match Connection::open(addrs).and_then(&mut handshake) {
            Ok(client) => return Ok(client),
            Err(e) if retry.backoff(&e, &mut attempt) => {}
            Err(e) => return Err(e),
        }
    }
}

/// One established client connection: socket pair, frame codec, and the
/// server-error translation shared by every protocol client.
///
/// [`JobClient`] and [`SearchClient`] each wrap one of these with their
/// job-flavored handshake and state machine; custom tooling (load
/// generators, protocol probes) can drive a raw `Connection` directly.
pub struct Connection {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    limits: Limits,
}

impl Connection {
    /// Opens a TCP connection to `addr` (Nagle disabled, inbound frames
    /// decoded under [`Limits::default`]). No protocol traffic is
    /// exchanged — job handshakes belong to the clients layered on top.
    pub fn open(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = stream.try_clone()?;
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
            limits: Limits::default(),
        })
    }

    /// Writes one frame and flushes it to the wire.
    pub fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        use std::io::Write;
        write_frame(&mut self.writer, frame)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads one frame, turning server `Error` frames into
    /// [`ClientError::Server`].
    pub fn recv(&mut self) -> Result<Frame, ClientError> {
        match read_frame(&mut self.reader, &self.limits)? {
            Frame::Error { code, message } => Err(ClientError::Server { code, message }),
            frame => Ok(frame),
        }
    }
}

/// Acknowledgement of one submitted batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitReceipt {
    /// First stream index assigned to the batch; its spectra occupy
    /// `[base, base + count)` in submission order.
    pub base: u64,
    /// Number of spectra acknowledged.
    pub count: u32,
}

/// One connection participating in one clustering job.
///
/// The client is identified to the server by its `client_id`, not its
/// TCP connection: with a [`RetryPolicy`] set (see
/// [`JobClient::connect_with`]) a dead connection is transparently
/// re-opened, the job re-joined, the in-flight batch re-sent (the
/// sequence number makes the server treat a duplicate as a re-ack, not
/// a re-ingest), and replayed result frames absorbed idempotently — so
/// the final [`ServiceOutcome`] is bit-identical to an undisturbed run.
pub struct JobClient {
    conn: Connection,
    addrs: Vec<SocketAddr>,
    job_id: u64,
    client_id: u64,
    config: JobConfig,
    retry: RetryPolicy,
    next_seq: u64,
    close_sent: bool,
    reconnects: u64,
    assembler: AssignmentAssembler,
}

impl JobClient {
    /// Connects to `addr` and opens (or joins) `job_id` with `config`,
    /// returning once the server acknowledges. No retries: any failure
    /// — including a retryable one — is returned immediately. Use
    /// [`JobClient::connect_with`] for resilience.
    pub fn connect(
        addr: impl ToSocketAddrs,
        job_id: u64,
        config: JobConfig,
    ) -> Result<Self, ClientError> {
        Self::connect_with(
            addr,
            job_id,
            config,
            default_client_id(),
            RetryPolicy::none(),
        )
    }

    /// Connects with an explicit participant identity and retry policy.
    ///
    /// `client_id` names this participant's slot in the job across
    /// connections — a reconnect presenting the same id resumes where
    /// the old connection left off. Concurrent participants of one job
    /// must use distinct ids. The connect itself honors `retry` (a
    /// server shedding load with [`ErrorCode::Busy`] is retried after
    /// backoff), as do all subsequent operations on the client.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        job_id: u64,
        config: JobConfig,
        client_id: u64,
        retry: RetryPolicy,
    ) -> Result<Self, ClientError> {
        let addrs = resolve(addr)?;
        connect_retry(&addrs, retry, |conn| {
            let mut client = Self {
                conn,
                addrs: addrs.clone(),
                job_id,
                client_id,
                config: config.clone(),
                retry,
                next_seq: 0,
                close_sent: false,
                reconnects: 0,
                assembler: AssignmentAssembler::new(),
            };
            client.conn.send(&Frame::OpenJob {
                job_id,
                client_id,
                config: config.clone(),
            })?;
            client.wait_stats()?;
            Ok(client)
        })
    }

    /// The job this connection participates in.
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// The participant identity this client presents to the server.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// How many times this client has reconnected and resumed.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Submits a batch and blocks until its acknowledgement, returning
    /// the batch's stream-index range. Result frames that arrive before
    /// the ack are absorbed, not lost. With a retry policy set, a
    /// connection failure reconnects and re-sends the batch under the
    /// same sequence number — if the original made it through and only
    /// the ack was lost, the server re-acks without re-ingesting, so
    /// retries never duplicate spectra in the stream.
    pub fn submit(&mut self, spectra: Vec<Spectrum>) -> Result<SubmitReceipt, ClientError> {
        let seq = self.next_seq;
        if !self.retry.enabled() {
            self.conn.send(&Frame::Submit {
                job_id: self.job_id,
                seq,
                spectra,
            })?;
            let receipt = self.await_submit_ack(seq)?;
            self.next_seq += 1;
            return Ok(receipt);
        }
        let mut attempt = 0u32;
        loop {
            let outcome = self
                .conn
                .send(&Frame::Submit {
                    job_id: self.job_id,
                    seq,
                    spectra: spectra.clone(),
                })
                .and_then(|()| self.await_submit_ack(seq));
            match outcome {
                Ok(receipt) => {
                    self.next_seq += 1;
                    return Ok(receipt);
                }
                Err(e) if self.retry.backoff(&e, &mut attempt) => {
                    // If recovery fails, the stale connection makes the
                    // next attempt fail fast and consume another retry.
                    let _ = self.recover();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Barrier: returns a statistics snapshot taken after the server
    /// has ingested every frame this connection sent before the flush.
    /// Idempotent, so freely retried under the policy.
    pub fn flush(&mut self) -> Result<JobStatsFrame, ClientError> {
        let mut attempt = 0u32;
        loop {
            let outcome = self
                .conn
                .send(&Frame::Flush {
                    job_id: self.job_id,
                })
                .and_then(|()| self.wait_stats());
            match outcome {
                Ok(stats) => return Ok(stats),
                Err(e) if self.retry.backoff(&e, &mut attempt) => {
                    let _ = self.recover();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Declares this participant done submitting and waits for the
    /// job's results: blocks until the final `done` frame, then
    /// reassembles the global clustering. The job finalizes once
    /// **every** participant has closed. With a retry policy set, a
    /// connection lost while waiting reconnects and rejoins — the
    /// server replays the result frames this client missed (absorbed
    /// idempotently) and the re-sent `CloseJob` is a no-op server-side.
    pub fn close_and_wait(mut self) -> Result<ServiceOutcome, ClientError> {
        self.close_sent = true;
        let mut result = self.conn.send(&Frame::CloseJob {
            job_id: self.job_id,
        });
        let mut attempt = 0u32;
        loop {
            match result {
                Ok(()) => {}
                Err(e) if self.retry.backoff(&e, &mut attempt) => {
                    // recover() re-sends CloseJob; if it fails, the next
                    // recv fails fast and consumes another retry.
                    let _ = self.recover();
                    result = Ok(());
                    continue;
                }
                Err(e) => return Err(e),
            }
            if self.assembler.is_done() {
                break;
            }
            result = self.conn.recv().map(|frame| {
                attempt = 0;
                self.assembler.absorb(&frame);
            });
        }
        Ok(self.assembler.finish())
    }

    /// Re-opens the connection and resumes this participant's slot:
    /// re-sends `OpenJob` with the same `client_id` (triggering the
    /// server's result replay, absorbed by [`Self::wait_stats`]) and
    /// re-sends `CloseJob` if it was already sent on the old connection.
    fn recover(&mut self) -> Result<(), ClientError> {
        self.conn = Connection::open(&self.addrs[..])?;
        self.conn.send(&Frame::OpenJob {
            job_id: self.job_id,
            client_id: self.client_id,
            config: self.config.clone(),
        })?;
        let stats = self.wait_stats()?;
        if stats.done == 0 && stats.submitted == 0 && self.next_seq > 0 {
            // The job no longer knows us: our slot (and the job's
            // state) aged out of the server's rejoin grace, and the
            // OpenJob just created a *fresh* job. Resuming into it
            // would silently produce a wrong outcome — fail instead.
            return Err(ClientError::Wire(WireError::Malformed(format!(
                "resume failed: job {} no longer holds this client's state \
                 (rejoin grace elapsed?)",
                self.job_id
            ))));
        }
        if self.close_sent {
            self.conn.send(&Frame::CloseJob {
                job_id: self.job_id,
            })?;
        }
        self.reconnects += 1;
        Ok(())
    }

    /// Reads until the matching `SubmitAck`, absorbing result frames
    /// seen on the way.
    fn await_submit_ack(&mut self, seq: u64) -> Result<SubmitReceipt, ClientError> {
        loop {
            match self.conn.recv()? {
                Frame::SubmitAck {
                    seq: ack_seq,
                    base,
                    count,
                    ..
                } => {
                    if ack_seq != seq {
                        return Err(ClientError::Wire(WireError::Malformed(format!(
                            "submit ack for seq {ack_seq}, expected {seq}"
                        ))));
                    }
                    return Ok(SubmitReceipt { base, count });
                }
                other => self.assembler.absorb(&other),
            }
        }
    }

    /// Reads until a `JobStats` frame (an open/flush ack), absorbing
    /// result frames seen on the way.
    fn wait_stats(&mut self) -> Result<JobStatsFrame, ClientError> {
        loop {
            match self.conn.recv()? {
                Frame::JobStats(stats) => {
                    if stats.done != 0 {
                        self.assembler.absorb(&Frame::JobStats(stats));
                    }
                    return Ok(stats);
                }
                other => self.assembler.absorb(&other),
            }
        }
    }
}

/// One query's results from [`SearchClient::search`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryHits {
    /// Job-global index the server assigned to the query.
    pub query_index: u64,
    /// The hits, best first (ascending `(distance, library_index)`).
    pub hits: Vec<HitWire>,
}

/// One connection participating in one search job.
pub struct SearchClient {
    conn: Connection,
    addrs: Vec<SocketAddr>,
    job_id: u64,
    dim: u32,
    retry: RetryPolicy,
    reconnects: u64,
}

impl SearchClient {
    /// Connects to `addr` and opens (or joins) search job `job_id` with
    /// dimensionality `dim`, returning once the server acknowledges
    /// (an empty `LoadLibrary` is the join handshake — it fails fast on
    /// a dim mismatch or an already-sealed job). No retries; see
    /// [`SearchClient::connect_with`].
    pub fn connect(addr: impl ToSocketAddrs, job_id: u64, dim: u32) -> Result<Self, ClientError> {
        Self::connect_with(addr, job_id, dim, RetryPolicy::none())
    }

    /// Connects with a retry policy: the handshake and every
    /// [`SearchClient::search`] call retry retryable failures
    /// (reconnecting first), since joining and querying are idempotent.
    /// [`SearchClient::load`] never retries — see its docs.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        job_id: u64,
        dim: u32,
        retry: RetryPolicy,
    ) -> Result<Self, ClientError> {
        let addrs = resolve(addr)?;
        connect_retry(&addrs, retry, |conn| {
            let mut client = Self {
                conn,
                addrs: addrs.clone(),
                job_id,
                dim,
                retry,
                reconnects: 0,
            };
            client.conn.send(&Frame::LoadLibrary {
                job_id,
                dim,
                entries: Vec::new(),
            })?;
            client.wait_stats()?;
            Ok(client)
        })
    }

    /// The search job this connection participates in.
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// The job's hypervector dimensionality.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// How many times this client has reconnected.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Loads entries into the job's library, chunked under the wire's
    /// per-frame cap; each chunk is acknowledged before the next is
    /// sent. Returns the post-load statistics snapshot. Fails once the
    /// library is sealed (a query was served).
    ///
    /// Loads are **never retried**, even with a retry policy set: if
    /// the connection dies between sending a chunk and reading its ack
    /// there is no way to know whether the chunk was applied, and
    /// re-sending it could load the entries twice (loads are not
    /// idempotent, unlike queries). Callers that lose a load should
    /// restart the search job under a fresh `job_id`.
    pub fn load(&mut self, entries: &[LibraryEntryWire]) -> Result<SearchStatsFrame, ClientError> {
        if entries.is_empty() {
            // An empty load is still a valid stats probe.
            self.conn.send(&Frame::LoadLibrary {
                job_id: self.job_id,
                dim: self.dim,
                entries: Vec::new(),
            })?;
            return self.wait_stats();
        }
        let mut stats = SearchStatsFrame::default();
        for chunk in entries.chunks(MAX_LIBRARY_BATCH as usize) {
            self.conn.send(&Frame::LoadLibrary {
                job_id: self.job_id,
                dim: self.dim,
                entries: chunk.to_vec(),
            })?;
            stats = self.wait_stats()?;
        }
        Ok(stats)
    }

    /// Scores `queries` against the job's library (sealing it on the
    /// job's first query), returning each query's hits in submission
    /// order plus the post-batch statistics snapshot. Queries are
    /// chunked under the wire's per-frame cap; each chunk's hit frames
    /// are collected up to their closing [`Frame::SearchStats`].
    ///
    /// With a retry policy set, a chunk that fails retryably is
    /// re-scored from scratch after a reconnect (its partial hits are
    /// discarded): queries are read-only, so re-scoring returns the
    /// same hits — though the server-assigned `query_index` values may
    /// then have gaps, as abandoned attempts consumed indices.
    pub fn search(
        &mut self,
        queries: &[QueryWire],
        window_da: f64,
        top_k: u32,
    ) -> Result<(Vec<QueryHits>, SearchStatsFrame), ClientError> {
        let mut results = Vec::with_capacity(queries.len());
        let mut stats = SearchStatsFrame::default();
        let mut any = false;
        for chunk in queries.chunks(MAX_QUERY_BATCH as usize) {
            any = true;
            let (chunk_hits, chunk_stats) = self.search_chunk(chunk, window_da, top_k)?;
            results.extend(chunk_hits);
            stats = chunk_stats;
        }
        if !any {
            // Zero queries: send an empty batch so the returned stats
            // are a real (and sealing) snapshot, not a default.
            let (_, chunk_stats) = self.search_chunk(&[], window_da, top_k)?;
            stats = chunk_stats;
        }
        Ok((results, stats))
    }

    /// One chunk, with retry: on a retryable failure the partial hits
    /// are discarded, the connection re-opened (the next query frame
    /// rejoins the job), and the chunk re-sent whole.
    fn search_chunk(
        &mut self,
        chunk: &[QueryWire],
        window_da: f64,
        top_k: u32,
    ) -> Result<(Vec<QueryHits>, SearchStatsFrame), ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.search_chunk_once(chunk, window_da, top_k) {
                Ok(ok) => return Ok(ok),
                Err(e) if self.retry.backoff(&e, &mut attempt) => {
                    if let Ok(conn) = Connection::open(&self.addrs[..]) {
                        self.conn = conn;
                        self.reconnects += 1;
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn search_chunk_once(
        &mut self,
        chunk: &[QueryWire],
        window_da: f64,
        top_k: u32,
    ) -> Result<(Vec<QueryHits>, SearchStatsFrame), ClientError> {
        self.conn.send(&Frame::SearchQuery {
            job_id: self.job_id,
            dim: self.dim,
            window_da,
            top_k,
            queries: chunk.to_vec(),
        })?;
        let mut hits = Vec::with_capacity(chunk.len());
        loop {
            match self.conn.recv()? {
                Frame::SearchHit {
                    query_index,
                    hits: h,
                    ..
                } => hits.push(QueryHits {
                    query_index,
                    hits: h,
                }),
                Frame::SearchStats(s) => return Ok((hits, s)),
                other => {
                    return Err(ClientError::Wire(WireError::Malformed(format!(
                        "unexpected frame during search: {other:?}"
                    ))))
                }
            }
        }
    }

    /// Reads the `SearchStats` frame acknowledging a load. Search jobs
    /// never push unsolicited frames, so the ack is the next frame.
    fn wait_stats(&mut self) -> Result<SearchStatsFrame, ClientError> {
        match self.conn.recv()? {
            Frame::SearchStats(stats) => Ok(stats),
            other => Err(ClientError::Wire(WireError::Malformed(format!(
                "unexpected frame while awaiting search stats: {other:?}"
            )))),
        }
    }
}

/// One connection holding the exclusive write session on a named
/// server-side cluster store.
///
/// The session is identified by `(store name, client_id)`, not the TCP
/// connection: with a [`RetryPolicy`] set (see
/// [`StoreClient::connect_with`]) a dead connection is transparently
/// re-opened and `OpenStore` re-sent with the same `client_id`, which
/// resumes the session server-side — sequence numbering continues, and
/// an installment whose ack was lost is re-sent under its original
/// sequence number and re-acked without re-ingesting. The served
/// installment stream is therefore bit-identical to a library
/// [`run_incremental`](spechd_core::SpecHd::run_incremental) loop over
/// the same installments, disconnects or not.
///
/// A store already held by a *different* client surfaces as the
/// retryable [`ErrorCode::StoreBusy`]; connecting with a policy waits
/// out short sessions via the normal backoff schedule.
pub struct StoreClient {
    conn: Connection,
    addrs: Vec<SocketAddr>,
    name: String,
    client_id: u64,
    config: JobConfig,
    retry: RetryPolicy,
    next_seq: u64,
    reconnects: u64,
    opened: StoreAckFrame,
}

impl std::fmt::Debug for StoreClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreClient")
            .field("name", &self.name)
            .field("client_id", &self.client_id)
            .field("next_seq", &self.next_seq)
            .field("reconnects", &self.reconnects)
            .finish_non_exhaustive()
    }
}

impl StoreClient {
    /// Connects to `addr` and opens store `name` with `config`,
    /// returning once the server acknowledges with the store's
    /// snapshot. No retries; see [`StoreClient::connect_with`].
    pub fn connect(
        addr: impl ToSocketAddrs,
        name: &str,
        config: JobConfig,
    ) -> Result<Self, ClientError> {
        Self::connect_with(addr, name, config, default_client_id(), RetryPolicy::none())
    }

    /// Connects with an explicit session identity and retry policy.
    ///
    /// `client_id` names this writer's session across connections — a
    /// reconnect presenting the same id resumes it (within the server's
    /// rejoin grace once disconnected, or immediately by stealing its
    /// own half-dead slot). Use the same id across process restarts to
    /// deterministically resume a store's installment stream.
    ///
    /// The store name is validated locally first
    /// ([`check_store_name`]), so a hostile or over-long name fails
    /// fast without a round trip.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        name: &str,
        config: JobConfig,
        client_id: u64,
        retry: RetryPolicy,
    ) -> Result<Self, ClientError> {
        check_store_name(name, &Limits::default()).map_err(ClientError::Wire)?;
        let addrs = resolve(addr)?;
        connect_retry(&addrs, retry, |mut conn| {
            conn.send(&Frame::OpenStore {
                name: name.to_string(),
                client_id,
                config: config.clone(),
            })?;
            let opened = expect_store_ack(&mut conn, name)?;
            Ok(Self {
                conn,
                addrs: addrs.clone(),
                name: name.to_string(),
                client_id,
                config: config.clone(),
                retry,
                next_seq: 0,
                reconnects: 0,
                opened,
            })
        })
    }

    /// The store this session writes to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The session identity this client presents to the server.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// How many times this client has reconnected and resumed.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The store snapshot the server sent when this session opened:
    /// total spectra, clusters, and whether a backing file was loaded
    /// — what a resuming client inspects to know where it left off.
    pub fn opened(&self) -> &StoreAckFrame {
        &self.opened
    }

    /// Submits one incremental installment and blocks for its ack: the
    /// kept spectrum indices, their stable labels, and the absorb
    /// statistics of exactly one server-side
    /// [`run_incremental`](spechd_core::SpecHd::run_incremental) call.
    ///
    /// One call is one installment — the wire caps an installment at
    /// [`MAX_INCREMENTAL_BATCH`] spectra, and an over-cap batch fails
    /// fast locally (installment boundaries affect clustering, so the
    /// client never splits one silently). With a retry policy set, a
    /// connection failure reconnects, resumes the session, and re-sends
    /// the installment under the same sequence number — a duplicate is
    /// re-acked server-side, never re-ingested.
    pub fn submit_incremental(
        &mut self,
        spectra: Vec<Spectrum>,
    ) -> Result<IncrementalAckFrame, ClientError> {
        if spectra.len() > MAX_INCREMENTAL_BATCH as usize {
            return Err(ClientError::Wire(WireError::Malformed(format!(
                "installment of {} spectra exceeds the wire cap {MAX_INCREMENTAL_BATCH}; \
                 submit smaller installments",
                spectra.len()
            ))));
        }
        let seq = self.next_seq;
        if !self.retry.enabled() {
            self.conn.send(&Frame::SubmitIncremental {
                name: self.name.clone(),
                seq,
                spectra,
            })?;
            let ack = self.await_incremental_ack(seq)?;
            self.next_seq += 1;
            return Ok(ack);
        }
        let mut attempt = 0u32;
        loop {
            let outcome = self
                .conn
                .send(&Frame::SubmitIncremental {
                    name: self.name.clone(),
                    seq,
                    spectra: spectra.clone(),
                })
                .and_then(|()| self.await_incremental_ack(seq));
            match outcome {
                Ok(ack) => {
                    self.next_seq += 1;
                    return Ok(ack);
                }
                Err(e) if self.retry.backoff(&e, &mut attempt) => {
                    // If recovery fails, the stale connection makes the
                    // next attempt fail fast and consume another retry.
                    let _ = self.recover();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Saves the store to its server-side backing file (the atomic
    /// crash-safe path) and returns the post-save snapshot
    /// (`persisted = 1`, `dirty = 0`). Idempotent, so freely retried; a
    /// server without a store directory refuses with a fatal error.
    pub fn persist(&mut self) -> Result<StoreAckFrame, ClientError> {
        self.admin(Frame::PersistStore {
            name: self.name.clone(),
        })
    }

    /// Returns a point-in-time snapshot of the store. Idempotent.
    pub fn stats(&mut self) -> Result<StoreAckFrame, ClientError> {
        self.admin(Frame::StoreStats {
            name: self.name.clone(),
        })
    }

    /// Runs the server-side medoid refresh / compaction pass and
    /// returns its snapshot (`refreshed` / `merged` counters). This
    /// sits **outside** the stable-label contract: clusters the pass
    /// finds within the cut threshold are merged, relabeling their
    /// members. The pass is a fixed point (refreshing twice equals
    /// refreshing once), so it is freely retried — though an ack lost
    /// to a reconnect re-runs the pass, and the re-run reports zero
    /// counters.
    pub fn refresh(&mut self) -> Result<StoreAckFrame, ClientError> {
        self.admin(Frame::RefreshStore {
            name: self.name.clone(),
        })
    }

    /// One idempotent admin round trip (persist / stats / refresh),
    /// under the shared retry-and-resume loop.
    fn admin(&mut self, frame: Frame) -> Result<StoreAckFrame, ClientError> {
        if !self.retry.enabled() {
            self.conn.send(&frame)?;
            return expect_store_ack(&mut self.conn, &self.name);
        }
        let mut attempt = 0u32;
        loop {
            let outcome = self
                .conn
                .send(&frame)
                .and_then(|()| expect_store_ack(&mut self.conn, &self.name));
            match outcome {
                Ok(ack) => return Ok(ack),
                Err(e) if self.retry.backoff(&e, &mut attempt) => {
                    let _ = self.recover();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Re-opens the connection and resumes this session: re-sends
    /// `OpenStore` with the same `client_id` and refreshes the opened
    /// snapshot.
    fn recover(&mut self) -> Result<(), ClientError> {
        let mut conn = Connection::open(&self.addrs[..])?;
        conn.send(&Frame::OpenStore {
            name: self.name.clone(),
            client_id: self.client_id,
            config: self.config.clone(),
        })?;
        let opened = expect_store_ack(&mut conn, &self.name)?;
        self.conn = conn;
        self.opened = opened;
        self.reconnects += 1;
        Ok(())
    }

    /// Reads until this store's `IncrementalAck` for `seq`. Store
    /// sessions never push unsolicited frames, so the ack is the next
    /// frame; anything else is a protocol violation.
    fn await_incremental_ack(&mut self, seq: u64) -> Result<IncrementalAckFrame, ClientError> {
        match self.conn.recv()? {
            Frame::IncrementalAck(ack) if ack.name == self.name && ack.seq == seq => Ok(ack),
            Frame::IncrementalAck(ack) => Err(ClientError::Wire(WireError::Malformed(format!(
                "incremental ack for {}#{}, expected {}#{seq}",
                ack.name, ack.seq, self.name
            )))),
            other => Err(ClientError::Wire(WireError::Malformed(format!(
                "unexpected frame while awaiting incremental ack: {other:?}"
            )))),
        }
    }
}

/// Reads the `StoreAck` frame acknowledging an open or admin frame for
/// store `name`.
fn expect_store_ack(conn: &mut Connection, name: &str) -> Result<StoreAckFrame, ClientError> {
    match conn.recv()? {
        Frame::StoreAck(ack) if ack.name == name => Ok(ack),
        other => Err(ClientError::Wire(WireError::Malformed(format!(
            "unexpected frame while awaiting store ack: {other:?}"
        )))),
    }
}
