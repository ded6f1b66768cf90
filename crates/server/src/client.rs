//! A blocking client for the `spechd` protocol.
//!
//! [`Connection`] is the shared transport: it owns the TCP socket pair
//! (buffered writer + buffered reader), the frame codec under the default
//! [`Limits`], and the error-frame-to-[`ClientError`] translation
//! every client needs. The three job-flavored clients are thin state
//! machines over it, sharing one error surface and one round-trip loop
//! (the private `Link`: send a frame, read its reply, and on a
//! retryable failure back off, reconnect, resume, send it again):
//!
//! * [`JobClient`] wraps one connection participating in one clustering
//!   job. Submission is acknowledged per batch (the ack carries the
//!   batch's base stream index, so a participant knows exactly which
//!   stream slots its spectra occupy); result frames arriving in between
//!   are absorbed into the job's [`assemble`](crate::assemble) state, and
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
//! be. All three clients accept a [`RetryPolicy`] — deterministic
//! bounded exponential backoff, a budget of retries per round trip —
//! and, when one is set, transparently reconnect and resume:
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
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::io::{BufReader, BufWriter};
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
    /// — a connection killed or stalled mid-frame surfaces as a
    /// truncated read) are retryable: the connection died, but a
    /// reconnect may find the server healthy. Server error frames defer
    /// to the wire contract:
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
/// one: a hash under a fresh [`RandomState`], whose keys are random per
/// thread and step on every call. Two *concurrent* participants of one
/// job must not share a `client_id` (the server binds a job slot to it);
/// explicit ids belong to callers that want deterministic resume
/// identities across process restarts.
fn default_client_id() -> u64 {
    RandomState::new().hash_one(())
}

/// One established client connection: socket pair, frame codec, and the
/// server-error translation shared by every protocol client.
///
/// [`JobClient`], [`SearchClient`] and [`StoreClient`] each wrap one of
/// these with their job-flavored handshake and state machine; custom
/// tooling (load generators, protocol probes) can drive a raw
/// `Connection` directly.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Connection {
    /// Opens a TCP connection to `addr` (Nagle disabled, inbound frames
    /// decoded under [`Limits::default`]). No protocol traffic is
    /// exchanged — job handshakes belong to the clients layered on top.
    pub fn open(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
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
        match read_frame(&mut self.reader, &Limits::default())? {
            Frame::Error { code, message } => Err(ClientError::Server { code, message }),
            frame => Ok(frame),
        }
    }
}

/// One live [`Connection`] plus what it takes to replace it. Every
/// client talks through [`Link::call`] — the one place a failure is
/// classified, backed off, and answered with a fresh connection.
struct Link {
    conn: Connection,
    addrs: Vec<SocketAddr>,
    retry: RetryPolicy,
    reconnects: u64,
}

impl Link {
    /// Opens a connection to `addr` and runs the client's `handshake`
    /// on it, returning what the handshake read. A retryable failure
    /// backs off under `retry` and starts over on a fresh connection.
    fn connect<T>(
        addr: impl ToSocketAddrs,
        retry: RetryPolicy,
        mut handshake: impl FnMut(&mut Connection) -> Result<T, ClientError>,
    ) -> Result<(Self, T), ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(ClientError::Wire(WireError::Io(std::io::Error::other(
                "address resolved to no socket addresses",
            ))));
        }
        let mut attempt = 0u32;
        loop {
            let opened = Connection::open(&addrs[..]).and_then(|mut conn| {
                let hello = handshake(&mut conn)?;
                Ok((conn, hello))
            });
            match opened {
                Ok((conn, hello)) => {
                    let link = Self {
                        conn,
                        addrs,
                        retry,
                        reconnects: 0,
                    };
                    return Ok((link, hello));
                }
                Err(e) if retry.backoff(&e, &mut attempt) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// One round trip: sends `frame` and `read`s its reply. On a
    /// retryable failure it backs off, opens a fresh connection, runs
    /// the client's `resume` handshake on it, and sends the *same*
    /// `frame` again — callers only pass frames the server treats as
    /// harmless to repeat (a numbered submission is re-acked, queries
    /// and admin frames are idempotent). `state` is the part of the
    /// client that both `read` and `resume` write.
    ///
    /// The retry budget is **per round trip**: one call backs off at
    /// most [`RetryPolicy::max_retries`] times, whichever step failed
    /// (send, read, re-open or resume), and the next call starts from
    /// zero. A fatal error — from `resume` too: the server no longer
    /// knows this client — is returned as it is.
    fn call<S, T>(
        &mut self,
        frame: &Frame,
        state: &mut S,
        read: impl Fn(&mut Connection, &mut S) -> Result<T, ClientError>,
        resume: impl Fn(&mut Connection, &mut S) -> Result<(), ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0u32;
        loop {
            let outcome = (|| {
                if attempt > 0 {
                    let mut conn = Connection::open(&self.addrs[..])?;
                    resume(&mut conn, state)?;
                    self.conn = conn;
                    self.reconnects += 1;
                }
                self.conn.send(frame)?;
                read(&mut self.conn, state)
            })();
            match outcome {
                Ok(reply) => return Ok(reply),
                Err(e) if self.retry.backoff(&e, &mut attempt) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A frame the client's state machine has no place for at this point.
fn unexpected(when: &str, frame: &Frame) -> ClientError {
    let message = format!("unexpected frame {when}: {frame:?}");
    ClientError::Wire(WireError::Malformed(message))
}

/// `items` in chunks of at most `cap` — and one empty chunk for an
/// empty slice, so that an empty load or search is still a round trip
/// and the statistics it returns are the server's, not a default.
fn wire_chunks<T>(items: &[T], cap: u32) -> impl Iterator<Item = &[T]> {
    let empty = items.is_empty().then_some(items);
    empty.into_iter().chain(items.chunks(cap as usize))
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
    link: Link,
    job_id: u64,
    client_id: u64,
    /// The `OpenJob` frame: the connect handshake, sent again to resume.
    open: Frame,
    next_seq: u64,
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
        let open = Frame::OpenJob {
            job_id,
            client_id,
            config,
        };
        let mut assembler = AssignmentAssembler::new();
        let (link, ()) =
            Link::connect(addr, retry, |conn| join_job(conn, &open, 0, &mut assembler))?;
        Ok(Self {
            link,
            job_id,
            client_id,
            open,
            next_seq: 0,
            assembler,
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
        self.link.reconnects
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
        let frame = Frame::Submit {
            job_id: self.job_id,
            seq,
            spectra,
        };
        let receipt = self.call(&frame, |conn, assembler| {
            await_submit_ack(conn, assembler, seq)
        })?;
        self.next_seq += 1;
        Ok(receipt)
    }

    /// Barrier: returns a statistics snapshot taken after the server
    /// has ingested every frame this connection sent before the flush.
    /// Idempotent, so freely retried under the policy.
    pub fn flush(&mut self) -> Result<JobStatsFrame, ClientError> {
        let frame = Frame::Flush {
            job_id: self.job_id,
        };
        self.call(&frame, wait_job_stats)
    }

    /// Declares this participant done submitting and waits for the
    /// job's results: blocks until the final `done` frame, then
    /// reassembles the global clustering. The job finalizes once
    /// **every** participant has closed. With a retry policy set, a
    /// connection lost while waiting reconnects and rejoins — the
    /// server replays the result frames this client missed (absorbed
    /// idempotently) and the re-sent `CloseJob` is a no-op server-side.
    pub fn close_and_wait(mut self) -> Result<ServiceOutcome, ClientError> {
        let frame = Frame::CloseJob {
            job_id: self.job_id,
        };
        self.call(&frame, |conn, assembler| {
            while !assembler.is_done() {
                assembler.absorb(&conn.recv()?);
            }
            Ok(())
        })?;
        Ok(self.assembler.finish()?)
    }

    /// One [`Link::call`] whose resume re-joins this participant's slot.
    fn call<T>(
        &mut self,
        frame: &Frame,
        read: impl Fn(&mut Connection, &mut AssignmentAssembler) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let (open, next_seq) = (&self.open, self.next_seq);
        self.link
            .call(frame, &mut self.assembler, read, |conn, assembler| {
                join_job(conn, open, next_seq, assembler)
            })
    }
}

/// Sends the `OpenJob` frame `open` and reads to its ack, absorbing the
/// result replay a rejoin triggers. `next_seq > 0` makes it a resume,
/// which must land in the job this client already submitted to.
fn join_job(
    conn: &mut Connection,
    open: &Frame,
    next_seq: u64,
    assembler: &mut AssignmentAssembler,
) -> Result<(), ClientError> {
    conn.send(open)?;
    let stats = wait_job_stats(conn, assembler)?;
    if stats.done == 0 && stats.submitted == 0 && next_seq > 0 {
        // The job no longer knows us: our slot (and the job's state)
        // aged out of the server's rejoin grace, and the OpenJob just
        // created a *fresh* job. Resuming into it would silently
        // produce a wrong outcome — fail instead.
        return Err(ClientError::Wire(WireError::Malformed(format!(
            "resume failed: job {} no longer holds this client's state \
             (rejoin grace elapsed?)",
            stats.job_id
        ))));
    }
    Ok(())
}

/// Reads until the `SubmitAck` for `seq`, absorbing result frames seen
/// on the way.
fn await_submit_ack(
    conn: &mut Connection,
    assembler: &mut AssignmentAssembler,
    seq: u64,
) -> Result<SubmitReceipt, ClientError> {
    loop {
        match conn.recv()? {
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
            other => assembler.absorb(&other),
        }
    }
}

/// Reads until a `JobStats` frame (an open/flush ack), absorbing result
/// frames seen on the way.
fn wait_job_stats(
    conn: &mut Connection,
    assembler: &mut AssignmentAssembler,
) -> Result<JobStatsFrame, ClientError> {
    loop {
        match conn.recv()? {
            Frame::JobStats(stats) => {
                if stats.done != 0 {
                    assembler.absorb(&Frame::JobStats(stats));
                }
                return Ok(stats);
            }
            other => assembler.absorb(&other),
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
    link: Link,
    job_id: u64,
    dim: u32,
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
        let join = Frame::LoadLibrary {
            job_id,
            dim,
            entries: Vec::new(),
        };
        let (link, _) = Link::connect(addr, retry, |conn| {
            conn.send(&join)?;
            search_stats(conn)
        })?;
        Ok(Self { link, job_id, dim })
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
        self.link.reconnects
    }

    /// Loads entries into the job's library, chunked under the wire's
    /// per-frame cap; each chunk is acknowledged before the next is
    /// sent. Returns the post-load statistics snapshot (an empty load
    /// is a valid stats probe). Fails once the library is sealed (a
    /// query was served).
    ///
    /// Loads are **never retried**, even with a retry policy set: if
    /// the connection dies between sending a chunk and reading its ack
    /// there is no way to know whether the chunk was applied, and
    /// re-sending it could load the entries twice (loads are not
    /// idempotent, unlike queries). Callers that lose a load should
    /// restart the search job under a fresh `job_id`.
    pub fn load(&mut self, entries: &[LibraryEntryWire]) -> Result<SearchStatsFrame, ClientError> {
        let mut stats = SearchStatsFrame::default();
        for chunk in wire_chunks(entries, MAX_LIBRARY_BATCH) {
            // Not a `Link::call`: see above.
            self.link.conn.send(&Frame::LoadLibrary {
                job_id: self.job_id,
                dim: self.dim,
                entries: chunk.to_vec(),
            })?;
            stats = search_stats(&mut self.link.conn)?;
        }
        Ok(stats)
    }

    /// Scores `queries` against the job's library (sealing it on the
    /// job's first query), returning each query's hits in submission
    /// order plus the post-batch statistics snapshot. Queries are
    /// chunked under the wire's per-frame cap; each chunk's hit frames
    /// are collected up to their closing [`Frame::SearchStats`]. Zero
    /// queries still send one (empty, sealing) batch.
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
        for chunk in wire_chunks(queries, MAX_QUERY_BATCH) {
            let frame = Frame::SearchQuery {
                job_id: self.job_id,
                dim: self.dim,
                window_da,
                top_k,
                queries: chunk.to_vec(),
            };
            // No resume handshake: the re-sent query frame itself
            // rejoins the job on the fresh connection.
            let (hits, chunk_stats) = self.link.call(
                &frame,
                &mut (),
                |conn, ()| search_hits(conn, chunk.len()),
                |_, ()| Ok(()),
            )?;
            results.extend(hits);
            stats = chunk_stats;
        }
        Ok((results, stats))
    }
}

/// Reads one query batch's reply: a `SearchHit` per query, closed by the
/// batch's `SearchStats`.
fn search_hits(
    conn: &mut Connection,
    queries: usize,
) -> Result<(Vec<QueryHits>, SearchStatsFrame), ClientError> {
    let mut hits = Vec::with_capacity(queries);
    loop {
        match conn.recv()? {
            Frame::SearchHit {
                query_index,
                hits: h,
                ..
            } => hits.push(QueryHits {
                query_index,
                hits: h,
            }),
            Frame::SearchStats(stats) => return Ok((hits, stats)),
            other => return Err(unexpected("during search", &other)),
        }
    }
}

/// Reads the `SearchStats` frame acknowledging a load. Search jobs
/// never push unsolicited frames, so the ack is the next frame.
fn search_stats(conn: &mut Connection) -> Result<SearchStatsFrame, ClientError> {
    match conn.recv()? {
        Frame::SearchStats(stats) => Ok(stats),
        other => Err(unexpected("while awaiting search stats", &other)),
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
    link: Link,
    name: String,
    client_id: u64,
    /// The `OpenStore` frame: the connect handshake, sent again to
    /// resume.
    open: Frame,
    next_seq: u64,
    opened: StoreAckFrame,
}

impl std::fmt::Debug for StoreClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreClient")
            .field("name", &self.name)
            .field("client_id", &self.client_id)
            .field("next_seq", &self.next_seq)
            .field("reconnects", &self.link.reconnects)
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
    /// The store name is validated locally first, by the server's own
    /// rule, so a hostile or over-long name fails fast without a round
    /// trip.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        name: &str,
        config: JobConfig,
        client_id: u64,
        retry: RetryPolicy,
    ) -> Result<Self, ClientError> {
        check_store_name(name).map_err(ClientError::Wire)?;
        let open = Frame::OpenStore {
            name: name.to_string(),
            client_id,
            config,
        };
        let (link, opened) = Link::connect(addr, retry, |conn| open_store(conn, &open, name))?;
        Ok(Self {
            link,
            name: name.to_string(),
            client_id,
            open,
            next_seq: 0,
            opened,
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
        self.link.reconnects
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
        let frame = Frame::SubmitIncremental {
            name: self.name.clone(),
            seq,
            spectra,
        };
        let ack = self.call(&frame, |conn, name| await_incremental_ack(conn, name, seq))?;
        self.next_seq += 1;
        Ok(ack)
    }

    /// Saves the store to its server-side backing file (the atomic
    /// crash-safe path) and returns the post-save snapshot
    /// (`persisted = 1`, `dirty = 0`). Idempotent, so freely retried; a
    /// server without a store directory refuses with a fatal error.
    pub fn persist(&mut self) -> Result<StoreAckFrame, ClientError> {
        let name = self.name.clone();
        self.call(&Frame::PersistStore { name }, expect_store_ack)
    }

    /// Returns a point-in-time snapshot of the store. Idempotent.
    pub fn stats(&mut self) -> Result<StoreAckFrame, ClientError> {
        let name = self.name.clone();
        self.call(&Frame::StoreStats { name }, expect_store_ack)
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
        let name = self.name.clone();
        self.call(&Frame::RefreshStore { name }, expect_store_ack)
    }

    /// One [`Link::call`] whose resume re-opens this session and
    /// refreshes the opened snapshot; `read` gets the store's name.
    fn call<T>(
        &mut self,
        frame: &Frame,
        read: impl Fn(&mut Connection, &str) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let (open, name) = (&self.open, self.name.as_str());
        self.link.call(
            frame,
            &mut self.opened,
            |conn, _| read(conn, name),
            |conn, opened| {
                *opened = open_store(conn, open, name)?;
                Ok(())
            },
        )
    }
}

/// Sends the `OpenStore` frame `open` and reads the snapshot that
/// acknowledges it.
fn open_store(
    conn: &mut Connection,
    open: &Frame,
    name: &str,
) -> Result<StoreAckFrame, ClientError> {
    conn.send(open)?;
    expect_store_ack(conn, name)
}

/// Reads store `name`'s `IncrementalAck` for `seq`. Store sessions
/// never push unsolicited frames, so the ack is the next frame;
/// anything else is a protocol violation.
fn await_incremental_ack(
    conn: &mut Connection,
    name: &str,
    seq: u64,
) -> Result<IncrementalAckFrame, ClientError> {
    match conn.recv()? {
        Frame::IncrementalAck(ack) if ack.name == name && ack.seq == seq => Ok(ack),
        Frame::IncrementalAck(ack) => Err(ClientError::Wire(WireError::Malformed(format!(
            "incremental ack for {}#{}, expected {name}#{seq}",
            ack.name, ack.seq
        )))),
        other => Err(unexpected("while awaiting incremental ack", &other)),
    }
}

/// Reads the `StoreAck` frame acknowledging an open or admin frame for
/// store `name`.
fn expect_store_ack(conn: &mut Connection, name: &str) -> Result<StoreAckFrame, ClientError> {
    match conn.recv()? {
        Frame::StoreAck(ack) if ack.name == name => Ok(ack),
        other => Err(unexpected("while awaiting store ack", &other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_frame, read_frame};
    use spechd_ms::{Peak, Precursor};
    use std::net::TcpListener;

    /// A server that acks every `OpenJob`, hangs up on the first
    /// `Submit` it reads and acks the `Submit` of every later
    /// connection. Stops at a connection that closes without a frame and
    /// returns the `Submit` frames' bytes, one per connection served.
    fn flaky_server(listener: TcpListener) -> std::thread::JoinHandle<Vec<Vec<u8>>> {
        std::thread::spawn(move || {
            let (limits, mut submits) = (Limits::default(), Vec::new());
            for stream in listener.incoming() {
                let mut stream = stream.expect("accept");
                let Ok(Frame::OpenJob { job_id, .. }) = read_frame(&mut stream, &limits) else {
                    break;
                };
                let opened = Frame::JobStats(JobStatsFrame::default());
                write_frame(&mut stream, &opened).expect("open ack");
                let submit = read_frame(&mut stream, &limits).expect("a frame after the open");
                assert!(matches!(submit, Frame::Submit { seq: 0, .. }), "{submit:?}");
                submits.push(encode_frame(&submit));
                if submits.len() > 1 {
                    let (seq, base, count) = (0, 0, 1);
                    let ack = Frame::SubmitAck {
                        job_id,
                        seq,
                        base,
                        count,
                    };
                    write_frame(&mut stream, &ack).expect("submit ack");
                }
            }
            submits
        })
    }

    /// The retrying and the fail-fast client run the same loop: the
    /// first re-sends the very bytes it sent before, on exactly one
    /// fresh connection; the second stops at the first failure.
    #[test]
    fn a_dropped_submit_is_resent_byte_for_byte_and_only_under_a_policy() {
        let patient = RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(1),
        };
        let precursor = Precursor::new(500.0, 2).expect("precursor");
        let spectrum =
            Spectrum::new("s", precursor, vec![Peak::new(200.0, 1.0)]).expect("spectrum");
        for retry in [patient, RetryPolicy::none()] {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let server = flaky_server(listener);
            let mut client =
                JobClient::connect_with(addr, 1, JobConfig::default(), 7, retry).expect("connect");
            let outcome = client.submit(vec![spectrum.clone()]);
            // A connection that says nothing stops the fake.
            drop(TcpStream::connect(addr).expect("stop the fake"));
            let submits = server.join().expect("fake server");
            if retry == patient {
                assert_eq!(outcome.expect("ack"), SubmitReceipt { base: 0, count: 1 });
                assert_eq!(client.reconnects(), 1);
                assert_eq!(submits.len(), 2, "one re-send");
                assert_eq!(submits[0], submits[1], "the same bytes both times");
            } else {
                let err = outcome.expect_err("no policy, no second try");
                assert!(err.is_retryable(), "a hang-up is retryable: {err}");
                assert_eq!(
                    (client.reconnects(), submits.len()),
                    (0, 1),
                    "one connection"
                );
            }
        }
    }

    /// A server that answers `CloseJob` with a label whose medoid it
    /// never sends: the client reports a malformed reply, it does not
    /// panic.
    #[test]
    fn a_result_without_its_medoid_is_a_malformed_reply() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let limits = Limits::default();
            read_frame(&mut stream, &limits).expect("OpenJob");
            let opened = Frame::JobStats(JobStatsFrame::default());
            write_frame(&mut stream, &opened).expect("open ack");
            read_frame(&mut stream, &limits).expect("CloseJob");
            let done = JobStatsFrame {
                done: 1,
                ..JobStatsFrame::default()
            };
            let results = [
                Frame::Assignment {
                    job_id: 1,
                    key: 0,
                    raw_base: 0,
                    members: vec![0],
                    labels: vec![0],
                },
                Frame::JobStats(done),
            ];
            for frame in &results {
                write_frame(&mut stream, frame).expect("result frame");
            }
        });
        let client = JobClient::connect(addr, 1, JobConfig::default()).expect("connect");
        let err = client.close_and_wait().expect_err("no medoid for label 0");
        server.join().expect("fake server");
        assert!(
            matches!(&err, ClientError::Wire(WireError::Malformed(m)) if m.contains("medoid")),
            "{err}"
        );
    }

    /// Ids drawn without a caller's choice do not collide: not in a
    /// burst on one thread, nor across threads drawing at once.
    #[test]
    fn default_client_ids_are_distinct() {
        let mut ids: Vec<u64> = (0..1000).map(|_| default_client_id()).collect();
        let threads: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| (0..100).map(|_| default_client_id()).collect()))
            .collect();
        for thread in threads {
            ids.extend::<Vec<u64>>(thread.join().expect("drawing thread"));
        }
        let drawn = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!((drawn, ids.len()), (1800, 1800));
    }
}
