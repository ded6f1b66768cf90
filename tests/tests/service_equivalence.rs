//! Served-vs-batch equivalence and server robustness suite.
//!
//! The service promise mirrors the streaming one: N concurrent clients
//! submitting disjoint slices into one job must reassemble a clustering
//! **bit-identical** to a local batch `SpecHd::run` over the union of
//! their spectra in stream order. Around that core sit the lifecycle
//! regressions: a client disconnecting mid-stream leaves a job that
//! still finalizes cleanly for the survivors, malformed frames kill one
//! connection and never the server, idle connections are reaped, and
//! shutdown drains every pipeline.

use spechd_server::protocol::{encode_frame, read_frame};
use spechd_server::{ErrorCode, Frame, JobClient, JobConfig, Limits, ServerConfig};
use spechd_tests::{
    assert_paths, assert_served, exchange, expect_closed, expect_error, job_id, refused, serve,
    submit_slice, union_in_stream_order, Data, Gen, Path,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// The acceptance-gate test: four concurrent clients, one job, disjoint
/// slices — every participant's reassembled outcome is identical, and
/// bit-identical to the batch pipeline on the union in stream order.
#[test]
fn four_concurrent_clients_reassemble_the_batch_outcome() {
    assert_paths(&Data::new(Gen::Standard, 600, 0x5E4F), &[Path::Served(4)]);
}

/// Satellite regression: a client that disconnects abruptly mid-stream
/// (no `CloseJob`) ends its participation exactly like a close — the
/// survivor still finalizes the job over BOTH clients' spectra, and the
/// server drains cleanly afterwards (no leaked pipeline).
#[test]
fn client_disconnect_mid_stream_finalizes_for_survivors() {
    let server = serve(ServerConfig::default());
    let addr = server.addr();
    let dataset = Data::new(Gen::Standard, 240, 0xD15C);
    let job = job_id(2);

    let mut casualty = JobClient::connect(addr, job, JobConfig::default()).expect("connect A");
    let mut survivor = JobClient::connect(addr, job, JobConfig::default()).expect("connect B");

    // A submits its full slice (all acks received, so its spectra are
    // ingested at known stream indices), then vanishes without closing.
    let mut placements = submit_slice(&mut casualty, &dataset, 0, 2, 17);
    drop(casualty);

    placements.extend(submit_slice(&mut survivor, &dataset, 1, 2, 17));
    let outcome = survivor.close_and_wait().expect("survivor close_and_wait");

    let union = union_in_stream_order(&dataset, &placements);
    assert_served("Served(2), one client dropped", &dataset, &outcome, &union);

    // Shutdown joins every pipeline thread: if the dead client's shard
    // worker scope leaked, this would hang instead of returning.
    server.shutdown();
}

/// A malformed frame (wrong magic) gets an error reply and kills that
/// connection — while a job on another connection sails through
/// untouched, proving the server itself survived.
#[test]
fn malformed_frame_kills_connection_not_server() {
    let server = serve(ServerConfig::default());
    let addr = server.addr();

    let mut rogue = TcpStream::connect(addr).expect("connect rogue");
    rogue
        .write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("write junk");
    expect_error(
        read_frame(&mut rogue, &Limits::default()),
        ErrorCode::Malformed,
    );
    // The server closed the connection after the error frame.
    expect_closed(&mut rogue);

    // The server still serves: a full job on a fresh connection works.
    let dataset = Data::new(Gen::Standard, 120, 0xBAD);
    let mut client =
        JobClient::connect(addr, job_id(3), JobConfig::default()).expect("connect after rogue");
    let placements = submit_slice(&mut client, &dataset, 0, 1, 40);
    let outcome = client.close_and_wait().expect("close_and_wait");
    let union = union_in_stream_order(&dataset, &placements);
    assert_served(
        "Served(1), after a malformed peer",
        &dataset,
        &outcome,
        &union,
    );

    server.shutdown();
}

/// An oversized length prefix is rejected before any allocation, with
/// the dedicated error code, and closes the connection.
#[test]
fn oversized_length_prefix_rejected_with_error_frame() {
    let config = ServerConfig {
        limits: Limits {
            max_frame_len: 1024,
        },
        ..ServerConfig::default()
    };
    let server = serve(config);
    let mut rogue = TcpStream::connect(server.addr()).expect("connect");
    let mut bytes = encode_frame(&Frame::Flush { job_id: 1 });
    bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    rogue.write_all(&bytes[..12]).expect("write header");
    expect_error(
        read_frame(&mut rogue, &Limits::default()),
        ErrorCode::Oversized,
    );
    expect_closed(&mut rogue);
    server.shutdown();
}

/// Frames that are well-formed but wrong for the connection state get a
/// `ProtocolState` error and the connection SURVIVES: the same socket
/// can then open a job and use it.
#[test]
fn state_errors_do_not_kill_the_connection() {
    let server = serve(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");

    // Submit before OpenJob.
    let premature = Frame::Submit {
        job_id: 9,
        seq: 0,
        spectra: Vec::new(),
    };
    expect_error(exchange(&mut stream, &premature), ErrorCode::ProtocolState);

    // Same connection, proper handshake: works.
    let open = Frame::OpenJob {
        job_id: 9,
        client_id: 1,
        config: JobConfig::default(),
    };
    match exchange(&mut stream, &open) {
        Ok(Frame::JobStats(stats)) => assert_eq!(stats.job_id, 9),
        other => panic!("expected JobStats ack, got {other:?}"),
    }
    // Wrong job id on an open connection: state error, still alive.
    let wrong_job = exchange(&mut stream, &Frame::Flush { job_id: 10 });
    expect_error(wrong_job, ErrorCode::ProtocolState);
    match exchange(&mut stream, &Frame::Flush { job_id: 9 }) {
        Ok(Frame::JobStats(stats)) => assert_eq!(stats.job_id, 9),
        other => panic!("expected JobStats ack, got {other:?}"),
    }
    drop(stream);
    server.shutdown();
}

/// A connection can run jobs **sequentially**: once a job settles
/// (closed and finished), its handle is vacated and a fresh `OpenJob`
/// on the same socket succeeds instead of being refused as "already
/// has an open job".
#[test]
fn connection_can_run_sequential_jobs() {
    let server = serve(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    for tag in [7u64, 8] {
        let job = job_id(tag);
        let open = Frame::OpenJob {
            job_id: job,
            client_id: 1,
            config: JobConfig::default(),
        };
        match exchange(&mut stream, &open) {
            Ok(Frame::JobStats(stats)) => assert_eq!(stats.job_id, job),
            other => panic!("expected open ack for job tag {tag}, got {other:?}"),
        }
        stream
            .write_all(&encode_frame(&Frame::CloseJob { job_id: job }))
            .expect("write close");
        loop {
            match read_frame(&mut stream, &Limits::default()) {
                Ok(Frame::JobStats(stats)) if stats.done == 1 => break,
                Ok(_) => {}
                other => panic!("waiting for job tag {tag} to finish, got {other:?}"),
            }
        }
    }
    drop(stream);
    server.shutdown();
}

/// Joining an existing job with a different config is refused.
#[test]
fn config_mismatch_on_join_is_rejected() {
    let server = serve(ServerConfig::default());
    let job = job_id(4);
    let _first =
        JobClient::connect(server.addr(), job, JobConfig::default()).expect("first participant");
    let different = JobConfig {
        resolution: 2.5,
        ..JobConfig::default()
    };
    let join = JobClient::connect(server.addr(), job, different);
    refused(join, ErrorCode::ConfigMismatch);
    server.shutdown();
}

/// A connection with no open job is reaped after the idle timeout with
/// the dedicated error code; a connection waiting on a live job is not.
#[test]
fn idle_connections_are_reaped_busy_ones_are_not() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let server = serve(config);

    // Busy: holds an open job, sits longer than the idle timeout, and
    // must still be alive to close it.
    let dataset = Data::new(Gen::Standard, 40, 0x1D7E);
    let mut busy =
        JobClient::connect(server.addr(), job_id(5), JobConfig::default()).expect("busy connect");
    submit_slice(&mut busy, &dataset, 0, 1, 40);

    // Idle: never opens a job.
    let mut idle = TcpStream::connect(server.addr()).expect("idle connect");
    expect_error(
        read_frame(&mut idle, &Limits::default()),
        ErrorCode::IdleTimeout,
    );

    let outcome = busy
        .close_and_wait()
        .expect("busy client survived the idle window");
    assert_eq!(outcome.stats.done, 1);
    server.shutdown();
}

/// An empty job (open, close, no spectra) finalizes to an empty
/// outcome instead of wedging the pipeline.
#[test]
fn empty_job_finalizes_empty() {
    let server = serve(ServerConfig::default());
    let client =
        JobClient::connect(server.addr(), job_id(6), JobConfig::default()).expect("connect");
    let outcome = client.close_and_wait().expect("close empty job");
    assert!(outcome.kept.is_empty());
    assert!(outcome.labels.is_empty());
    assert!(outcome.consensus.is_empty());
    assert_eq!(outcome.stats.done, 1);
    assert_eq!(outcome.stats.clusters, 0);
    server.shutdown();
}

/// Shutdown stops accepting and wakes parked connections with the
/// dedicated error code.
#[test]
fn shutdown_notifies_parked_connections_and_stops_accepting() {
    let server = serve(ServerConfig::default());
    let addr = server.addr();
    let mut parked = TcpStream::connect(addr).expect("parked connect");

    // Shut down while the connection is parked between frames; join of
    // the accept loop and pipelines happens inside shutdown().
    server.shutdown();
    match read_frame(&mut parked, &Limits::default()) {
        Ok(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::ServerShutdown),
        // The socket may already be closed by the time we read.
        Err(_) => {}
        Ok(other) => panic!("expected ServerShutdown error, got {other:?}"),
    }
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err(),
        "listener must be gone after shutdown"
    );
}
