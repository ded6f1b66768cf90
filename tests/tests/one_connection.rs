//! One socket carries a search session and then a clustering job. A raw
//! `Connection` loads a library and searches it, then opens a job on the
//! same socket, submits, flushes and closes it. Every reply arrives in
//! request order, the streamed results interleaved with them, and the
//! job's labels equal a local `SpecHd::run` over the same spectra.

use spechd_cluster::ClusterAssignment;
use spechd_server::{Connection, Frame, JobConfig, LibraryEntryWire, QueryWire, ServerConfig};
use spechd_tests::{assert_same, engine, serve, Data, Gen, Outcome};

/// Reads frames until `is_reply` picks one, keeping every streamed
/// result frame read on the way as `(stream index, raw label)`.
fn reply(
    conn: &mut Connection,
    members: &mut Vec<(u64, usize)>,
    is_reply: impl Fn(&Frame) -> bool,
) -> Frame {
    loop {
        match conn.recv().expect("a frame") {
            Frame::Assignment {
                raw_base,
                members: m,
                labels,
                ..
            } => members.extend(
                m.iter()
                    .zip(&labels)
                    .map(|(&i, &l)| (i, (raw_base + u64::from(l)) as usize)),
            ),
            Frame::Consensus { .. } => {}
            frame if is_reply(&frame) => return frame,
            frame => panic!("out of order: {frame:?}"),
        }
    }
}

#[test]
fn a_search_session_then_a_job_share_one_socket_in_request_order() {
    let running = serve(ServerConfig::default());
    let mut conn = Connection::open(running.addr()).expect("connect");
    let mut members = Vec::new();

    let entries: Vec<LibraryEntryWire> = (0..8u64)
        .map(|i| LibraryEntryWire {
            mass: 500.0 + i as f64 * 0.01,
            charge: 2,
            is_decoy: i % 3 == 0,
            id: format!("e{i}"),
            words: vec![0x0123_4567_89AB_CDEF_u64.rotate_left(i as u32 * 7)],
        })
        .collect();
    conn.send(&Frame::LoadLibrary {
        job_id: 1,
        dim: 64,
        entries: entries.clone(),
    })
    .expect("send load");
    match reply(&mut conn, &mut members, |_| true) {
        Frame::SearchStats(stats) => assert_eq!((stats.entries, stats.queries), (8, 0)),
        frame => panic!("load ack: {frame:?}"),
    }
    let queries: Vec<QueryWire> = entries
        .iter()
        .map(|e| QueryWire {
            mass: e.mass,
            words: e.words.clone(),
        })
        .collect();
    conn.send(&Frame::SearchQuery {
        job_id: 1,
        dim: 64,
        window_da: 0.05,
        top_k: 2,
        queries,
    })
    .expect("send query");
    let mut hits = 0;
    for q in 0..8u64 {
        match reply(&mut conn, &mut members, |_| true) {
            Frame::SearchHit {
                query_index,
                hits: h,
                ..
            } => {
                assert_eq!(query_index, q);
                assert_eq!(
                    h[0].id,
                    format!("e{q}"),
                    "a query finds its own entry first"
                );
                hits += h.len() as u64;
            }
            frame => panic!("hit {q}: {frame:?}"),
        }
    }
    match reply(&mut conn, &mut members, |_| true) {
        Frame::SearchStats(stats) => assert_eq!((stats.queries, stats.hits), (8, hits)),
        frame => panic!("search stats: {frame:?}"),
    }

    let config = JobConfig {
        workers: 1,
        ..JobConfig::default()
    };
    let dataset = Data::new(Gen::Standard, 300, 5);
    conn.send(&Frame::OpenJob {
        job_id: 2,
        client_id: 1,
        config: config.clone(),
    })
    .expect("send open");
    let stats = |frame: &Frame| matches!(frame, Frame::JobStats(_));
    match reply(&mut conn, &mut members, stats) {
        Frame::JobStats(s) => assert_eq!((s.participants, s.submitted, s.done), (1, 0, 0)),
        frame => panic!("open ack: {frame:?}"),
    }
    conn.send(&Frame::Submit {
        job_id: 2,
        seq: 0,
        spectra: dataset.spectra().to_vec(),
    })
    .expect("send submit");
    let ack = |frame: &Frame| matches!(frame, Frame::SubmitAck { .. });
    match reply(&mut conn, &mut members, ack) {
        Frame::SubmitAck {
            seq, base, count, ..
        } => assert_eq!((seq, base, count), (0, 0, 300)),
        frame => panic!("submit ack: {frame:?}"),
    }
    conn.send(&Frame::Flush { job_id: 2 }).expect("send flush");
    match reply(&mut conn, &mut members, stats) {
        Frame::JobStats(s) => assert_eq!((s.submitted, s.done), (300, 0)),
        frame => panic!("flush ack: {frame:?}"),
    }
    conn.send(&Frame::CloseJob { job_id: 2 })
        .expect("send close");
    let done = loop {
        match reply(&mut conn, &mut members, stats) {
            Frame::JobStats(s) if s.done != 0 => break s,
            _ => {}
        }
    };

    assert_eq!(config.pipeline_config(), engine().config().clone());
    members.sort_unstable();
    let (kept, raw): (Vec<u64>, Vec<usize>) = members.into_iter().unzip();
    let kept: Vec<usize> = kept.into_iter().map(|i| i as usize).collect();
    let served = Outcome::default()
        .with("kept", kept)
        .with(
            "labels",
            ClusterAssignment::from_raw_labels(&raw).labels().to_vec(),
        )
        .with("kept count", done.kept);
    let batch = Outcome::from(&engine().run(&dataset));
    assert_same(
        "Served(1), raw frames after a search session",
        &dataset.name,
        &served,
        &batch,
    );
    drop(conn);
    running.shutdown();
}
