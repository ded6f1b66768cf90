//! `served_incremental` — small updates into a persistent archive through
//! the service (the PR 8–10 use case): every repetition copies a pristine
//! SHPK archive to a fresh store name and runs short store sessions against
//! it, each `connect → submit_incremental → persist → drop`.
//!
//! The server keeps an opened store resident, so the archive is read from
//! disk once per repetition (first session) and written in every session.

use super::{fnv1a, out_dir, synthetic_spectra, Checks, LayerMetrics, Workload};
use crate::proc::thread_count;
use crate::stats::{fastest, median};
use crate::trace::Tracer;
use spechd_core::{ClusterStore, SpecHd};
use spechd_hdc::distance::PackedDistanceEngine;
use spechd_ms::{Spectrum, SpectrumDataset};
use spechd_server::{
    IncrementalAckFrame, JobConfig, RetryPolicy, RunningServer, Server, ServerConfig, StoreClient,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Spectra in the base archive, built and saved in set-up.
const BASE_SPECTRA: usize = 4_000;
/// Sessions per repetition, sized so one repetition takes ≈ 0.5 s.
const SESSIONS: usize = 24;
/// Spectra per session's installment, and how many of them come from the
/// archive's own peptides (re-observations); the rest are novel peptides.
const INSTALLMENT: usize = 25;
const REOBSERVED: usize = 18;

pub struct ServedIncremental;

pub struct Input {
    base: SpectrumDataset,
    installments: Vec<Vec<Spectrum>>,
}

pub struct State {
    server: RunningServer,
    dir: PathBuf,
    pristine: PathBuf,
    /// The library twin's engine: the server builds the same one.
    engine: SpecHd,
    /// Store names and client ids already used in this process.
    serial: u64,
}

/// One repetition's acks (as digests) and the store it left on disk.
pub struct Output {
    store_file: PathBuf,
    /// `None`: the session failed.
    acks: Vec<Option<u64>>,
}

fn ack_digest(ack: &IncrementalAckFrame) -> u64 {
    fnv1a(
        [
            ack.base_id,
            ack.absorbed,
            ack.residual,
            ack.new_clusters,
            ack.total_spectra,
            ack.total_clusters,
        ]
        .into_iter()
        .chain(ack.kept.iter().map(|&k| u64::from(k)))
        .chain(ack.labels.iter().copied()),
    )
}

/// A session that finds the previous one's slot not yet released (its
/// connection's hang-up still in flight) is told `StoreBusy` and retries.
const SESSION_RETRY: RetryPolicy = RetryPolicy {
    max_retries: 50,
    base_delay: Duration::from_micros(100),
    max_delay: Duration::from_millis(2),
};

impl State {
    fn next_serial(&mut self) -> u64 {
        self.serial += 1;
        self.serial
    }

    /// Copies the pristine archive to a store name no session has used.
    fn fresh_store(&mut self) -> (String, PathBuf) {
        let name = format!("s{}", self.next_serial());
        let path = self.dir.join(format!("{name}.shpk"));
        std::fs::copy(&self.pristine, &path).expect("copy the pristine archive");
        (name, path)
    }

    fn connect(&mut self, name: &str) -> Result<StoreClient, spechd_server::ClientError> {
        let client_id = self.next_serial();
        StoreClient::connect_with(
            self.server.addr(),
            name,
            JobConfig::default(),
            client_id,
            SESSION_RETRY,
        )
    }
}

impl Workload for ServedIncremental {
    type Input = Input;
    type State = State;
    type Output = Output;

    const NAME: &'static str = "served_incremental";
    const SPECTRA_PER_REP: usize = SESSIONS * INSTALLMENT;

    fn generate(seed: u64) -> Input {
        let generate = synthetic_spectra;
        // One stream of the archive's peptides: its head is the archive,
        // its tail the re-observations. Novel spectra come from another
        // peptide library altogether.
        let (mut known, _) = generate(BASE_SPECTRA + SESSIONS * REOBSERVED, seed).into_parts();
        let reobserved = known.split_off(BASE_SPECTRA);
        let (novel, _) = generate(SESSIONS * (INSTALLMENT - REOBSERVED), seed ^ 0x0E1).into_parts();
        let installments = reobserved
            .chunks(REOBSERVED)
            .zip(novel.chunks(INSTALLMENT - REOBSERVED))
            .map(|(old, new)| old.iter().chain(new).cloned().collect())
            .collect();
        Input {
            base: SpectrumDataset::from_spectra(known),
            installments,
        }
    }

    fn setup(input: &Input, tracer: &mut Tracer) -> State {
        let dir = out_dir().join(format!("store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the store directory");
        let pristine = dir.join("pristine.shpk");
        let engine = tracer.time("hdc.item_memory_init", || {
            SpecHd::new(JobConfig::default().pipeline_config())
        });
        let mut store = engine.new_store_keeping_rows().expect("fresh store");
        tracer
            .time("core.base_archive", || {
                engine.run_incremental(&mut store, &input.base)
            })
            .expect("build the base archive");
        tracer
            .time("store.save", || store.save(&pristine))
            .expect("save the base archive");
        let server = tracer.time("server.bind_spawn", || {
            Server::bind(
                "127.0.0.1:0",
                ServerConfig {
                    store_dir: Some(dir.clone()),
                    // A dropped session frees its store at once.
                    rejoin_grace: Duration::ZERO,
                    ..ServerConfig::default()
                },
            )
            .and_then(Server::spawn)
            .expect("bind and spawn the in-process server")
        });
        State {
            server,
            dir,
            pristine,
            engine,
            serial: 0,
        }
    }

    fn repetition(input: &Input, state: &mut State) -> Output {
        let (name, store_file) = state.fresh_store();
        let acks = input
            .installments
            .iter()
            .map(|installment| {
                let mut client = state.connect(&name)?;
                let ack = client.submit_incremental(installment.clone())?;
                client.persist()?;
                Ok(ack_digest(&ack))
            })
            .map(|session: Result<u64, spechd_server::ClientError>| {
                session
                    .map_err(|e| eprintln!("[served_incremental] session failed: {e}"))
                    .ok()
            })
            .collect();
        Output { store_file, acks }
    }

    fn check(input: &Input, state: &mut State, outputs: &[Output]) -> Checks {
        // The library twin: the same installments folded into the same
        // archive with `run_incremental`, no server.
        let mut store = ClusterStore::load(&state.pristine).expect("load the pristine archive");
        let expected: Vec<u64> = input
            .installments
            .iter()
            .map(|installment| {
                let out = state
                    .engine
                    .run_incremental(
                        &mut store,
                        &SpectrumDataset::from_spectra(installment.clone()),
                    )
                    .expect("library installment");
                ack_digest(&IncrementalAckFrame {
                    name: String::new(),
                    seq: 0,
                    base_id: out.base_id(),
                    kept: out.kept().iter().map(|&k| k as u32).collect(),
                    labels: out.installment_labels().iter().map(|&l| l as u64).collect(),
                    absorbed: out.stats().absorbed as u64,
                    residual: out.stats().residual as u64,
                    new_clusters: out.stats().new_clusters as u64,
                    total_spectra: store.next_spectrum_id(),
                    total_clusters: store.num_clusters() as u64,
                })
            })
            .collect();
        let expected_bytes = store.to_bytes();

        let mut checks = Checks::default();
        for (rep, out) in outputs.iter().enumerate() {
            for (session, (got, want)) in out.acks.iter().zip(&expected).enumerate() {
                checks.record(*got == Some(*want), || {
                    format!("rep {rep} session {session}: ack differs from run_incremental's")
                });
            }
            let persisted = std::fs::read(&out.store_file).unwrap_or_default();
            checks.record(persisted == expected_bytes, || {
                format!("rep {rep}: persisted SHPK bytes differ from the library twin's")
            });
        }
        checks
    }

    fn trace(
        input: &Input,
        state: &mut State,
        tracer: &mut Tracer,
        reps: usize,
        layers: &mut LayerMetrics,
    ) -> Vec<f64> {
        let mut walls = Vec::with_capacity(reps);
        let mut threads_peak = thread_count();
        for rep in 1..=reps {
            tracer.set_rep(rep as u32);
            let t = Instant::now();
            let (name, _path) = tracer.time("store.copy_pristine", || state.fresh_store());
            for installment in &input.installments {
                let session = tracer.enter("server.session");
                let mut client = tracer
                    .time("server.open_store", || state.connect(&name))
                    .expect("open store");
                tracer
                    .time("server.submit_incremental", || {
                        client.submit_incremental(installment.clone())
                    })
                    .expect("served installment");
                tracer
                    .time("server.persist", || client.persist())
                    .expect("persist");
                threads_peak = threads_peak.max(thread_count());
                drop(client);
                tracer.exit(session);
            }
            walls.push(t.elapsed().as_secs_f64());
        }

        // The library twin of one repetition, stage by stage: what the
        // server's store session does between the frames.
        let twin_rep = reps as u32 + 1;
        tracer.set_rep(twin_rep);
        let engine = &state.engine;
        let scorer = PackedDistanceEngine::new().threads(1);
        let twin_file = state.dir.join("twin.shpk");
        let twin = tracer.enter("core.incremental_twin");
        let mut store = tracer
            .time("store.load", || ClusterStore::load(&state.pristine))
            .expect("load the pristine archive");
        let (mut kept, mut absorbed, mut peaks) = (0usize, 0usize, 0usize);
        for installment in &input.installments {
            let dataset = SpectrumDataset::from_spectra(installment.clone());
            // The encode and medoid-scoring shares of the installment,
            // measured on the store state `run_incremental` is about to see.
            let pre = tracer.time("preprocess.run", || engine.preprocess().run(&dataset));
            let pack = tracer.time("hdc.encode", || engine.encode_dataset_packed(&pre.dataset));
            peaks += pre.stats.peaks_out;
            for bucket in engine.bucketer().bucketize(pre.dataset.spectra()) {
                if let Some(stored) = store.bucket(bucket.key) {
                    for &row in &bucket.members {
                        let query = pack.hypervector(row);
                        tracer.time("hdc.one_to_many_medoid", || {
                            std::hint::black_box(scorer.one_to_many(&query, stored.medoids()))
                        });
                    }
                }
            }
            let out = tracer
                .time("core.run_incremental", || {
                    engine.run_incremental(&mut store, &dataset)
                })
                .expect("library installment");
            kept += out.stats().spectra_kept;
            absorbed += out.stats().absorbed;
            tracer
                .time("store.save", || store.save(&twin_file))
                .expect("save the twin");
            // What the next session's server would do had it not kept
            // the store resident.
            tracer
                .time("store.load", || ClusterStore::load(&twin_file))
                .expect("reload the twin");
        }
        tracer.exit(twin);

        let time_ms = |call: &dyn Fn()| {
            median(
                &(0..5)
                    .map(|_| {
                        let t = Instant::now();
                        call();
                        t.elapsed().as_secs_f64() * 1e3
                    })
                    .collect::<Vec<_>>(),
            )
        };
        let bytes = store.to_bytes();
        let to_bytes_ms = time_ms(&|| drop(std::hint::black_box(store.to_bytes())));
        let from_bytes_ms =
            time_ms(&|| drop(std::hint::black_box(ClusterStore::from_bytes(&bytes))));
        let spectra_stored = store.next_spectrum_id() as f64;
        let t = Instant::now();
        engine
            .refresh_store(&mut store)
            .expect("refresh the grown archive");
        let refresh_s = t.elapsed().as_secs_f64();

        let ms_p50 = |name: &str| median(&tracer.durations_s(name)) * 1e3;
        let served_s = fastest(&walls);
        let save_ms = ms_p50("store.save");
        let load_ms = ms_p50("store.load");
        let encode_s = tracer.total_s("hdc.encode", twin_rep);
        layers.insert(
            "hdc.item_memory_init_s",
            tracer.total_s("hdc.item_memory_init", 0),
        );
        layers.insert(
            "preprocess.run_s",
            tracer.total_s("preprocess.run", twin_rep),
        );
        layers.insert("hdc.encode_s", encode_s);
        layers.insert("hdc.encode_peaks", peaks as f64);
        layers.insert("hdc.encode_ns_per_peak", encode_s * 1e9 / peaks as f64);
        layers.insert("hdc.encode_share", encode_s / served_s);
        layers.insert(
            "hdc.one_to_many_medoid_s",
            tracer.total_s("hdc.one_to_many_medoid", twin_rep),
        );
        layers.insert("core.incremental_ms_p50", ms_p50("core.run_incremental"));
        layers.insert("core.absorbed_ratio", absorbed as f64 / kept as f64);
        layers.insert("core.refresh_s", refresh_s);
        layers.insert("store.load_ms_p50", load_ms);
        layers.insert("store.save_ms_p50", save_ms);
        layers.insert(
            "store.save_mb_per_s",
            bytes.len() as f64 / 1e6 / (save_ms / 1e3),
        );
        layers.insert("store.to_bytes_ms", to_bytes_ms);
        layers.insert("store.from_bytes_ms", from_bytes_ms);
        layers.insert("store.file_mb", bytes.len() as f64 / (1u64 << 20) as f64);
        layers.insert(
            "store.bytes_per_spectrum",
            bytes.len() as f64 / spectra_stored,
        );
        // One load and SESSIONS saves per repetition.
        layers.insert(
            "store.share",
            (load_ms + save_ms * SESSIONS as f64) / 1e3 / served_s,
        );
        layers.insert("server.open_store_ms_p50", ms_p50("server.open_store"));
        layers.insert(
            "server.submit_incremental_ms_p50",
            ms_p50("server.submit_incremental"),
        );
        layers.insert("server.persist_ms_p50", ms_p50("server.persist"));
        // The twin of a served repetition: one load, then an installment
        // and a save per session.
        let twin_s = load_ms / 1e3
            + tracer.total_s("core.run_incremental", twin_rep)
            + tracer.total_s("store.save", twin_rep);
        layers.insert("server.overhead_ratio_incremental", served_s / twin_s);
        layers.insert("server.threads_peak", threads_peak);
        walls
    }

    fn teardown(state: State) {
        state.server.shutdown();
        let _ = std::fs::remove_dir_all(&state.dir);
    }
}
