//! The dataset table and the fixtures every suite shares: one generator
//! per dataset shape, one way to start a server, one temp directory, one
//! job id, one thread count.

use spechd_ms::stream::sort_dataset_by_mass;
use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
use spechd_ms::SpectrumDataset;
use spechd_server::protocol::{encode_frame, read_frame};
use spechd_server::{
    ClientError, ErrorCode, Frame, LibraryEntryWire, Limits, RunningServer, Server, ServerConfig,
    WireError,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A generator of the dataset table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gen {
    /// `n / 5` peptides, at least 2: the suites' standard dataset.
    Standard,
    /// `n / 6` peptides: the incremental and refresh suites' unions.
    Union,
    /// `n / 4` peptides: the store-eviction suite's installments.
    Dense,
    /// `n / 5` peptides and no noise spectra: the search workloads.
    Clean,
    /// [`SyntheticConfig::hard`]: confusable families and heavy noise.
    Hard,
}

/// One dataset of the table, with the name its comparisons print under.
/// Derefs to its spectra.
#[derive(Debug, Clone)]
pub struct Data {
    /// `Gen(n, seed)` for a generated dataset, or the name a case gave
    /// its own spectra.
    pub name: String,
    config: Option<SyntheticConfig>,
    spectra: SpectrumDataset,
}

impl Data {
    /// `n` spectra from `gen`, deterministic in `seed`.
    pub fn new(gen: Gen, n: usize, seed: u64) -> Self {
        let peptides = |per: usize| SyntheticConfig {
            num_spectra: n,
            num_peptides: (n / per).max(2),
            seed,
            ..SyntheticConfig::default()
        };
        let config = match gen {
            Gen::Standard => peptides(5),
            Gen::Union => peptides(6),
            Gen::Dense => peptides(4),
            Gen::Clean => SyntheticConfig {
                noise_spectrum_fraction: 0.0,
                ..peptides(5)
            },
            Gen::Hard => SyntheticConfig::hard(n, seed),
        };
        Self {
            name: format!("{gen:?}({n}, {seed:#x})"),
            spectra: SyntheticGenerator::new(config.clone()).generate(),
            config: Some(config),
        }
    }

    /// Spectra a case built itself, printed as `name`.
    pub fn custom(name: &str, spectra: SpectrumDataset) -> Self {
        Self {
            name: name.to_string(),
            config: None,
            spectra,
        }
    }

    /// The same spectra in ascending precursor-mass order.
    pub fn sorted(self) -> Self {
        Self::custom(
            &format!("{} sorted", self.name),
            sort_dataset_by_mass(&self.spectra),
        )
    }

    /// The generator behind a generated dataset.
    pub fn generator(&self) -> Option<SyntheticGenerator> {
        self.config.clone().map(SyntheticGenerator::new)
    }
}

impl Deref for Data {
    type Target = SpectrumDataset;

    fn deref(&self) -> &SpectrumDataset {
        &self.spectra
    }
}

/// The spectra of `Data::new(Gen::Standard, n, seed)`.
pub fn synthetic_dataset(n: usize, seed: u64) -> SpectrumDataset {
    Data::new(Gen::Standard, n, seed).spectra
}

/// `k` contiguous installments of `dataset` (the last ones may be short
/// or empty), so kept spectra keep their batch order as global ids.
pub fn installments(dataset: &SpectrumDataset, k: usize) -> Vec<SpectrumDataset> {
    let chunk = dataset.len().div_ceil(k);
    let mut iter = dataset.iter();
    (0..k)
        .map(|_| {
            let mut part = SpectrumDataset::new();
            for (spectrum, label) in iter.by_ref().take(chunk) {
                part.push(spectrum.clone(), label);
            }
            part
        })
        .collect()
}

/// A server on an ephemeral loopback port.
pub fn serve(config: ServerConfig) -> RunningServer {
    Server::bind("127.0.0.1:0", config)
        .and_then(Server::spawn)
        .expect("bind and spawn")
}

/// A server whose stores persist under `dir`, at a `grace` rejoin grace.
pub fn store_server(dir: &Path, grace: Duration) -> RunningServer {
    serve(ServerConfig {
        store_dir: Some(dir.to_path_buf()),
        rejoin_grace: grace,
        ..ServerConfig::default()
    })
}

/// A job id no other test on a shared server picks.
pub fn job_id(tag: u64) -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .as_nanos() as u64
        ^ (tag << 48)
}

/// A fresh directory under the system temp dir, removed on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `spechd-<tag>-<pid>-<nanos>`.
    pub fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("spechd-{tag}-{}-{}", std::process::id(), job_id(0)));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// One 64-bit library entry, for suites that need a search session but
/// no search.
pub fn tiny_entry() -> LibraryEntryWire {
    LibraryEntryWire {
        mass: 500.0,
        charge: 2,
        is_decoy: false,
        id: "e".into(),
        words: vec![0x5A],
    }
}

/// The process's thread count, as the kernel reports it (Linux only).
pub fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a Threads line")
}

/// The thread count once it reads `expected`, or after 5 s of not: a
/// joined thread leaves the kernel's count a moment after the join.
pub fn settle_at(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != expected && Instant::now() < deadline {
        std::thread::yield_now();
    }
    threads()
}

/// Writes `frame` on a raw socket and reads the frame that answers it.
pub fn exchange(stream: &mut TcpStream, frame: &Frame) -> Result<Frame, WireError> {
    stream.write_all(&encode_frame(frame)).expect("write frame");
    read_frame(stream, &Limits::default())
}

/// Asserts `reply` is an error frame carrying `code`.
pub fn expect_error(reply: Result<Frame, WireError>, code: ErrorCode) {
    match reply {
        Ok(Frame::Error { code: got, .. }) => assert_eq!(got, code),
        other => panic!("expected a {code:?} error frame, got {other:?}"),
    }
}

/// Asserts the server closed `stream` with nothing more to read.
pub fn expect_closed(stream: &mut TcpStream) {
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read EOF");
    assert!(rest.is_empty(), "no frames after the fatal error");
}

/// The error a client call must have failed with: a server error frame
/// carrying `code`.
pub fn refused<T>(result: Result<T, ClientError>, code: ErrorCode) -> ClientError {
    match result {
        Err(err @ ClientError::Server { code: got, .. }) if got == code => err,
        Err(other) => panic!("expected a {code:?} refusal, got {other}"),
        Ok(_) => panic!("expected a {code:?} refusal, got success"),
    }
}
