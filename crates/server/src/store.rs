//! Store sessions: exclusive, resumable write sessions over persistent
//! incremental cluster stores.
//!
//! A *store* is a named server-side [`ClusterStore`] plus the
//! [`SpecHd`] engine its config describes. Unlike jobs — shared streams
//! any number of participants append to — a store admits **one writer
//! at a time**: `OpenStore` binds the connection to the store's single
//! session slot, and a second client asking for the same store is shed
//! with the retryable [`ErrorCode::StoreBusy`] until the holder
//! disconnects (plus the rejoin grace). Exclusivity is what makes the
//! served incremental path bit-identical to a library
//! [`run_incremental`](SpecHd::run_incremental) loop: installments
//! apply in exactly the order one client sent them, with no
//! interleaving to re-order absorption.
//!
//! ## Resume
//!
//! The session slot follows the reconnect contract of `session` —
//! sequence-numbered installments, duplicate re-ack, rejoin grace,
//! newest connection wins — so a half-dead socket never wedges a store.
//! What this module adds is exclusivity: the slot belongs to one
//! `client_id`, and until it is released (disconnect plus grace) every
//! other client is shed. Nothing runs when the grace ends: the next
//! `OpenStore` finds the slot lapsed and treats the store as free.
//!
//! ## Persistence
//!
//! When the server is given a store directory, `OpenStore` first tries
//! [`ClusterStore::load_or_recover`] on `<dir>/<name>.shpk` (the
//! crash-safe read side of the PR 9 durability path), and
//! `PersistStore` saves through [`ClusterStore::save`] (the atomic
//! tmp → fsync → backup-rotate → rename write side). Without a store
//! directory the store is memory-only and `PersistStore` is refused.
//!
//! ## Residency
//!
//! An opened store stays in memory while it is *busy*, and leaves once
//! it is *idle*: no connection holds it, its session has lapsed its
//! rejoin grace, and reloading its `<name>.shpk` gives its archive back
//! (it was loaded from that file, found none, or persisted since, and is
//! not dirty). Every `OpenStore` first drops every idle store but the
//! one it opens. An idle store opened again comes back through
//! `load_or_recover`, bit for bit what left (SHPK re-saves
//! bit-identically). A memory-only store is never idle.
//!
//! A store is bound to its dim and config fingerprint, not to the whole
//! `OpenStore` config: a later `OpenStore` whose config fingerprints
//! differently is refused with [`ErrorCode::ConfigMismatch`], whether
//! the store is resident or loaded from disk
//! ([`ClusterStore::ensure_compatible`]), and one that differs only in
//! `workers` or `watermark` is accepted either way.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use spechd_core::{ClusterStore, SpecHd, SpecHdError, StoreError};
use spechd_ms::{Spectrum, SpectrumDataset};

use crate::job::JobError;
use crate::protocol::{ErrorCode, IncrementalAckFrame, JobConfig, StoreAckFrame};
use crate::session::{lock, try_lock, Slot, Table};

/// Maps a store-layer failure to the wire error code a client should
/// see: config/fingerprint disagreements are [`ErrorCode::ConfigMismatch`],
/// I/O trouble is the retryable [`ErrorCode::StoreBusy`] (the file may
/// be readable or writable a moment later), and structural corruption
/// is fatal [`ErrorCode::ProtocolState`].
fn store_error_code(e: &StoreError) -> ErrorCode {
    match e {
        StoreError::DimMismatch { .. } | StoreError::ConfigMismatch { .. } => {
            ErrorCode::ConfigMismatch
        }
        StoreError::Io { .. } => ErrorCode::StoreBusy,
        _ => ErrorCode::ProtocolState,
    }
}

fn store_error(e: &SpecHdError) -> JobError {
    let code = match e {
        SpecHdError::Store(s) => store_error_code(s),
        SpecHdError::Config(_) => ErrorCode::ConfigMismatch,
    };
    JobError::new(code, format!("store: {e}"))
}

/// The single write session a store admits at a time.
struct SessionSlot {
    /// Owner of the slot; survives the TCP connection.
    client_id: u64,
    slot: Slot<IncrementalAckFrame>,
}

/// The archive of one store and the engine it grows through.
struct Archive {
    store: ClusterStore,
    engine: SpecHd,
    /// Absorptions or refreshes since the last successful persist.
    dirty: bool,
    /// Reloading the backing file gives this archive back while it is
    /// not dirty: it was loaded from the primary file, found no file at
    /// all, or persisted since.
    reloadable: bool,
}

/// Mutable state of one store: the archive and the session.
struct StoreState {
    archive: Archive,
    session: Option<SessionSlot>,
}

/// One named store resident in the registry.
struct StoreEntry {
    name: String,
    /// Backing file, when the server has a store directory.
    path: Option<PathBuf>,
    /// The dim and config fingerprint the archive is bound to: what
    /// [`ClusterStore::ensure_compatible`] checks on a reload.
    binding: (usize, u64),
    state: Mutex<StoreState>,
}

impl StoreEntry {
    /// Whether the store is idle, given that no thread holds the entry:
    /// its session has lapsed (a session is absent only while the
    /// opening thread holds the entry) and a reload gives its archive
    /// back.
    fn idle(&self, grace: Duration) -> bool {
        try_lock(&self.state).is_some_and(|state| {
            let archive = &state.archive;
            let lapsed = state.session.as_ref().is_some_and(|s| s.slot.lapsed(grace));
            lapsed && archive.reloadable && !archive.dirty
        })
    }
}

/// Owns every store resident on this server, by name.
///
/// A store is created on the `OpenStore` that finds it absent (loading
/// the backing file when one exists) and stays resident until an
/// `OpenStore` of another store finds it idle (see the module docs).
/// Until then the in-memory archive is the continuation state that makes
/// a later session's labels extend the earlier session's verbatim;
/// after, its backing file is.
pub(crate) struct StoreRegistry {
    stores: Table<String, StoreEntry>,
    /// Directory of `<name>.shpk` backing files; `None` = memory-only.
    dir: Option<PathBuf>,
    rejoin_grace: Duration,
}

impl StoreRegistry {
    /// Creates an empty registry. `dir` is the backing directory for
    /// `<name>.shpk` files (`None` disables persistence), a
    /// disconnected session survives `rejoin_grace` for the same
    /// `client_id` to resume, and at most `max_stores` stores may be
    /// resident (one more is shed with retryable
    /// [`ErrorCode::StoreBusy`]).
    pub(crate) fn new(dir: Option<PathBuf>, rejoin_grace: Duration, max_stores: usize) -> Self {
        Self {
            stores: Table::new(max_stores, ErrorCode::StoreBusy, "stores"),
            dir,
            rejoin_grace,
        }
    }

    /// Opens `name` for `client_id`, creating or loading the store on
    /// first open, and claims its exclusive session slot.
    ///
    /// * A store held by a *different* client is refused with the
    ///   retryable [`ErrorCode::StoreBusy`], until the holder's session
    ///   has been detached for the rejoin grace.
    /// * The *same* client rejoining (reconnect inside the grace, or a
    ///   slot-steal while the old connection reads attached) resumes
    ///   its session: sequence numbering and the duplicate-ack record
    ///   carry over.
    /// * A config whose dim or fingerprint differs from the one the
    ///   store was opened (or persisted) with is refused with
    ///   [`ErrorCode::ConfigMismatch`].
    ///
    /// First it drops every idle store but `name`.
    pub(crate) fn open(
        &self,
        name: &str,
        client_id: u64,
        config: &JobConfig,
    ) -> Result<StoreSessionHandle, JobError> {
        self.stores.remove_where(|entry| {
            entry.name != name && Arc::strong_count(entry) == 1 && entry.idle(self.rejoin_grace)
        });
        let pipeline = config.pipeline_config();
        let binding = (pipeline.encoder.dim, pipeline.fingerprint());
        let join = |entry: &StoreEntry| match entry.binding == binding {
            true => Ok(()),
            false => Err(JobError::new(
                ErrorCode::ConfigMismatch,
                format!("store {name} is bound to a different clustering config"),
            )),
        };
        let entry = self
            .stores
            .open(name.to_string(), join, || self.create(name, config))?;
        let mut state = lock(&entry.state);
        let session = state
            .session
            .as_mut()
            .filter(|session| !session.slot.lapsed(self.rejoin_grace));
        let epoch = match session {
            Some(session) if session.client_id != client_id => {
                return Err(JobError::new(
                    ErrorCode::StoreBusy,
                    format!("store {name} has an active write session for another client"),
                ));
            }
            // Same participant back (resume or slot steal).
            Some(session) => session.slot.rejoin(),
            None => {
                state.session = Some(SessionSlot {
                    client_id,
                    slot: Slot::new(),
                });
                0
            }
        };
        drop(state);
        Ok(StoreSessionHandle {
            entry,
            client_id,
            epoch,
        })
    }

    /// Builds a new entry's engine and loads its backing file, if any:
    /// exactly once per store.
    fn create(&self, name: &str, config: &JobConfig) -> Result<StoreEntry, JobError> {
        let engine = SpecHd::try_new(config.pipeline_config())
            .map_err(|e| store_error(&SpecHdError::Config(e)))?;
        let path = self
            .dir
            .as_ref()
            .map(|dir| dir.join(format!("{name}.shpk")));
        let (store, reloadable) = match path.as_deref() {
            Some(p) => load_or_create(&engine, p)?,
            None => (fresh_store(&engine)?, false),
        };
        Ok(StoreEntry {
            name: name.to_string(),
            path,
            binding: (engine.encoder().dim(), engine.config().fingerprint()),
            state: Mutex::new(StoreState {
                archive: Archive {
                    store,
                    engine,
                    dirty: false,
                    reloadable,
                },
                session: None,
            }),
        })
    }
}

/// A fresh row-keeping store for `engine`.
fn fresh_store(engine: &SpecHd) -> Result<ClusterStore, JobError> {
    engine.new_store_keeping_rows().map_err(|e| store_error(&e))
}

/// Loads the backing file (with crash recovery), or creates a fresh
/// row-keeping store when it was never persisted. A loaded store must
/// match the engine's dim and config fingerprint. The flag is whether
/// a reload gives the store back: it was not recovered from a backup.
fn load_or_create(engine: &SpecHd, path: &Path) -> Result<(ClusterStore, bool), JobError> {
    match ClusterStore::load_or_recover(path) {
        Ok((store, report)) => {
            store
                .ensure_compatible(engine.encoder().dim(), engine.config().fingerprint())
                .map_err(|e| store_error(&SpecHdError::Store(e)))?;
            Ok((store, !report.recovered()))
        }
        // Recovery reports a not-found only when neither the primary nor
        // a backup exists (a lone torn `.tmp` is a crashed first save):
        // the store was never persisted, so start fresh. A lost primary
        // beside a backup reports the backup's error instead.
        Err(StoreError::Io { ref source, .. }) if source.kind() == std::io::ErrorKind::NotFound => {
            Ok((fresh_store(engine)?, true))
        }
        Err(e) => Err(store_error(&SpecHdError::Store(e))),
    }
}

/// One connection's claim on a store's write session.
///
/// Dropping the handle (connection gone) *detaches* the session rather
/// than ending it: the slot survives the rejoin grace for the same
/// client to reconnect and resume, after which the store is free for
/// any client.
pub(crate) struct StoreSessionHandle {
    entry: Arc<StoreEntry>,
    client_id: u64,
    epoch: u64,
}

impl std::fmt::Debug for StoreSessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSessionHandle")
            .field("name", &self.entry.name)
            .field("client_id", &self.client_id)
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl StoreSessionHandle {
    /// The store's name.
    pub(crate) fn name(&self) -> &str {
        &self.entry.name
    }

    /// The session owner's client id.
    pub(crate) fn client_id(&self) -> u64 {
        self.client_id
    }

    /// Runs `op` on the archive and this handle's session slot, iff the
    /// handle still owns the session.
    fn owned<T>(
        &self,
        op: impl FnOnce(&mut Archive, &mut Slot<IncrementalAckFrame>) -> Result<T, JobError>,
    ) -> Result<T, JobError> {
        let mut state = lock(&self.entry.state);
        let StoreState { archive, session } = &mut *state;
        match session {
            Some(s) if s.client_id == self.client_id && s.slot.owned_by(self.epoch) => {
                op(archive, &mut s.slot)
            }
            _ => Err(JobError::state(format!(
                "store session for {} was superseded",
                self.entry.name
            ))),
        }
    }

    /// Ingests one sequence-numbered installment through the store's
    /// engine. A duplicate of the last acknowledged `seq` is re-acked
    /// verbatim without re-ingesting (resume idempotency); any other
    /// out-of-order `seq` is a fatal protocol error.
    pub(crate) fn submit_incremental(
        &self,
        seq: u64,
        spectra: Vec<Spectrum>,
    ) -> Result<IncrementalAckFrame, JobError> {
        self.owned(|archive, slot| {
            if let Some(ack) = slot.admit(self.epoch, seq)? {
                return Ok(ack);
            }
            let dataset = SpectrumDataset::from_spectra(spectra);
            let outcome = archive
                .engine
                .run_incremental(&mut archive.store, &dataset)
                .map_err(|e| store_error(&e))?;
            let stats = outcome.stats();
            let ack = IncrementalAckFrame {
                name: self.entry.name.clone(),
                seq,
                base_id: outcome.base_id(),
                kept: outcome.kept().iter().map(|&i| i as u32).collect(),
                labels: outcome
                    .installment_labels()
                    .iter()
                    .map(|&l| l as u64)
                    .collect(),
                absorbed: stats.absorbed as u64,
                residual: stats.residual as u64,
                new_clusters: stats.new_clusters as u64,
                total_spectra: archive.store.next_spectrum_id(),
                total_clusters: archive.store.num_clusters() as u64,
            };
            archive.dirty = true;
            slot.record(seq, ack.clone());
            Ok(ack)
        })
    }

    /// Saves the store to its backing file through the atomic
    /// durability path. Refused (fatal) when the server has no store
    /// directory; a failed save is retryable
    /// ([`ErrorCode::StoreBusy`]) and leaves any previous replica
    /// intact.
    pub(crate) fn persist(&self) -> Result<StoreAckFrame, JobError> {
        self.owned(|archive, _| {
            let Some(path) = self.entry.path.as_deref() else {
                return Err(JobError::state(format!(
                    "store {} cannot persist: server has no store directory",
                    self.entry.name
                )));
            };
            archive.store.save(path).map_err(|e| {
                let message = format!("store {} save failed: {e}", self.entry.name);
                JobError::new(ErrorCode::StoreBusy, message)
            })?;
            archive.dirty = false;
            archive.reloadable = true;
            Ok(self.ack(archive, 1, 0, 0))
        })
    }

    /// A point-in-time snapshot of the store's shape and session state.
    pub(crate) fn stats(&self) -> Result<StoreAckFrame, JobError> {
        self.owned(|archive, _| Ok(self.ack(archive, 0, 0, 0)))
    }

    /// Runs the medoid refresh / compaction pass
    /// ([`SpecHd::refresh_store`]) on the store. Sits outside the
    /// stable-label contract: labels may merge. Refused (fatal) on a
    /// store loaded without member rows.
    pub(crate) fn refresh(&self) -> Result<StoreAckFrame, JobError> {
        self.owned(|archive, _| {
            let report = archive
                .engine
                .refresh_store(&mut archive.store)
                .map_err(|e| store_error(&e))?;
            if report.refreshed > 0 || report.merged > 0 {
                archive.dirty = true;
            }
            Ok(self.ack(archive, 0, report.refreshed, report.merged))
        })
    }

    fn ack(&self, archive: &Archive, persisted: u8, refreshed: u64, merged: u64) -> StoreAckFrame {
        let store = &archive.store;
        StoreAckFrame {
            name: self.entry.name.clone(),
            dim: store.dim() as u32,
            fingerprint: store.fingerprint(),
            spectra: store.next_spectrum_id(),
            buckets: store.num_buckets() as u64,
            clusters: store.num_clusters() as u64,
            keeps_member_rows: u8::from(store.keeps_member_rows()),
            dirty: u8::from(archive.dirty),
            persisted,
            refreshed,
            merged,
        }
    }
}

impl Drop for StoreSessionHandle {
    fn drop(&mut self) {
        // Starts the session's rejoin grace, unless a newer connection
        // already holds it.
        let mut state = lock(&self.entry.state);
        if let Some(session) = state.session.as_mut() {
            if session.client_id == self.client_id {
                session.slot.detach(self.epoch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};

    fn spectra(n: usize, seed: u64) -> Vec<Spectrum> {
        let dataset = SyntheticGenerator::new(SyntheticConfig {
            num_spectra: n,
            num_peptides: (n / 3).max(2),
            seed,
            ..SyntheticConfig::default()
        })
        .generate();
        dataset.spectra().to_vec()
    }

    fn registry(dir: Option<PathBuf>) -> StoreRegistry {
        StoreRegistry::new(dir, Duration::ZERO, 8)
    }

    /// A fresh directory under the system temp dir, unique per test.
    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "spechd-store-reg-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn exclusive_session_busy_then_free_after_drop() {
        let reg = registry(None);
        let config = JobConfig::default();
        let h1 = reg.open("a", 1, &config).expect("first open");
        let busy = reg.open("a", 2, &config).expect_err("second client");
        assert_eq!(busy.code, ErrorCode::StoreBusy);
        assert!(busy.code.is_retryable());
        drop(h1);
        // Zero grace: the drop freed the slot immediately.
        reg.open("a", 2, &config).expect("open after release");
    }

    #[test]
    fn same_client_rejoin_resumes_sequence_and_reack() {
        let reg = registry(None);
        let config = JobConfig::default();
        let h1 = reg.open("a", 7, &config).expect("open");
        let ack0 = h1.submit_incremental(0, spectra(12, 1)).expect("seq 0");
        // Steal: same client re-opens while h1 still reads attached.
        let h2 = reg.open("a", 7, &config).expect("rejoin");
        // The zombie handle is superseded.
        let err = h1.submit_incremental(1, vec![]).expect_err("zombie");
        assert_eq!(err.code, ErrorCode::ProtocolState);
        // The duplicate seq is re-acked verbatim, not re-ingested.
        let replay = h2.submit_incremental(0, vec![]).expect("dup re-ack");
        assert_eq!(replay, ack0);
        // And the stream continues where it left off.
        let ack1 = h2.submit_incremental(1, spectra(8, 2)).expect("seq 1");
        assert_eq!(ack1.base_id, ack0.total_spectra);
        // Zombie drop must not free the live session.
        drop(h1);
        h2.stats().expect("session still live after zombie drop");
    }

    #[test]
    fn out_of_order_seq_is_fatal() {
        let reg = registry(None);
        let h = reg.open("a", 1, &JobConfig::default()).expect("open");
        let err = h.submit_incremental(3, spectra(4, 3)).expect_err("gap");
        assert_eq!(err.code, ErrorCode::ProtocolState);
        assert!(err.message.contains("out-of-order"));
    }

    #[test]
    fn config_mismatch_is_refused() {
        let reg = registry(None);
        let config = JobConfig::default();
        let _h = reg.open("a", 1, &config).expect("open");
        drop(_h);
        let other = JobConfig {
            resolution: config.resolution * 2.0,
            ..config
        };
        let err = reg.open("a", 1, &other).expect_err("other config");
        assert_eq!(err.code, ErrorCode::ConfigMismatch);
    }

    #[test]
    fn out_of_range_config_is_refused_without_a_store() {
        let reg = registry(None);
        let config = JobConfig {
            threshold_fraction: 1.5,
            ..JobConfig::default()
        };
        let Err(err) = reg.open("a", 1, &config) else {
            panic!("a threshold fraction above 1 opened a store");
        };
        assert_eq!(err.code, ErrorCode::ConfigMismatch);
        assert_eq!(reg.stores.len(), 0);
    }

    #[test]
    fn memory_only_store_refuses_persist() {
        let reg = registry(None);
        let h = reg.open("a", 1, &JobConfig::default()).expect("open");
        let err = h.persist().expect_err("no store dir");
        assert_eq!(err.code, ErrorCode::ProtocolState);
        assert!(err.message.contains("store directory"));
    }

    #[test]
    fn persist_then_reload_round_trips_through_disk() {
        let dir = temp_dir("pers");
        let config = JobConfig::default();
        let ack = {
            let reg = registry(Some(dir.clone()));
            let h = reg.open("pers", 9, &config).expect("open");
            h.submit_incremental(0, spectra(20, 4)).expect("ingest");
            let ack = h.persist().expect("persist");
            assert_eq!(ack.persisted, 1);
            assert_eq!(ack.dirty, 0);
            ack
        };
        // A fresh registry (server restart) loads the persisted file.
        let reg = registry(Some(dir.clone()));
        let h = reg.open("pers", 9, &config).expect("reopen");
        let stats = h.stats().expect("stats");
        assert_eq!(stats.spectra, ack.spectra);
        assert_eq!(stats.clusters, ack.clusters);
        assert_eq!(stats.fingerprint, ack.fingerprint);
        assert_eq!(stats.keeps_member_rows, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A lost primary beside a damaged backup is refused, not reopened
    /// as an empty store that the next persist would write over it.
    #[test]
    fn lost_archive_is_refused_and_left_untouched() {
        let dir = temp_dir("lost");
        let config = JobConfig::default();
        {
            let reg = registry(Some(dir.clone()));
            let h = reg.open("lost", 3, &config).expect("open");
            h.submit_incremental(0, spectra(20, 6)).expect("ingest");
            h.persist().expect("first persist");
            h.submit_incremental(1, spectra(10, 7)).expect("ingest");
            h.persist().expect("second persist rotates a backup");
        }
        let primary = dir.join("lost.shpk");
        let backup = dir.join("lost.shpk.bak");
        std::fs::remove_file(&primary).expect("lose the primary");
        let mut damaged = std::fs::read(&backup).expect("backup");
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x04;
        std::fs::write(&backup, &damaged).expect("damage the backup");

        let err = registry(Some(dir.clone()))
            .open("lost", 3, &config)
            .expect_err("a damaged archive must not reopen empty");
        assert_eq!(err.code, ErrorCode::ProtocolState, "{}", err.message);
        assert_eq!(std::fs::read(&backup).expect("backup"), damaged);
        assert!(!primary.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A lone torn `.tmp` is a first save that crashed before its commit:
    /// nothing was ever persisted, so the store opens fresh.
    #[test]
    fn torn_first_save_opens_a_fresh_store() {
        let dir = temp_dir("torn");
        let config = JobConfig::default();
        let valid = SpecHd::try_new(config.pipeline_config())
            .expect("engine")
            .new_store_keeping_rows()
            .expect("store")
            .to_bytes();
        std::fs::write(dir.join("torn.shpk.tmp"), &valid[..10]).expect("plant");

        let h = registry(Some(dir.clone()))
            .open("torn", 1, &config)
            .expect("a torn first save opens fresh");
        assert_eq!(h.stats().expect("stats").spectra, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refresh_reports_counts_and_marks_dirty() {
        let reg = registry(None);
        let h = reg.open("a", 1, &JobConfig::default()).expect("open");
        h.submit_incremental(0, spectra(30, 5)).expect("ingest");
        let ack = h.refresh().expect("refresh");
        // Counters are whatever the pass found; the frame carries them.
        let stats = h.stats().expect("stats");
        assert_eq!(stats.clusters + ack.merged, ack.clusters + ack.merged);
    }

    /// One session of `client` on `name`: an installment of 12 spectra
    /// at `seed`, persisted when the registry has a store directory,
    /// then dropped. Returns the installment's ack.
    fn session(reg: &StoreRegistry, name: &str, client: u64, seed: u64) -> IncrementalAckFrame {
        let h = reg.open(name, client, &JobConfig::default()).expect("open");
        let ack = h.submit_incremental(0, spectra(12, seed)).expect("submit");
        if reg.dir.is_some() {
            h.persist().expect("persist");
        }
        ack
    }

    fn resident(reg: &StoreRegistry, name: &str) -> bool {
        reg.stores.entries().iter().any(|entry| entry.name == name)
    }

    #[test]
    fn a_resident_store_takes_a_reopen_that_differs_only_in_workers() {
        let reg = registry(None);
        let config = JobConfig::default();
        drop(reg.open("a", 1, &config).expect("open"));
        let other = JobConfig {
            workers: config.workers + 1,
            watermark: config.watermark + 1,
            ..config
        };
        reg.open("a", 1, &other)
            .expect("the same dim and fingerprint");
    }

    #[test]
    fn a_capped_registry_takes_any_number_of_stores_in_turn() {
        let dir = temp_dir("cap");
        let reg = StoreRegistry::new(Some(dir.clone()), Duration::ZERO, 2);
        for (i, name) in ["a", "b", "c", "d", "e"].into_iter().enumerate() {
            session(&reg, name, i as u64, 60 + i as u64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stores_opened_in_turn_leave_only_the_last_resident() {
        let dir = temp_dir("ten");
        let reg = registry(Some(dir.clone()));
        for i in 0..10 {
            session(&reg, &format!("s{i}"), i, 70 + i);
        }
        assert_eq!(reg.stores.len(), 1);
        // The store being opened is never dropped first: with its file
        // gone, s9 still continues from memory.
        std::fs::remove_file(dir.join("s9.shpk")).expect("remove s9's file");
        let again = reg.open("s9", 9, &JobConfig::default()).expect("reopen");
        assert_eq!(again.stats().expect("stats").spectra, 12);
        drop(again);
        // Opened and dropped without a submit, a store never wrote its
        // file, and a reload gives the same fresh store back: past the
        // cap of 8 these too must leave.
        let config = JobConfig::default();
        for i in 0..10 {
            let opened = reg.open(&format!("empty{i}"), 20 + i, &config);
            drop(opened.expect("open"));
        }
        assert_eq!(reg.stores.len(), 1);
        assert!(resident(&reg, "empty9"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An evicted store reopened from its file acks and persists exactly
    /// what a store that stayed resident does.
    #[test]
    fn an_evicted_store_reopens_as_if_it_had_stayed() {
        let dirs = [temp_dir("kept"), temp_dir("evicted")];
        let [kept, evicted] = dirs.clone().map(|dir| registry(Some(dir)));
        for reg in [&kept, &evicted] {
            session(reg, "x", 1, 20);
        }
        session(&evicted, "y", 2, 21);
        session(&evicted, "z", 3, 22);
        assert!(resident(&kept, "x"));
        assert!(!resident(&evicted, "x"), "x was not evicted");

        let acks = [&kept, &evicted].map(|reg| session(reg, "x", 4, 23));
        assert_eq!(acks[0], acks[1]);
        let [a, b] = dirs
            .each_ref()
            .map(|dir| std::fs::read(dir.join("x.shpk")).expect("read"));
        assert_eq!(a, b, "persisted bytes differ");
        dirs.iter()
            .for_each(|dir| drop(std::fs::remove_dir_all(dir)));
    }

    /// Opening other stores drops none of these, since none is idle: a
    /// store a live handle holds (also one whose slot its own client took
    /// over and released), a dirty one, one detached inside its rejoin
    /// grace, and a memory-only one.
    #[test]
    fn busy_stores_are_never_evicted() {
        let config = JobConfig::default();
        let others = |reg: &StoreRegistry| {
            for (i, name) in ["a", "b", "c", "d"].into_iter().enumerate() {
                session(reg, name, 10 + i as u64, 50 + i as u64);
            }
        };

        let dir = temp_dir("busy");
        let reg = registry(Some(dir.clone()));
        let held = reg.open("held", 1, &config).expect("open");
        held.submit_incremental(0, spectra(12, 40)).expect("submit");
        held.persist().expect("persist");
        let zombie = reg.open("zombie", 4, &config).expect("open");
        session(&reg, "zombie", 4, 46);
        let dirty = reg.open("dirty", 2, &config).expect("open");
        dirty
            .submit_incremental(0, spectra(12, 41))
            .expect("submit");
        dirty.persist().expect("persist");
        let unsaved = dirty
            .submit_incremental(1, spectra(12, 42))
            .expect("submit");
        drop(dirty);
        others(&reg);
        assert!(resident(&reg, "held") && resident(&reg, "zombie"));
        drop(zombie);
        held.submit_incremental(1, spectra(8, 43))
            .expect("the held store is live");
        let reopened = reg.open("dirty", 3, &config).expect("reopen");
        let stats = reopened.stats().expect("stats");
        assert_eq!(
            stats.spectra, unsaved.total_spectra,
            "the unsaved installment is lost"
        );

        let graced = StoreRegistry::new(Some(dir.clone()), Duration::from_secs(60), 8);
        let detached = session(&graced, "graced", 5, 44);
        others(&graced);
        let back = graced.open("graced", 5, &config).expect("rejoin");
        let replay = back.submit_incremental(0, vec![]).expect("duplicate seq");
        assert_eq!(replay, detached, "the session did not survive");

        let memory = registry(None);
        let only = session(&memory, "memory", 6, 45);
        others(&memory);
        let reopened = memory.open("memory", 7, &config).expect("reopen");
        assert_eq!(reopened.stats().expect("stats").spectra, only.total_spectra);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A store recovered from its backup is not what its primary file
    /// holds, so it stays until it is persisted.
    #[test]
    fn a_recovered_store_stays_resident() {
        let dir = temp_dir("recovered");
        let reg = registry(Some(dir.clone()));
        session(&reg, "r", 1, 47);
        session(&reg, "r", 1, 48);
        let primary = dir.join("r.shpk");
        let mut damaged = std::fs::read(&primary).expect("primary");
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x04;
        std::fs::write(&primary, &damaged).expect("damage the primary");

        let reg = registry(Some(dir.clone()));
        drop(reg.open("r", 2, &JobConfig::default()).expect("recover"));
        session(&reg, "a", 3, 49);
        session(&reg, "b", 4, 50);
        assert!(resident(&reg, "r"), "a recovered store left");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_cap_sheds_with_retryable_busy() {
        let reg = StoreRegistry::new(None, Duration::ZERO, 1);
        let config = JobConfig::default();
        let _h = reg.open("a", 1, &config).expect("first store");
        let err = reg.open("b", 2, &config).expect_err("cap");
        assert_eq!(err.code, ErrorCode::StoreBusy);
    }
}
