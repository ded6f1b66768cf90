//! Search job lifecycle: shared library loading, seal-on-first-query,
//! and block scoring.
//!
//! A **search job** is a shared [`HvLibrary`]: any number of
//! connections load entry batches into it ([`Frame::LoadLibrary`]
//! opens or joins the job), and the first [`Frame::SearchQuery`]
//! **seals** the library — the accumulated entries are sorted by mass
//! into their packed, windowed form, and further loads are rejected
//! with [`ErrorCode::ProtocolState`]. Sealing is what makes results
//! deterministic: every query, from every participant, scores against
//! the same immutable snapshot.
//!
//! Scoring happens **outside** the job lock. A query batch reserves its
//! contiguous job-global query-index range and grabs the sealed
//! library's [`Arc`] under the lock, then releases it for the whole
//! block walk — concurrent participants score in parallel and only
//! re-take the lock to bump the job's counters. A batch is scored the
//! way the library scores a block
//! ([`PackedSearchEngine::search_batch_standard`]): one tiled walk over
//! the mass-sorted library, each tile scored against every query whose
//! window covers it, on the connection's own thread unless the batch's
//! windows hold enough rows to be worth splitting across workers. Its
//! hit frames are emitted only after the walk, in batch order, so a
//! reply reaches the writer as one burst. Every wire-facing
//! precondition of the packed engine (finite masses, `dim ≤ 65535`,
//! exact row stride, zero tail bits, `top_k ≥ 1`) is enforced at frame
//! decode, so no client input can reach a panic in the search path.
//!
//! Lifecycle mirrors clustering jobs where it can: a handle counts as
//! one participant and its drop (connection gone) leaves the job; the
//! job records when its last participant left, and the server's sweep
//! removes it a rejoin grace later unless someone joined meanwhile.
//! Unlike clustering jobs there is no pipeline thread and no `CloseJob`
//! — a search job is passive state, alive as long as someone holds it
//! open, plus the grace.
//!
//! Library entries are bounded twice by [`MAX_LIBRARY_TOTAL_ENTRIES`]:
//! per job (a load past it is a protocol-state error) and across every
//! live job together, the registry's entry budget (a load past it is
//! shed with the retryable [`ErrorCode::Busy`]). A job's entries return
//! to the budget when the job leaves the registry.

use crate::job::JobError;
use crate::limits::MAX_LIBRARY_TOTAL_ENTRIES;
use crate::protocol::{ErrorCode, Frame, HitWire, LibraryEntryWire, QueryWire, SearchStatsFrame};
use crate::session::{lock, try_lock, Table};
use spechd_hdc::BinaryHypervector;
use spechd_search::{HvLibrary, HvLibraryBuilder, PackedSearchConfig, PackedSearchEngine};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A search job's library: loading entries until the first query seals
/// it into its immutable, mass-sorted form.
enum Library {
    Loading(HvLibraryBuilder),
    Sealed(Arc<HvLibrary>),
}

impl Library {
    /// The sealed library, sealing a loading one first.
    fn seal(&mut self, dim: usize) -> Arc<HvLibrary> {
        match self {
            Self::Sealed(library) => Arc::clone(library),
            Self::Loading(builder) => {
                let built = std::mem::replace(builder, HvLibraryBuilder::new(dim)).build();
                let library = Arc::new(built);
                *self = Self::Sealed(Arc::clone(&library));
                library
            }
        }
    }
}

struct SearchState {
    participants: u32,
    /// When the last participant left; the job leaves the registry once
    /// a rejoin grace has passed since. `None` while anyone holds it.
    emptied: Option<Instant>,
    library: Library,
    targets: u64,
    decoys: u64,
    queries: u64,
    hits: u64,
    next_query_index: u64,
}

/// One search job: a shared library and its usage counters.
pub(crate) struct SearchJob {
    id: u64,
    dim: u32,
    state: Mutex<SearchState>,
}

impl SearchJob {
    fn stats_locked(&self, state: &SearchState) -> SearchStatsFrame {
        SearchStatsFrame {
            job_id: self.id,
            participants: state.participants,
            entries: state.targets + state.decoys,
            targets: state.targets,
            decoys: state.decoys,
            sealed: u8::from(matches!(state.library, Library::Sealed(_))),
            queries: state.queries,
            hits: state.hits,
        }
    }
}

/// The server's table of live search jobs.
pub(crate) struct SearchRegistry {
    jobs: Table<u64, SearchJob>,
    linger: Duration,
    /// Library entries held by every job in the table together.
    entries: AtomicUsize,
    max_entries: usize,
}

impl SearchRegistry {
    /// Creates an empty registry. A job survives `linger` after its last
    /// participant leaves, so a client whose connection dropped
    /// mid-session can reconnect and rejoin the job (library and all)
    /// instead of starting over; zero removes it at once, and otherwise
    /// a [`sweep`](Self::sweep) does. The jobs in the table hold at most
    /// `max_entries` library entries together.
    pub(crate) fn new(linger: Duration, max_entries: usize) -> Self {
        Self {
            jobs: Table::new(usize::MAX, ErrorCode::Busy, "search jobs"),
            linger,
            entries: AtomicUsize::new(0),
            max_entries,
        }
    }

    /// Opens `job_id` or joins it as another participant. Joining
    /// requires the same `dim`. The returned handle counts as one
    /// participant until dropped.
    pub(crate) fn open_or_join(
        self: &Arc<Self>,
        job_id: u64,
        dim: u32,
    ) -> Result<SearchHandle, JobError> {
        let join = |job: &SearchJob| {
            if job.dim != dim {
                return Err(JobError::new(
                    ErrorCode::ConfigMismatch,
                    format!("search job {job_id} exists with dim {}, not {dim}", job.dim),
                ));
            }
            // Under the table's lock, so no sweep removes the job between
            // this join and its removal check.
            let mut state = lock(&job.state);
            state.participants += 1;
            state.emptied = None;
            Ok(())
        };
        let create = || {
            Ok(SearchJob {
                id: job_id,
                dim,
                state: Mutex::new(SearchState {
                    participants: 1,
                    emptied: None,
                    library: Library::Loading(HvLibraryBuilder::new(dim as usize)),
                    targets: 0,
                    decoys: 0,
                    queries: 0,
                    hits: 0,
                    next_query_index: 0,
                }),
            })
        };
        Ok(SearchHandle {
            registry: Arc::clone(self),
            job: self.jobs.open(job_id, join, create)?,
        })
    }

    /// Removes every job whose last participant left at least `grace`
    /// ago, returning its entries to the budget. A job whose lock is
    /// held right now is in use, and the next sweep looks again.
    pub(crate) fn sweep(&self, grace: Duration) {
        self.jobs.remove_where(|job| {
            let Some(state) = try_lock(&job.state) else {
                return false;
            };
            let expired = state.emptied.is_some_and(|since| since.elapsed() >= grace);
            if expired {
                let held = (state.targets + state.decoys) as usize;
                self.entries.fetch_sub(held, Ordering::SeqCst);
            }
            expired
        });
    }
}

/// One connection's participation in one search job.
pub(crate) struct SearchHandle {
    registry: Arc<SearchRegistry>,
    job: Arc<SearchJob>,
}

impl SearchHandle {
    /// The search job this handle participates in.
    pub(crate) fn job_id(&self) -> u64 {
        self.job.id
    }

    /// The job's hypervector dimensionality.
    pub(crate) fn dim(&self) -> u32 {
        self.job.dim
    }

    /// A statistics snapshot of the job.
    #[cfg(test)]
    fn stats(&self) -> SearchStatsFrame {
        self.job.stats_locked(&lock(&self.job.state))
    }

    /// Appends decoded entries to the job's library, returning the
    /// post-load snapshot (the `LoadLibrary` ack). Entry row invariants
    /// were already enforced at frame decode. Fails, applying nothing,
    /// once the library is sealed, when the load would take the job past
    /// [`MAX_LIBRARY_TOTAL_ENTRIES`], and with the retryable
    /// [`ErrorCode::Busy`] when it would take the registry past its
    /// entry budget.
    pub(crate) fn load(
        &self,
        entries: Vec<LibraryEntryWire>,
    ) -> Result<SearchStatsFrame, JobError> {
        let mut guard = lock(&self.job.state);
        let state = &mut *guard;
        let Library::Loading(builder) = &mut state.library else {
            return Err(JobError::state(format!(
                "search job {} is sealed; no further library loads",
                self.job.id
            )));
        };
        if builder.len() + entries.len() > MAX_LIBRARY_TOTAL_ENTRIES {
            return Err(JobError::state(format!(
                "library would exceed {MAX_LIBRARY_TOTAL_ENTRIES} total entries"
            )));
        }
        let registry = &self.registry;
        let budget =
            |held: usize| Some(held + entries.len()).filter(|&total| total <= registry.max_entries);
        if registry
            .entries
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, budget)
            .is_err()
        {
            return Err(JobError::new(
                ErrorCode::Busy,
                format!(
                    "the server's search jobs would hold more than {} library entries",
                    registry.max_entries
                ),
            ));
        }
        let mut targets = 0u64;
        let mut decoys = 0u64;
        for e in entries {
            builder.push_row_words(&e.words, e.mass, e.charge, e.id, e.is_decoy);
            if e.is_decoy {
                decoys += 1;
            } else {
                targets += 1;
            }
        }
        state.targets += targets;
        state.decoys += decoys;
        Ok(self.job.stats_locked(state))
    }

    /// Scores a decoded query batch against the job's library in one
    /// block walk, sealing it first if this is the job's first query.
    /// Once the walk is done, emits one [`Frame::SearchHit`] per query
    /// (in batch order, with job-global contiguous query indices)
    /// through `emit`, and returns the post-batch snapshot — the frame
    /// pair's closing [`Frame::SearchStats`].
    pub(crate) fn query(
        &self,
        window_da: f64,
        top_k: u32,
        queries: Vec<QueryWire>,
        mut emit: impl FnMut(Frame),
    ) -> SearchStatsFrame {
        // Seal (if first query), reserve the batch's index range, and
        // snapshot the library Arc — then score without the lock.
        let (library, base) = {
            let mut state = lock(&self.job.state);
            let library = state.library.seal(self.job.dim as usize);
            let base = state.next_query_index;
            state.next_query_index += queries.len() as u64;
            (library, base)
        };
        let engine = PackedSearchEngine::new(PackedSearchConfig {
            precursor_tol_da: window_da,
            top_k: top_k as usize,
            ..PackedSearchConfig::default()
        });
        let dim = self.job.dim as usize;
        let block: Vec<(BinaryHypervector, f64)> = queries
            .into_iter()
            .map(|q| (BinaryHypervector::from_words(dim, q.words), q.mass))
            .collect();
        // The whole batch in one walk of the library; hits go out only
        // once every query is scored, so the reply is one burst.
        let scored = engine.search_batch_standard(&library, &block);
        let mut emitted_hits = 0u64;
        for (offset, psms) in scored.into_iter().enumerate() {
            emitted_hits += psms.len() as u64;
            emit(Frame::SearchHit {
                job_id: self.job.id,
                query_index: base + offset as u64,
                hits: psms
                    .into_iter()
                    .map(|p| HitWire {
                        library_index: p.library_index as u64,
                        distance: p.distance,
                        mass_delta: p.mass_delta,
                        is_decoy: p.is_decoy,
                        id: library.id(p.library_index).to_string(),
                    })
                    .collect(),
            });
        }
        let mut state = lock(&self.job.state);
        state.queries += block.len() as u64;
        state.hits += emitted_hits;
        self.job.stats_locked(&state)
    }
}

impl Drop for SearchHandle {
    fn drop(&mut self) {
        let mut state = lock(&self.job.state);
        state.participants = state.participants.saturating_sub(1);
        if state.participants > 0 {
            return;
        }
        // Keep the empty job around for the grace so a reconnecting
        // participant finds its library intact; a rejoin in the
        // meantime clears `emptied` again.
        state.emptied = Some(Instant::now());
        drop(state);
        if self.registry.linger.is_zero() {
            self.registry.sweep(Duration::ZERO);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_rng::Xoshiro256StarStar;

    fn entry(mass: f64, id: &str, is_decoy: bool, words: Vec<u64>) -> LibraryEntryWire {
        LibraryEntryWire {
            mass,
            charge: 2,
            is_decoy,
            id: id.into(),
            words,
        }
    }

    fn registry() -> Arc<SearchRegistry> {
        Arc::new(SearchRegistry::new(
            Duration::ZERO,
            MAX_LIBRARY_TOTAL_ENTRIES,
        ))
    }

    fn random_words(dim: usize, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        BinaryHypervector::random(dim, &mut rng).words().to_vec()
    }

    #[test]
    fn load_then_query_returns_library_path_results() {
        let registry = registry();
        let handle = registry.open_or_join(1, 128).unwrap();
        let rows: Vec<Vec<u64>> = (0..20).map(|i| random_words(128, i)).collect();
        let entries: Vec<LibraryEntryWire> = rows
            .iter()
            .enumerate()
            .map(|(i, w)| entry(1000.0 + i as f64, &format!("e{i}"), i % 2 == 1, w.clone()))
            .collect();
        let stats = handle.load(entries.clone()).unwrap();
        assert_eq!(stats.entries, 20);
        assert_eq!(stats.targets, 10);
        assert_eq!(stats.decoys, 10);
        assert_eq!(stats.sealed, 0);

        let mut frames = Vec::new();
        let stats = handle.query(
            5.0,
            3,
            vec![QueryWire {
                mass: 1007.2,
                words: rows[7].clone(),
            }],
            |f| frames.push(f),
        );
        assert_eq!(stats.sealed, 1);
        assert_eq!(stats.queries, 1);
        assert_eq!(frames.len(), 1);
        let Frame::SearchHit {
            query_index, hits, ..
        } = &frames[0]
        else {
            panic!("expected SearchHit, got {:?}", frames[0]);
        };
        assert_eq!(*query_index, 0);
        assert_eq!(hits[0].distance, 0, "exact row is the best hit");
        assert_eq!(hits[0].id, "e7");
        assert!(hits[0].is_decoy);

        // Same search through the library path must agree bit-for-bit.
        let mut b = HvLibraryBuilder::new(128);
        for e in &entries {
            b.push_row_words(&e.words, e.mass, e.charge, e.id.as_str(), e.is_decoy);
        }
        let lib = b.build();
        let engine = PackedSearchEngine::new(PackedSearchConfig {
            top_k: 3,
            ..PackedSearchConfig::default()
        });
        let hv = BinaryHypervector::from_words(128, rows[7].clone());
        let expect = engine.search_window(&lib, &hv, 1007.2, 0, 5.0);
        assert_eq!(hits.len(), expect.len());
        for (h, p) in hits.iter().zip(&expect) {
            assert_eq!(h.library_index, p.library_index as u64);
            assert_eq!(h.distance, p.distance);
            assert_eq!(h.mass_delta, p.mass_delta);
            assert_eq!(h.is_decoy, p.is_decoy);
        }
    }

    #[test]
    fn load_after_seal_is_rejected() {
        let registry = registry();
        let handle = registry.open_or_join(1, 64).unwrap();
        handle
            .load(vec![entry(900.0, "a", false, vec![1])])
            .unwrap();
        handle.query(1.0, 1, Vec::new(), |_| {});
        let err = handle
            .load(vec![entry(901.0, "b", false, vec![2])])
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::ProtocolState);
        assert!(err.message.contains("sealed"));
    }

    #[test]
    fn total_entry_cap_is_enforced() {
        let registry = registry();
        let handle = registry.open_or_join(1, 64).unwrap();
        // A batch that would blow past the job-total cap is refused
        // outright (its entries are not partially applied).
        let big: Vec<LibraryEntryWire> = (0..=MAX_LIBRARY_TOTAL_ENTRIES)
            .map(|i| entry(900.0, "x", false, vec![i as u64 & 0xFF]))
            .collect();
        let err = handle.load(big).unwrap_err();
        assert_eq!(err.code, ErrorCode::ProtocolState);
        assert_eq!(handle.stats().entries, 0);
    }

    #[test]
    fn library_entries_are_one_budget_over_every_job() {
        let registry = Arc::new(SearchRegistry::new(Duration::ZERO, 3));
        let load = |n: u64| {
            (0..n)
                .map(|i| entry(900.0, "x", false, vec![i]))
                .collect::<Vec<_>>()
        };
        let first = registry.open_or_join(1, 64).unwrap();
        first.load(load(2)).unwrap();
        // Fits the second job's own cap, not what the server holds.
        let second = registry.open_or_join(2, 64).unwrap();
        let err = second.load(load(2)).unwrap_err();
        assert_eq!(err.code, ErrorCode::Busy);
        assert!(err.code.is_retryable());
        assert_eq!(second.stats().entries, 0, "a refused load applies nothing");
        // The first job's entries return to the budget when it goes.
        drop(first);
        assert_eq!(registry.jobs.len(), 1);
        assert_eq!(second.load(load(2)).unwrap().entries, 2);
        // A rejoin of the departed job starts from an empty library.
        let again = registry.open_or_join(1, 64).unwrap();
        assert_eq!(again.load(load(1)).unwrap().entries, 1);
        assert_eq!(again.load(load(1)).unwrap_err().code, ErrorCode::Busy);
    }

    #[test]
    fn join_requires_matching_dim_and_last_drop_removes_job() {
        let registry = registry();
        let a = registry.open_or_join(9, 256).unwrap();
        let err = match registry.open_or_join(9, 128) {
            Err(e) => e,
            Ok(_) => panic!("dim mismatch must be rejected"),
        };
        assert_eq!(err.code, ErrorCode::ConfigMismatch);
        let b = registry.open_or_join(9, 256).unwrap();
        assert_eq!(a.stats().participants, 2);
        drop(a);
        assert_eq!(registry.jobs.len(), 1);
        drop(b);
        assert_eq!(registry.jobs.len(), 0, "last participant removes the job");
    }

    #[test]
    fn query_indices_are_contiguous_across_batches() {
        let registry = registry();
        let handle = registry.open_or_join(1, 64).unwrap();
        handle
            .load(vec![entry(900.0, "a", false, vec![3])])
            .unwrap();
        let q = |mass: f64| QueryWire {
            mass,
            words: vec![5],
        };
        let mut indices = Vec::new();
        for _ in 0..2 {
            handle.query(10.0, 1, vec![q(900.0), q(901.0)], |f| {
                if let Frame::SearchHit { query_index, .. } = f {
                    indices.push(query_index);
                }
            });
        }
        assert_eq!(indices, vec![0, 1, 2, 3]);
        assert_eq!(handle.stats().queries, 4);
    }

    #[test]
    fn empty_library_query_yields_empty_hits() {
        let registry = registry();
        let handle = registry.open_or_join(1, 64).unwrap();
        let mut frames = Vec::new();
        let stats = handle.query(
            100.0,
            5,
            vec![QueryWire {
                mass: 900.0,
                words: vec![1],
            }],
            |f| frames.push(f),
        );
        assert_eq!(stats.sealed, 1);
        assert_eq!(stats.hits, 0);
        assert!(
            matches!(&frames[0], Frame::SearchHit { hits, .. } if hits.is_empty()),
            "empty library still acks the query: {frames:?}"
        );
    }
}
