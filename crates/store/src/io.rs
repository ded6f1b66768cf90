//! Pluggable storage I/O — the crash-safety boundary of the store.
//!
//! [`ClusterStore::save`](crate::ClusterStore::save) routes every byte
//! that touches a disk through the [`StoreIo`] trait, so the durability
//! protocol (temp-file write → fsync → atomic rename → directory fsync,
//! previous generation kept as `.bak`) can be exercised against an
//! in-memory filesystem ([`MemIo`]) and against injected faults
//! ([`FaultIo`]) without ever crashing a real process. [`DiskIo`] is the
//! production implementation over `std::fs`.
//!
//! ## The durability protocol
//!
//! For a target file `store.shpk`, a save performs, in order:
//!
//! 1. write the full image to `store.shpk.tmp`
//! 2. fsync `store.shpk.tmp`
//! 3. if `store.shpk` exists, rename it to `store.shpk.bak`
//! 4. rename `store.shpk.tmp` to `store.shpk`
//! 5. fsync the parent directory (persists both renames)
//!
//! A crash between any two steps leaves at least one checksum-valid
//! generation on disk: the primary until step 3, the pending `.tmp`
//! (already synced) and/or the `.bak` afterwards.
//! [`ClusterStore::load_or_recover`](crate::ClusterStore::load_or_recover)
//! tries those locations newest-first and reports which one it used.

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The file-system operations [`crate::ClusterStore`] persistence is
/// built from.
///
/// Implementations must make each operation atomic on its own (all-or-
/// nothing per call) **except** `write`, which is explicitly allowed to
/// fail partway leaving a prefix of the bytes behind — that is the crash
/// window the durability protocol defends against, and what
/// [`FaultIo`] injects. `rename` must replace the destination atomically
/// when it exists, matching POSIX `rename(2)`.
pub trait StoreIo {
    /// Reads the entire file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Writes `bytes` to `path`, creating or truncating it. May leave a
    /// partial prefix behind on failure.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Forces the contents of `path` to stable storage (fsync).
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to`, replacing `to` if it exists.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Forces the directory containing `path` to stable storage, so
    /// completed renames survive a crash.
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// The sibling path holding a not-yet-committed generation during a save
/// (`<path>.tmp`).
pub fn pending_path(path: &Path) -> PathBuf {
    sibling(path, ".tmp")
}

/// The sibling path holding the previous committed generation after a
/// successful save (`<path>.bak`).
pub fn backup_path(path: &Path) -> PathBuf {
    sibling(path, ".bak")
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = OsString::from(path.as_os_str());
    name.push(suffix);
    PathBuf::from(name)
}

/// Production [`StoreIo`] over the real filesystem (`std::fs`).
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskIo;

impl StoreIo for DiskIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        let Some(dir) = dir else { return Ok(()) };
        match fs::File::open(dir) {
            // Some platforms cannot open directories for syncing; the
            // rename itself is still atomic there, so degrade silently.
            Ok(f) => f.sync_all().or(Ok(())),
            Err(_) => Ok(()),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
}

/// Locks `mutex`, taking it over from a thread that panicked while it
/// held it. Nothing here panics while it holds one of these locks, so the
/// value is whole and the next holder can go on with it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// In-memory [`StoreIo`]: a thread-safe map from path to file contents.
///
/// Clones share the same underlying map, so a test can keep a handle to
/// inspect the "disk" after a [`FaultIo`] wrapper has simulated a crash.
#[derive(Debug, Clone, Default)]
pub struct MemIo {
    files: Arc<Mutex<BTreeMap<PathBuf, Vec<u8>>>>,
}

impl MemIo {
    /// A fresh, empty in-memory filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current contents of `path`, if present.
    pub fn contents(&self, path: &Path) -> Option<Vec<u8>> {
        lock(&self.files).get(path).cloned()
    }

    /// Plants a file directly (bypassing the durability protocol) — for
    /// staging pre-corrupted fixtures.
    pub fn plant(&self, path: &Path, bytes: Vec<u8>) {
        lock(&self.files).insert(path.to_path_buf(), bytes);
    }

    /// Every path currently present, in sorted order.
    pub fn paths(&self) -> Vec<PathBuf> {
        lock(&self.files).keys().cloned().collect()
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("no such file: {}", path.display()),
    )
}

impl StoreIo for MemIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.contents(path).ok_or_else(|| not_found(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.plant(path, bytes.to_vec());
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        if self.exists(path) {
            Ok(())
        } else {
            Err(not_found(path))
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = lock(&self.files);
        let bytes = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), bytes);
        Ok(())
    }

    fn sync_parent_dir(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        lock(&self.files).contains_key(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        lock(&self.files)
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }
}

/// What a [`FaultIo`] failure simulates once its budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The device is full: writes keep failing (after an initial short
    /// write), but reads, renames and syncs still succeed — the process
    /// is alive and can observe the damage.
    Enospc,
    /// The process/machine died: every subsequent operation fails. The
    /// test then inspects the underlying filesystem through a fresh
    /// handle, exactly like a restart would.
    Crash,
}

/// When a [`FaultIo`] trips relative to the operation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Cumulative bytes allowed to reach the inner `write` before the
    /// fault fires mid-write (the tail of the offending write is dropped
    /// — a short write). `None` = unlimited.
    pub byte_budget: Option<u64>,
    /// Number of mutating operations (`write`, `sync_file`, `rename`,
    /// `sync_parent_dir`, `remove`) allowed to complete before the fault
    /// fires. `None` = unlimited.
    pub op_budget: Option<u64>,
    /// Failure semantics once a budget is exhausted.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// Crash once `budget` bytes have been written (byte `budget` of the
    /// cumulative write stream is the first to be lost).
    pub fn crash_after_bytes(budget: u64) -> Self {
        Self {
            byte_budget: Some(budget),
            op_budget: None,
            kind: FaultKind::Crash,
        }
    }

    /// Crash once `budget` mutating operations have completed.
    pub fn crash_after_ops(budget: u64) -> Self {
        Self {
            byte_budget: None,
            op_budget: Some(budget),
            kind: FaultKind::Crash,
        }
    }

    /// Run out of disk space after `budget` written bytes.
    pub fn enospc_after_bytes(budget: u64) -> Self {
        Self {
            byte_budget: Some(budget),
            op_budget: None,
            kind: FaultKind::Enospc,
        }
    }
}

#[derive(Debug)]
struct FaultState {
    remaining_bytes: Option<u64>,
    remaining_ops: Option<u64>,
    kind: FaultKind,
    tripped: bool,
}

/// A [`StoreIo`] wrapper that injects deterministic faults: short writes,
/// ENOSPC, and simulated crash-after-byte-*k* or crash-after-op-*n*.
///
/// The wrapper forwards to `inner` until a [`FaultPlan`] budget runs out,
/// then *trips*: the offending write is truncated to the remaining byte
/// budget (a short write really reaches `inner`), the call fails, and
/// subsequent calls fail according to [`FaultKind`]. Tests keep a clone
/// of the inner [`MemIo`] to play the part of the filesystem that
/// survived the crash.
#[derive(Debug)]
pub struct FaultIo<I> {
    inner: I,
    state: Mutex<FaultState>,
}

impl<I: StoreIo> FaultIo<I> {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: I, plan: FaultPlan) -> Self {
        Self {
            inner,
            state: Mutex::new(FaultState {
                remaining_bytes: plan.byte_budget,
                remaining_ops: plan.op_budget,
                kind: plan.kind,
                tripped: false,
            }),
        }
    }

    /// Whether the fault has fired yet.
    pub fn tripped(&self) -> bool {
        lock(&self.state).tripped
    }

    /// A reference to the wrapped I/O (e.g. to inspect a [`MemIo`]).
    pub fn inner(&self) -> &I {
        &self.inner
    }

    fn fault_error(kind: FaultKind) -> io::Error {
        match kind {
            FaultKind::Enospc => io::Error::other("injected fault: no space left on device"),
            FaultKind::Crash => io::Error::other("injected fault: simulated crash"),
        }
    }

    /// Gate for non-write mutating ops: consumes one op from the budget,
    /// or fails if already tripped / out of budget.
    fn mutate_gate(&self) -> io::Result<()> {
        let mut s = lock(&self.state);
        if s.tripped {
            return match s.kind {
                FaultKind::Crash => Err(Self::fault_error(FaultKind::Crash)),
                FaultKind::Enospc => Ok(()), // renames/syncs need no space
            };
        }
        if let Some(ops) = &mut s.remaining_ops {
            if *ops == 0 {
                s.tripped = true;
                return Err(Self::fault_error(s.kind));
            }
            *ops -= 1;
        }
        Ok(())
    }
}

impl<I: StoreIo> StoreIo for FaultIo<I> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let s = lock(&self.state);
        if s.tripped && s.kind == FaultKind::Crash {
            return Err(Self::fault_error(FaultKind::Crash));
        }
        drop(s);
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut s = lock(&self.state);
        if s.tripped {
            return Err(Self::fault_error(s.kind));
        }
        if let Some(ops) = &mut s.remaining_ops {
            if *ops == 0 {
                s.tripped = true;
                return Err(Self::fault_error(s.kind));
            }
            *ops -= 1;
        }
        if let Some(budget) = &mut s.remaining_bytes {
            let len = bytes.len() as u64;
            if len > *budget {
                let keep = usize::try_from(*budget).unwrap_or(usize::MAX);
                *budget = 0;
                s.tripped = true;
                let kind = s.kind;
                drop(s);
                // The prefix really lands: that is the short write.
                let _ = self.inner.write(path, &bytes[..keep]);
                return Err(Self::fault_error(kind));
            }
            *budget -= len;
        }
        drop(s);
        self.inner.write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.mutate_gate()?;
        self.inner.sync_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.mutate_gate()?;
        self.inner.rename(from, to)
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        self.mutate_gate()?;
        self.inner.sync_parent_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        let s = lock(&self.state);
        if s.tripped && s.kind == FaultKind::Crash {
            return false;
        }
        drop(s);
        self.inner.exists(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.mutate_gate()?;
        self.inner.remove(path)
    }
}

/// Where [`crate::ClusterStore::load_or_recover`] found a checksum-valid
/// generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// The primary file itself was valid — no recovery needed.
    Primary,
    /// The primary was damaged or missing; the synced-but-uncommitted
    /// `.tmp` generation (newer than the primary) was valid.
    Pending,
    /// The primary was damaged or missing; the previous `.bak`
    /// generation was valid.
    Backup,
}

/// Typed report of what [`crate::ClusterStore::load_or_recover`]
/// actually loaded.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Which generation the returned store came from.
    pub source: RecoverySource,
    /// The concrete file that was loaded.
    pub loaded_from: PathBuf,
    /// Why the primary file was rejected, when `source` is not
    /// [`RecoverySource::Primary`].
    pub primary_error: Option<Box<crate::StoreError>>,
}

impl RecoveryReport {
    /// Whether a fallback generation (not the primary) was used.
    pub fn recovered(&self) -> bool {
        self.source != RecoverySource::Primary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sibling_paths_append_suffixes() {
        let p = Path::new("/data/store.shpk");
        assert_eq!(pending_path(p), PathBuf::from("/data/store.shpk.tmp"));
        assert_eq!(backup_path(p), PathBuf::from("/data/store.shpk.bak"));
    }

    #[test]
    fn mem_io_round_trips_and_renames() {
        let io = MemIo::new();
        let a = Path::new("a");
        let b = Path::new("b");
        io.write(a, b"hello").unwrap();
        assert_eq!(io.read(a).unwrap(), b"hello");
        io.rename(a, b).unwrap();
        assert!(!io.exists(a));
        assert_eq!(io.read(b).unwrap(), b"hello");
        assert!(io.read(a).is_err());
        io.remove(b).unwrap();
        assert!(io.paths().is_empty());
    }

    #[test]
    fn byte_budget_produces_a_short_write_then_trips() {
        let mem = MemIo::new();
        let io = FaultIo::new(mem.clone(), FaultPlan::crash_after_bytes(3));
        let p = Path::new("f");
        assert!(io.write(p, b"abcdef").is_err());
        assert!(io.tripped());
        // The first 3 bytes really landed — a short write.
        assert_eq!(mem.contents(p).unwrap(), b"abc");
        // After a crash everything fails.
        assert!(io.read(p).is_err());
        assert!(io.rename(p, Path::new("g")).is_err());
    }

    #[test]
    fn enospc_keeps_reads_and_renames_working() {
        let mem = MemIo::new();
        let io = FaultIo::new(mem.clone(), FaultPlan::enospc_after_bytes(0));
        let p = Path::new("f");
        mem.write(p, b"old").unwrap();
        assert!(io.write(p, b"new").is_err());
        assert!(io.tripped());
        assert_eq!(io.read(p).unwrap(), b""); // short write truncated it
        io.rename(p, Path::new("g")).unwrap();
        assert!(io.write(Path::new("h"), b"x").is_err());
    }

    #[test]
    fn op_budget_fails_the_nth_mutating_op() {
        let mem = MemIo::new();
        let io = FaultIo::new(mem.clone(), FaultPlan::crash_after_ops(2));
        let p = Path::new("f");
        io.write(p, b"x").unwrap(); // op 0
        io.sync_file(p).unwrap(); // op 1
        assert!(io.rename(p, Path::new("g")).is_err()); // op 2: fails
        assert!(io.tripped());
        assert!(mem.exists(p), "failed rename must not have happened");
    }

    /// Panics on another thread while it holds `mutex`, leaving it poisoned.
    fn poison<T: Send>(mutex: &Mutex<T>) {
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = mutex.lock();
                panic!("poisoning the lock on purpose");
            });
            assert!(holder.join().is_err());
        });
        assert!(mutex.is_poisoned());
    }

    #[test]
    fn both_doubles_keep_working_after_a_poisoned_lock() {
        let mem = MemIo::new();
        let (p, q) = (Path::new("f"), Path::new("g"));
        mem.write(p, b"kept").unwrap();
        poison(&mem.files);
        assert_eq!(mem.read(p).unwrap(), b"kept");
        mem.write(p, b"new").unwrap();
        mem.rename(p, q).unwrap();
        assert!(mem.exists(q) && !mem.exists(p));
        assert_eq!(mem.paths(), [q.to_path_buf()]);
        mem.remove(q).unwrap();

        let io = FaultIo::new(mem.clone(), FaultPlan::crash_after_ops(3));
        poison(&io.state);
        io.write(p, b"x").unwrap(); // op 0
        io.sync_file(p).unwrap(); // op 1
        assert_eq!(io.read(p).unwrap(), b"x");
        assert!(io.exists(p) && !io.tripped());
        io.rename(p, q).unwrap(); // op 2
        assert!(io.remove(q).is_err()); // op 3: the planned crash
        assert!(io.tripped() && mem.exists(q));
    }
}
