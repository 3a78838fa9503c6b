//! The store's persistence seam: *where* a [`crate::KvStore`]'s
//! directory lives.
//!
//! [`StoreMedia`] abstracts everything the store touches outside the
//! block device proper — manifest commits, the clean marker, data-file
//! creation and stale-file cleanup, mutual exclusion — so the same
//! open/sync/recover/compact protocol runs against a real directory
//! ([`DirMedia`], the default) or the deterministic crash-simulation
//! environment ([`crate::SimMedia`]). The protocol itself stays in
//! `store.rs`; implementations of this trait only answer "make this
//! durable now" and "what survived".

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use dxh_extmem::{BlobFile, ExtMemError, FileBlob, FileDisk, PersistentBackend, Result};

/// Manifest file name inside a store directory.
pub(crate) const MANIFEST: &str = "MANIFEST";
/// Generation-0 data file name (see `data_file_name` in `store.rs`).
pub(crate) const DATA: &str = "store.blk";
/// Lock file name.
pub(crate) const LOCK: &str = "LOCK";
/// Clean-shutdown marker name: present exactly while no block write has
/// happened since the last manifest.
pub(crate) const CLEAN: &str = "CLEAN";
/// Manifest delta-chain name: checksummed incremental manifest records
/// appended between full manifest rewrites (see `store.rs`).
pub(crate) const MANIFEST_DELTA: &str = "MANIFEST.DELTA";

/// Whether `name` is a store data file (any generation).
fn is_data_file(name: &str) -> bool {
    name.starts_with("store") && name.ends_with(".blk")
}

/// Whether `name` is a store blob-log file (any generation).
fn is_blob_file(name: &str) -> bool {
    name.starts_with("store") && name.ends_with(".blob")
}

/// The persistence environment a [`crate::KvStore`] runs on: a block
/// backend factory plus the small durable metadata the recovery
/// protocol leans on.
///
/// Contract (what `store.rs` assumes of every implementation):
///
/// * **Mutual exclusion** is acquired when the media handle is
///   constructed and released when it drops — at most one live handle
///   per store, with a crashed owner's lock released by the
///   environment, never reclaimed by guesswork.
/// * [`StoreMedia::commit_manifest`] is **atomic and durable**: after it
///   returns, a reopen sees the new manifest; interrupted, a reopen sees
///   the old one — never a mix. This is the store's single commit point,
///   for both `sync` and the marker-less `harden(false)` durability
///   points the service committers use: "make durable" is the manifest
///   commit, never the marker.
/// * Marker writes/removals are durable when they return. For a marker
///   **write** an interrupted call is recoverable either way (a lost
///   write merely forces recovery mode), but a marker **removal** must
///   reach durability before the caller's next block write does: a lost
///   removal would let a later reopen trust a manifest whose data the
///   crash-interrupted writes have already diverged from. Removing an
///   already-absent marker must be a cheap no-op (no durability work) —
///   `harden(false)` leaves the marker absent across many rounds, and
///   every round's first mutation re-runs the clean→dirty transition.
/// * Data files created by [`StoreMedia::create_data`] start empty; the
///   returned backend follows [`PersistentBackend`]'s deferred-recycling
///   protocol.
pub trait StoreMedia {
    /// The block backend this media serves.
    type Backend: PersistentBackend;

    /// The append-only blob file this media serves (the payload log's
    /// storage; see `dxh_extmem::BlobLog`). `Send` so a payload-mode
    /// store can live behind the service's per-shard committer threads.
    type Blob: BlobFile + Send;

    /// Reads the manifest; `None` when the store has never committed one
    /// (the create path).
    fn read_manifest(&mut self) -> Result<Option<String>>;

    /// Atomically replaces the manifest and makes the swap durable.
    fn commit_manifest(&mut self, text: &str) -> Result<()>;

    /// Appends one framed record to the manifest delta chain and makes
    /// the append durable before returning. Each delta is a real index
    /// commit point (the incremental twin of
    /// [`StoreMedia::commit_manifest`]): after it returns, a reopen must
    /// see the frame; interrupted, a reopen may see a torn tail, which
    /// the store's frame checksums detect and discard.
    fn append_manifest_delta(&mut self, frame: &[u8]) -> Result<()>;

    /// Every surviving byte of the delta chain, in append order (empty
    /// when no chain exists). Torn tails are the store's problem, not
    /// the media's.
    fn read_manifest_deltas(&mut self) -> Result<Vec<u8>>;

    /// Best-effort removal of the delta chain after a full manifest
    /// rewrite made it redundant. No durability obligation: surviving
    /// stale frames quote a superseded epoch and are skipped at reopen.
    fn clear_manifest_deltas(&mut self);

    /// Whether the clean-shutdown marker is present.
    fn clean_marker(&mut self) -> Result<bool>;

    /// Writes the clean-shutdown marker.
    fn set_clean_marker(&mut self) -> Result<()>;

    /// Removes the clean-shutdown marker (absent is not an error).
    fn clear_clean_marker(&mut self) -> Result<()>;

    /// Creates (truncating) data file `name` and opens a backend on it.
    fn create_data(&mut self, name: &str, block_capacity: usize) -> Result<Self::Backend>;

    /// Opens existing data file `name` without truncating; every slot is
    /// initially live until a free list is restored.
    fn open_data(&mut self, name: &str, block_capacity: usize) -> Result<Self::Backend>;

    /// Size of data file `name` in bytes (0 when absent) — footprint
    /// reporting, not a correctness input.
    fn data_len(&mut self, name: &str) -> u64;

    /// Best-effort removal of data file `name` (a failed compaction's
    /// half-written generation).
    fn remove_data(&mut self, name: &str);

    /// Best-effort removal of every data file except `keep` — strays
    /// from a compaction interrupted on either side of its commit. Only
    /// called with the store lock held.
    fn remove_stale_data(&mut self, keep: &str);

    /// Creates (truncating) blob file `name`.
    fn create_blob(&mut self, name: &str) -> Result<Self::Blob>;

    /// Opens existing blob file `name` without truncating.
    fn open_blob(&mut self, name: &str) -> Result<Self::Blob>;

    /// Best-effort removal of blob file `name` (a failed compaction's
    /// half-written generation).
    fn remove_blob(&mut self, name: &str);

    /// Best-effort removal of every blob file except `keep` — the blob
    /// twin of [`StoreMedia::remove_stale_data`]. Only called with the
    /// store lock held.
    fn remove_stale_blobs(&mut self, keep: &str);

    /// Filesystem path of file `name`, for media that have one.
    fn file_path(&self, name: &str) -> Option<PathBuf>;
}

/// The one sanctioned sink for a deliberately best-effort sync-class
/// `Result`: `lint-durability`'s `no-discarded-sync-result` rule (and
/// reviewers grepping for swallowed fsyncs) reject `let _ =` / `.ok()`
/// on fsync/rename-class calls, so every discard must route through
/// here — named, greppable, and documented at each call site.
pub(crate) fn best_effort<T, E>(_: std::result::Result<T, E>) {}

/// Atomically (tmp + rename + directory fsync) replaces `name` in `dir`
/// with `text` — the commit primitive behind every durable metadata file
/// on the real filesystem (the store manifest, the service manifest).
/// The one place a bare data-path `fs::rename` is allowed (clippy's
/// disallowed-methods ban points everyone else here or to the service
/// log's `seal`).
#[allow(clippy::disallowed_methods)]
pub(crate) fn commit_file_atomic(dir: &Path, name: &str, text: &str) -> Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = fs::File::create(&tmp)?;
    f.write_all(text.as_bytes())?;
    f.sync_data()?;
    fs::rename(&tmp, dir.join(name))?;
    // The rename is only durable once the directory entry is: fsync the
    // dir, or a power failure could resurrect the old contents under
    // data written after the commit.
    sync_dir(dir)
}

/// Fsyncs `dir` so a just-renamed directory entry survives power loss
/// (`rename(2)` alone only orders against the file's own data).
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    #[cfg(unix)]
    fs::File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Whether `file`'s open inode is still the one `path` names — false
/// when a racer unlinked or replaced the path after we opened it.
#[cfg(unix)]
fn is_current_inode(file: &fs::File, path: &Path) -> bool {
    use std::os::unix::fs::MetadataExt;
    match (file.metadata(), fs::metadata(path)) {
        (Ok(a), Ok(b)) => a.dev() == b.dev() && a.ino() == b.ino(),
        _ => false,
    }
}

/// Non-unix has no inode identity to compare — sound only because
/// [`DirLock`]'s drop never unlinks the file there, so the path always
/// names the inode that was opened.
#[cfg(not(unix))]
fn is_current_inode(_file: &fs::File, _path: &Path) -> bool {
    true
}

/// Holds `LOCK` in a store directory for the lifetime of a media handle;
/// unlinked on drop on unix, left in place elsewhere — see [`DirLock`]'s
/// `Drop`.
///
/// Mutual exclusion is the **OS advisory lock** held on the open file,
/// not the file's existence or contents: the kernel releases it when the
/// descriptor closes — including when the owning process dies — so a
/// crash leaves no lock to reclaim and no pid to judge. (Reading a pid
/// out of the file and deciding liveness ourselves would race: between
/// the read and the takeover the judged-dead owner's slot can be
/// re-acquired by a third handle.) The pid written inside is
/// informational only.
struct DirLock {
    path: PathBuf,
    /// Keeps the OS lock alive; closing the descriptor releases it.
    _file: fs::File,
}

impl DirLock {
    fn acquire(dir: &Path) -> Result<Self> {
        let path = dir.join(LOCK);
        // A few attempts: a racing handle's drop may unlink the file
        // between our open and lock, leaving our lock on an orphaned
        // inode — detected below; the next attempt opens the fresh file.
        for _ in 0..8 {
            // truncate(false): wiping the file before the lock is ours
            // would erase a live owner's pid; truncation happens via
            // `set_len` below, after the lock is held.
            let file = fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)?;
            match file.try_lock() {
                Ok(()) => {}
                Err(fs::TryLockError::WouldBlock) => {
                    let owner = fs::read_to_string(&path).unwrap_or_default();
                    return Err(ExtMemError::BadConfig(format!(
                        "store is locked by pid {} (a live handle; the OS releases the \
                         lock when that process exits)",
                        owner.trim()
                    )));
                }
                Err(fs::TryLockError::Error(e)) => return Err(e.into()),
            }
            // The lock lives on the inode we opened, which matters only
            // while `path` still names it.
            if !is_current_inode(&file, &path) {
                continue;
            }
            file.set_len(0)?;
            writeln!(&file, "{}", std::process::id())?;
            // The pid is informational only (ownership is the OS lock);
            // losing it to a crash costs nothing.
            best_effort(file.sync_data());
            return Ok(DirLock { path, _file: file });
        }
        Err(ExtMemError::BadConfig(format!("could not acquire {}", path.display())))
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        // Unlink first; the descriptor then closes and the OS lock goes
        // with it. An opener racing this re-checks the inode after
        // locking, so it never settles on the unlinked file. Where that
        // re-check has no inode identity to compare (non-unix), the file
        // stays in place — ownership is the OS lock alone, and a leftover
        // pidfile is informational, not a lock.
        #[cfg(unix)]
        let _ = fs::remove_file(&self.path);
        #[cfg(not(unix))]
        let _ = &self.path;
    }
}

/// The real thing: a directory on the local filesystem, exactly the
/// on-disk layout documented on [`crate::KvStore`]. Construction
/// acquires the directory lock; dropping the media releases it.
pub struct DirMedia {
    dir: PathBuf,
    /// Held for the media's lifetime; the OS releases it with the
    /// process on a crash.
    _lock: DirLock,
}

impl DirMedia {
    /// Locks `dir` (creating it first if needed) and returns the media.
    /// Fails fast when another live handle holds the lock.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let lock = DirLock::acquire(dir)?;
        Ok(DirMedia { dir: dir.to_path_buf(), _lock: lock })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl StoreMedia for DirMedia {
    type Backend = FileDisk;
    type Blob = FileBlob;

    fn read_manifest(&mut self) -> Result<Option<String>> {
        match fs::read_to_string(self.dir.join(MANIFEST)) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn commit_manifest(&mut self, text: &str) -> Result<()> {
        commit_file_atomic(&self.dir, MANIFEST, text)
    }

    fn append_manifest_delta(&mut self, frame: &[u8]) -> Result<()> {
        let path = self.dir.join(MANIFEST_DELTA);
        let fresh = !path.exists();
        let mut f = fs::OpenOptions::new().append(true).create(true).open(&path)?;
        f.write_all(frame)?;
        f.sync_data()?;
        if fresh {
            // The chain file's dirent must be durable too: commit-log
            // segments sealed against this delta may already be
            // discarded, so losing the whole chain to a lost dirent
            // would lose acknowledged batches. One directory fsync per
            // chain lifetime (creation), not per append.
            sync_dir(&self.dir)?;
        }
        Ok(())
    }

    fn read_manifest_deltas(&mut self) -> Result<Vec<u8>> {
        match fs::read(self.dir.join(MANIFEST_DELTA)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e.into()),
        }
    }

    fn clear_manifest_deltas(&mut self) {
        // Deliberately not fsynced: a resurrected chain's frames quote
        // the pre-rewrite epoch and are skipped at reopen.
        let _ = fs::remove_file(self.dir.join(MANIFEST_DELTA));
    }

    fn clean_marker(&mut self) -> Result<bool> {
        Ok(self.dir.join(CLEAN).exists())
    }

    fn set_clean_marker(&mut self) -> Result<()> {
        fs::write(self.dir.join(CLEAN), b"clean\n")?;
        Ok(())
    }

    fn clear_clean_marker(&mut self) -> Result<()> {
        match fs::remove_file(self.dir.join(CLEAN)) {
            // The unlink must be durable before any block write lands:
            // a power loss that persisted post-sync block writes but
            // resurrected the marker would make the next reopen trust a
            // manifest that no longer matches the file. One directory
            // fsync per clean→dirty transition (not per write) buys
            // that ordering.
            Ok(()) => sync_dir(&self.dir),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn create_data(&mut self, name: &str, block_capacity: usize) -> Result<FileDisk> {
        FileDisk::create(&self.dir.join(name), block_capacity)
    }

    fn open_data(&mut self, name: &str, block_capacity: usize) -> Result<FileDisk> {
        FileDisk::open(&self.dir.join(name), block_capacity)
    }

    fn data_len(&mut self, name: &str) -> u64 {
        fs::metadata(self.dir.join(name)).map(|m| m.len()).unwrap_or(0)
    }

    fn remove_data(&mut self, name: &str) {
        let _ = fs::remove_file(self.dir.join(name));
    }

    fn remove_stale_data(&mut self, keep: &str) {
        let Ok(entries) = fs::read_dir(&self.dir) else { return };
        for e in entries.flatten() {
            let name = e.file_name();
            let Some(name) = name.to_str() else { continue };
            if name != keep && is_data_file(name) {
                let _ = fs::remove_file(e.path());
            }
        }
    }

    fn create_blob(&mut self, name: &str) -> Result<FileBlob> {
        FileBlob::create(self.dir.join(name))
    }

    fn open_blob(&mut self, name: &str) -> Result<FileBlob> {
        FileBlob::open(self.dir.join(name))
    }

    fn remove_blob(&mut self, name: &str) {
        let _ = fs::remove_file(self.dir.join(name));
    }

    fn remove_stale_blobs(&mut self, keep: &str) {
        let Ok(entries) = fs::read_dir(&self.dir) else { return };
        for e in entries.flatten() {
            let name = e.file_name();
            let Some(name) = name.to_str() else { continue };
            if name != keep && is_blob_file(name) {
                let _ = fs::remove_file(e.path());
            }
        }
    }

    fn file_path(&self, name: &str) -> Option<PathBuf> {
        Some(self.dir.join(name))
    }
}

/// The crash-simulation media: the same store protocol over a
/// [`dxh_extmem::SimEnv`] — simulated block files, a simulated manifest
/// namespace, and the environment's exclusive lock. Every operation
/// ticks the environment's I/O clock, so a [`dxh_extmem::FaultPlan`] can
/// crash the store between *any* two steps of open/sync/compact — the
/// seam the torture harness sweeps exhaustively.
///
/// One environment can host many stores: [`SimMedia::open_at`] scopes a
/// handle to a name prefix (the simulated twin of a subdirectory), which
/// is how a sharded service puts every shard on one machine under one
/// I/O clock — a single crash index takes all of them down together.
pub struct SimMedia {
    env: dxh_extmem::SimEnv,
    /// Name prefix of this store inside the environment (`""` for the
    /// machine's default store). Every file, metadata, and lock name the
    /// store protocol uses is prefixed with it.
    prefix: String,
    /// Epoch of this handle's lock acquisition; quoting it on release
    /// makes the drop owner-scoped (a crashed handle dropped after a
    /// power cycle must not free a newer handle's lock).
    lock_epoch: u64,
}

impl SimMedia {
    /// Acquires the environment's default store lock and returns the
    /// media. Fails fast while another live handle holds it; a crashed
    /// owner's lock is released by [`dxh_extmem::SimEnv::power_cycle`].
    pub fn open(env: &dxh_extmem::SimEnv) -> Result<Self> {
        Self::open_at(env, "")
    }

    /// [`SimMedia::open`] scoped to the store named by `prefix` — e.g.
    /// `"shard-000/"`. Stores with distinct prefixes coexist on the one
    /// machine, each behind its own fail-fast lock, all sharing the
    /// environment's I/O clock and fault plan.
    pub fn open_at(env: &dxh_extmem::SimEnv, prefix: &str) -> Result<Self> {
        let lock_epoch = env.lock_named(prefix)?;
        Ok(SimMedia { env: env.clone(), prefix: prefix.to_string(), lock_epoch })
    }

    fn scoped(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }
}

impl Drop for SimMedia {
    fn drop(&mut self) {
        self.env.unlock_named(&self.prefix, self.lock_epoch);
    }
}

impl StoreMedia for SimMedia {
    type Backend = dxh_extmem::SimDisk;
    type Blob = dxh_extmem::SimBlob;

    fn read_manifest(&mut self) -> Result<Option<String>> {
        match self.env.meta_read(&self.scoped(MANIFEST))? {
            Some(bytes) => String::from_utf8(bytes)
                .map(Some)
                .map_err(|_| ExtMemError::Corrupt("manifest is not UTF-8".into())),
            None => Ok(None),
        }
    }

    fn commit_manifest(&mut self, text: &str) -> Result<()> {
        // The rename, then its directory fsync: a fault at the second
        // step fails a commit that is already durable.
        let name = self.scoped(MANIFEST);
        self.env.meta_write(&name, text.as_bytes())?;
        self.env.meta_fsync(&name)
    }

    fn append_manifest_delta(&mut self, frame: &[u8]) -> Result<()> {
        // Modeled as one atomic metadata write of the grown chain (the
        // append either lands whole or not at all), then its fsync.
        // (Torn-tail recovery is exercised by the frame-level store
        // tests; the sim exercises the crash-between-appends windows.)
        let name = self.scoped(MANIFEST_DELTA);
        let mut chain = self.env.meta_read(&name)?.unwrap_or_default();
        chain.extend_from_slice(frame);
        self.env.meta_write(&name, &chain)?;
        self.env.meta_fsync(&name)
    }

    fn read_manifest_deltas(&mut self) -> Result<Vec<u8>> {
        Ok(self.env.meta_read(&self.scoped(MANIFEST_DELTA))?.unwrap_or_default())
    }

    fn clear_manifest_deltas(&mut self) {
        let _ = self.env.meta_remove(&self.scoped(MANIFEST_DELTA));
    }

    fn clean_marker(&mut self) -> Result<bool> {
        Ok(self.env.meta_read(&self.scoped(CLEAN))?.is_some())
    }

    fn set_clean_marker(&mut self) -> Result<()> {
        self.env.meta_write(&self.scoped(CLEAN), b"clean\n")
    }

    fn clear_clean_marker(&mut self) -> Result<()> {
        self.env.meta_remove(&self.scoped(CLEAN))
    }

    fn create_data(&mut self, name: &str, block_capacity: usize) -> Result<dxh_extmem::SimDisk> {
        self.env.create_disk(&self.scoped(name), block_capacity)
    }

    fn open_data(&mut self, name: &str, block_capacity: usize) -> Result<dxh_extmem::SimDisk> {
        self.env.open_disk(&self.scoped(name), block_capacity)
    }

    fn data_len(&mut self, name: &str) -> u64 {
        self.env.file_len(&self.scoped(name))
    }

    fn remove_data(&mut self, name: &str) {
        let _ = self.env.remove_file(&self.scoped(name));
    }

    fn remove_stale_data(&mut self, keep: &str) {
        let keep = self.scoped(keep);
        for name in self.env.file_names() {
            // Only this store's namespace: a sibling shard's data files
            // are not strays, whatever their generation.
            let Some(local) = name.strip_prefix(&self.prefix) else { continue };
            if name != keep && is_data_file(local) {
                let _ = self.env.remove_file(&name);
            }
        }
    }

    fn create_blob(&mut self, name: &str) -> Result<dxh_extmem::SimBlob> {
        self.env.create_blob(&self.scoped(name))
    }

    fn open_blob(&mut self, name: &str) -> Result<dxh_extmem::SimBlob> {
        self.env.open_blob(&self.scoped(name))
    }

    fn remove_blob(&mut self, name: &str) {
        let _ = self.env.remove_blob(&self.scoped(name));
    }

    fn remove_stale_blobs(&mut self, keep: &str) {
        let keep = self.scoped(keep);
        for name in self.env.blob_names() {
            let Some(local) = name.strip_prefix(&self.prefix) else { continue };
            if name != keep && is_blob_file(local) {
                let _ = self.env.remove_blob(&name);
            }
        }
    }

    fn file_path(&self, _name: &str) -> Option<PathBuf> {
        None
    }
}
