//! File-backed storage backend: the same block interface over a real file.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::backend::{PersistentBackend, SlotAllocator, StorageBackend};
use crate::block::{Block, BlockId};
use crate::error::{ExtMemError, Result};
use crate::item::{Key, Value};

/// A disk backed by a single flat file of fixed-size block slots.
///
/// Layout: block `i` occupies bytes `[i · S, (i+1) · S)` where
/// `S = Block::encoded_len(b)`. An all-zero slot decodes as an empty
/// block (see [`Block::decode_from`]), so allocation past the high-water
/// mark is a pure `set_len` — the OS zero-fills the extension and no
/// initialization bytes are written.
///
/// Recycling a freed slot writes nothing either. The slot is **stale**
/// until a block is written to it: reads and probes answer an empty
/// block without touching the file, and the next [`StorageBackend::sync`]
/// writes one 24-byte zero header over each slot still stale, before
/// its `fdatasync`, so the device decodes it as empty too. Dropping the
/// disk performs the same resets best-effort (without the fsync), so a
/// raw [`FileDisk::open`] of an unsynced file decodes every live slot as
/// its last owner saw it.
///
/// Every block I/O is one positioned syscall (`pread`/`pwrite` via
/// [`FileExt`]) on the block's slot — no seek, no shared file cursor.
///
/// The allocator state (free list) is kept in memory; callers that want
/// persistence across process restarts serialize it themselves (see
/// `dxh_core`'s store) and restore it via [`FileDisk::restore_free_list`].
/// Data durability is the caller's via [`StorageBackend::sync`]; the
/// paper's bounds do not depend on durability.
pub struct FileDisk {
    file: File,
    block_capacity: usize,
    block_bytes: usize,
    /// The shared allocator state machine (LIFO recycling, contiguous
    /// runs, deferred-recycling quarantine, born and stale slots) — one
    /// implementation across backends, so block ids stay
    /// backend-deterministic.
    alloc: SlotAllocator,
    /// Scratch buffer reused across reads/writes to avoid per-op allocation.
    scratch: Vec<u8>,
}

impl FileDisk {
    /// Creates (truncating) a file-backed disk at `path` with block
    /// capacity `b` items.
    pub fn create(path: &Path, block_capacity: usize) -> Result<Self> {
        assert!(block_capacity > 0, "block capacity must be positive");
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(Self::from_file(file, block_capacity, 0))
    }

    /// Opens an existing disk file **without truncating**; every slot in
    /// the file is initially considered live (the high-water mark is the
    /// file length over the slot size). Restore the persisted free list
    /// with [`FileDisk::restore_free_list`] to resume allocation exactly
    /// where a previous process left off.
    pub fn open(path: &Path, block_capacity: usize) -> Result<Self> {
        assert!(block_capacity > 0, "block capacity must be positive");
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let block_bytes = Block::encoded_len(block_capacity) as u64;
        let len = file.metadata()?.len();
        if len % block_bytes != 0 {
            return Err(ExtMemError::Corrupt(format!(
                "file length {len} is not a multiple of the {block_bytes}-byte slot size"
            )));
        }
        Ok(Self::from_file(file, block_capacity, len / block_bytes))
    }

    fn from_file(file: File, block_capacity: usize, slots: u64) -> Self {
        let block_bytes = Block::encoded_len(block_capacity);
        FileDisk {
            file,
            block_capacity,
            block_bytes,
            alloc: SlotAllocator::with_all_live(slots),
            scratch: vec![0u8; block_bytes],
        }
    }

    /// Creates a disk in a fresh temporary file under `std::env::temp_dir()`.
    ///
    /// The file is removed from the namespace immediately (unix semantics:
    /// it lives until the handle drops), so tests cannot leak files.
    pub fn temp(block_capacity: usize) -> Result<Self> {
        let dir = std::env::temp_dir();
        // Unique-enough name: pid + monotonic counter.
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("dxh-filedisk-{}-{}.blk", std::process::id(), n));
        let disk = Self::create(&path, block_capacity)?;
        // Best-effort unlink; on platforms where this fails the file simply
        // stays behind in the temp dir.
        let _ = std::fs::remove_file(&path);
        Ok(disk)
    }

    /// High-water mark: total slots ever allocated (free ones included).
    pub fn slots(&self) -> u64 {
        self.alloc.slots()
    }

    /// Every dead slot — the recyclable stack plus any quarantined frees
    /// — in recycle order. Serialize this to persist the allocator: a
    /// sync point's metadata references none of these slots, so all of
    /// them are recyclable after a reopen.
    pub fn free_list(&self) -> Vec<u64> {
        self.alloc.free_list()
    }

    /// Number of dead slots (recyclable plus quarantined) without
    /// cloning the list: `slots() == live_blocks() + free_count()` always
    /// holds, which is the invariant GC and compaction accounting lean on.
    pub fn free_count(&self) -> usize {
        self.alloc.free_count()
    }

    /// Quarantines future frees (on) or recycles them immediately (off,
    /// the default). With deferral on, a freed block that was live at
    /// the last [`FileDisk::seal_commit_point`] keeps its contents on
    /// disk untouched — and its slot is never handed back by
    /// [`StorageBackend::allocate`] — until [`FileDisk::commit_frees`].
    /// Persistence layers turn this on so that blocks freed *after* a
    /// commit point still hold the data that commit point's metadata
    /// references. A block allocated since the last seal is referenced
    /// by no commit point, so its free recycles the slot at once.
    pub fn set_defer_recycling(&mut self, defer: bool) {
        self.alloc.set_defer_recycling(defer);
    }

    /// Seals a commit point: every slot live now is quarantined when
    /// freed. Call right before the commit is attempted (a commit that
    /// reports failure may still become durable).
    pub fn seal_commit_point(&mut self) {
        self.alloc.seal_commit_point();
    }

    /// Releases every quarantined slot for recycling. Call after the
    /// caller's own metadata (which lists those slots as free) is durable.
    pub fn commit_frees(&mut self) {
        self.alloc.commit_frees();
    }

    /// Restores a persisted free list after [`FileDisk::open`]. Ids must
    /// be in-range and distinct; the matching slots become dead until
    /// re-allocated.
    pub fn restore_free_list(&mut self, free: Vec<u64>) -> Result<()> {
        self.alloc.restore_free_list(free)
    }

    fn offset(&self, id: BlockId) -> u64 {
        id.raw() * self.block_bytes as u64
    }

    fn check_live(&self, id: BlockId) -> Result<()> {
        if self.alloc.is_dead(id.raw()) {
            return Err(ExtMemError::BadBlockId(id));
        }
        Ok(())
    }

    /// Reads live block `id`'s slot into the scratch buffer: one `pread`,
    /// or none for a stale slot (`false`), which holds an empty block.
    fn load(&mut self, id: BlockId) -> Result<bool> {
        self.check_live(id)?;
        if self.alloc.is_stale(id.raw()) {
            return Ok(false);
        }
        let off = self.offset(id);
        self.file.read_exact_at(&mut self.scratch, off)?;
        Ok(true)
    }

    /// Writes a zero header over every stale slot, so the file decodes
    /// it as the empty block reads already answer. A slot whose write
    /// fails stays stale.
    fn reset_stale(&mut self) -> Result<()> {
        for id in self.alloc.stale_slots() {
            // Decode reads `len` items, so the 24-byte header is all
            // that needs resetting; stale item bytes past it are inert.
            self.file.write_all_at(&[0u8; 24], id * self.block_bytes as u64)?;
            self.alloc.clear_stale(id);
        }
        Ok(())
    }
}

impl Drop for FileDisk {
    fn drop(&mut self) {
        // Best-effort, with no fsync: nothing may depend on these resets
        // being durable, since no commit point references a stale slot.
        let _ = self.reset_stale();
    }
}

impl StorageBackend for FileDisk {
    fn block_capacity(&self) -> usize {
        self.block_capacity
    }

    fn read(&mut self, id: BlockId) -> Result<Block> {
        if !self.load(id)? {
            return Ok(Block::new(self.block_capacity));
        }
        Block::decode_from(self.block_capacity, &self.scratch)
    }

    /// One `pread` of the slot into the scratch buffer, then an in-place
    /// scan of its bytes: no `Block`, no item vector.
    fn probe(&mut self, id: BlockId, key: Key) -> Result<(Option<Value>, Option<BlockId>)> {
        if !self.load(id)? {
            return Ok((None, None));
        }
        Block::probe_encoded(self.block_capacity, &self.scratch, key)
    }

    fn write(&mut self, id: BlockId, block: &Block) -> Result<()> {
        self.check_live(id)?;
        debug_assert_eq!(block.capacity(), self.block_capacity);
        block.encode_into(&mut self.scratch);
        self.file.write_all_at(&self.scratch, self.offset(id))?;
        self.alloc.clear_stale(id.raw());
        Ok(())
    }

    fn allocate(&mut self) -> Result<BlockId> {
        let idx = match self.alloc.peek_recycle() {
            Some(idx) => {
                // Recycled slot: no device write. It reads as empty until
                // written, and `sync` resets it if it never is.
                self.alloc.commit_recycle(idx);
                idx
            }
            None => {
                // Extend the file first: the extension is zero-filled by
                // the OS, and an all-zero slot *is* a valid empty block,
                // so no initialization writes are needed.
                let new_slots = self.alloc.slots() + 1;
                self.file.set_len(new_slots * self.block_bytes as u64)?;
                self.alloc.commit_grow(1)
            }
        };
        Ok(BlockId(idx))
    }

    fn allocate_contiguous(&mut self, n: usize) -> Result<BlockId> {
        // Recycle a contiguous run of free slots when one exists (only
        // recyclable frees — quarantined slots still hold data a commit
        // point references). No device write: the run's slots read as
        // empty until written, and `sync` resets those never written.
        if let Some(base) = self.alloc.peek_run(n) {
            self.alloc.commit_run(base, n);
            return Ok(BlockId(base));
        }
        // One metadata syscall for the whole range — the zero-filled
        // extension already decodes as n empty blocks.
        let new_slots = self.alloc.slots() + n as u64;
        self.file.set_len(new_slots * self.block_bytes as u64)?;
        Ok(BlockId(self.alloc.commit_grow(n as u64)))
    }

    fn free(&mut self, id: BlockId) -> Result<()> {
        self.check_live(id)?;
        self.alloc.release(id.raw());
        Ok(())
    }

    fn live_blocks(&self) -> u64 {
        self.alloc.live()
    }

    /// Resets every slot still stale, then `fdatasync`s the file.
    fn sync(&mut self) -> Result<()> {
        self.reset_stale()?;
        self.file.sync_data()?;
        Ok(())
    }
}

/// The persistence surface, forwarded to the inherent methods (which
/// remain the primary documentation).
impl PersistentBackend for FileDisk {
    fn slots(&self) -> u64 {
        FileDisk::slots(self)
    }

    fn free_list(&self) -> Vec<u64> {
        FileDisk::free_list(self)
    }

    fn free_count(&self) -> usize {
        FileDisk::free_count(self)
    }

    fn set_defer_recycling(&mut self, defer: bool) {
        FileDisk::set_defer_recycling(self, defer)
    }

    fn seal_commit_point(&mut self) {
        FileDisk::seal_commit_point(self)
    }

    fn commit_frees(&mut self) {
        FileDisk::commit_frees(self)
    }

    fn restore_free_list(&mut self, free: Vec<u64>) -> Result<()> {
        FileDisk::restore_free_list(self, free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;

    #[test]
    fn round_trip_on_real_file() {
        let mut d = FileDisk::temp(4).unwrap();
        let id = d.allocate().unwrap();
        let mut blk = d.read(id).unwrap();
        assert!(blk.is_empty());
        blk.push(Item::new(7, 8)).unwrap();
        blk.set_tag(3);
        blk.set_next(Some(BlockId(0)));
        d.write(id, &blk).unwrap();
        let back = d.read(id).unwrap();
        assert_eq!(back, blk);
    }

    #[test]
    fn many_blocks_keep_distinct_contents() {
        let mut d = FileDisk::temp(3).unwrap();
        let ids: Vec<_> = (0..20).map(|_| d.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let mut blk = Block::new(3);
            blk.push(Item::new(i as u64, 1000 + i as u64)).unwrap();
            d.write(id, &blk).unwrap();
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(d.read(id).unwrap().find(i as u64), Some(1000 + i as u64));
        }
    }

    #[test]
    fn freed_id_rejected_then_recycled() {
        let mut d = FileDisk::temp(2).unwrap();
        let a = d.allocate().unwrap();
        d.free(a).unwrap();
        assert!(d.read(a).is_err());
        let b = d.allocate().unwrap();
        assert_eq!(a, b);
        assert!(d.read(b).unwrap().is_empty());
    }

    #[test]
    fn recycled_slot_resets_stale_contents() {
        let mut d = FileDisk::temp(2).unwrap();
        let a = d.allocate().unwrap();
        let mut blk = d.read(a).unwrap();
        blk.push(Item::new(9, 9)).unwrap();
        blk.set_next(Some(BlockId(0)));
        blk.set_tag(7);
        d.write(a, &blk).unwrap();
        d.free(a).unwrap();
        let b = d.allocate().unwrap();
        assert_eq!(a, b);
        let back = d.read(b).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.tag(), 0);
        assert_eq!(back.next(), None);
    }

    #[test]
    fn contiguous_range_reads_empty_without_writes() {
        let mut d = FileDisk::temp(3).unwrap();
        let base = d.allocate_contiguous(50).unwrap();
        for i in 0..50 {
            assert!(d.read(BlockId(base.raw() + i)).unwrap().is_empty());
        }
        assert_eq!(d.live_blocks(), 50);
    }

    #[test]
    fn out_of_range_id_rejected() {
        let mut d = FileDisk::temp(2).unwrap();
        assert!(d.read(BlockId(5)).is_err());
        assert!(d.write(BlockId(5), &Block::new(2)).is_err());
    }

    #[test]
    fn free_check_stays_fast_under_churn() {
        // Regression shape for the old O(|free|) scan: heavy free/alloc
        // churn with a large standing free list. With the liveness
        // bitmap this finishes instantly; with the linear scan it was
        // quadratic.
        let mut d = FileDisk::temp(2).unwrap();
        let ids: Vec<_> = (0..2000).map(|_| d.allocate().unwrap()).collect();
        for &id in &ids[1000..] {
            d.free(id).unwrap();
        }
        for _ in 0..2000 {
            let id = d.allocate().unwrap();
            let _ = d.read(id).unwrap();
            d.free(id).unwrap();
        }
        assert_eq!(d.live_blocks(), 1000);
    }

    #[test]
    fn out_of_order_frees_coalesce_into_a_recyclable_run() {
        let mut d = FileDisk::temp(2).unwrap();
        let _anchor = d.allocate().unwrap(); // keep slot 0 live
        let ids: Vec<_> = (0..6).map(|_| d.allocate().unwrap()).collect();
        for &i in &[3usize, 1, 5, 2, 4] {
            d.free(ids[i]).unwrap();
        }
        let base = d.allocate_contiguous(5).unwrap();
        assert_eq!(base, ids[1], "the coalesced run is recycled, not the file grown");
        assert_eq!(d.slots(), 7, "no growth");
        for k in 0..5 {
            assert!(d.read(BlockId(base.raw() + k)).unwrap().is_empty());
        }
    }

    #[test]
    fn contiguous_search_stays_fast_with_a_fragmented_free_list() {
        // Regression shape for the old per-call clone+sort: a large free
        // list fragmented into runs of 2 (so no run of 3 ever exists),
        // probed by many region rebuilds that all fall through to file
        // growth. The incremental interval set makes each probe O(runs)
        // with no allocation; re-sorting the flat list made every one of
        // these failures pay O(F log F).
        let mut d = FileDisk::temp(2).unwrap();
        let ids: Vec<_> = (0..20_000).map(|_| d.allocate().unwrap()).collect();
        for quad in ids.chunks(4) {
            d.free(quad[0]).unwrap();
            d.free(quad[1]).unwrap();
        }
        for _ in 0..2_000 {
            let base = d.allocate_contiguous(3).unwrap();
            assert!(base.raw() >= 20_000, "no run of 3 exists among the frees");
        }
    }

    #[test]
    fn open_resumes_a_created_file() {
        let path =
            std::env::temp_dir().join(format!("dxh-filedisk-open-{}.blk", std::process::id()));
        let (id_a, id_b, free_list) = {
            let mut d = FileDisk::create(&path, 4).unwrap();
            let a = d.allocate().unwrap();
            let b = d.allocate().unwrap();
            let c = d.allocate().unwrap();
            let mut blk = Block::new(4);
            blk.push(Item::new(1, 11)).unwrap();
            d.write(a, &blk).unwrap();
            let mut blk = Block::new(4);
            blk.push(Item::new(2, 22)).unwrap();
            d.write(b, &blk).unwrap();
            d.free(c).unwrap();
            d.sync().unwrap();
            (a, b, d.free_list())
        };
        let mut d = FileDisk::open(&path, 4).unwrap();
        assert_eq!(d.slots(), 3);
        d.restore_free_list(free_list).unwrap();
        assert_eq!(d.live_blocks(), 2);
        assert_eq!(d.read(id_a).unwrap().find(1), Some(11));
        assert_eq!(d.read(id_b).unwrap().find(2), Some(22));
        // The freed slot is dead until re-allocated…
        assert!(d.read(BlockId(2)).is_err());
        // …and the next allocate recycles it, reset to empty.
        let c = d.allocate().unwrap();
        assert_eq!(c, BlockId(2));
        assert!(d.read(c).unwrap().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deferred_recycling_quarantines_contents_until_commit() {
        let mut d = FileDisk::temp(2).unwrap();
        d.set_defer_recycling(true);
        let a = d.allocate().unwrap();
        let mut blk = d.read(a).unwrap();
        blk.push(Item::new(5, 50)).unwrap();
        d.write(a, &blk).unwrap();
        // A commit point is about to reference `a`.
        d.seal_commit_point();
        d.free(a).unwrap();
        // Dead for reads, but NOT recyclable yet: neither allocation path
        // may hand the slot back (and let a write clobber it).
        assert!(d.read(a).is_err());
        let b = d.allocate().unwrap();
        assert_ne!(a, b, "quarantined slot must not be recycled");
        assert_ne!(d.allocate_contiguous(1).unwrap(), a, "nor recycled as a run");
        // The quarantined contents are physically intact (a recovery path
        // re-marking the slot live would still read the old data).
        d.restore_free_list(Vec::new()).unwrap();
        assert_eq!(d.read(a).unwrap().find(5), Some(50));
        // After commit, frees recycle normally again.
        let mut d = FileDisk::temp(2).unwrap();
        d.set_defer_recycling(true);
        let a = d.allocate().unwrap();
        d.seal_commit_point();
        d.free(a).unwrap();
        assert_eq!(d.free_list(), vec![a.raw()], "pending frees appear in the persisted list");
        d.commit_frees();
        let b = d.allocate().unwrap();
        assert_eq!(a, b, "committed slot is recyclable");
    }

    #[test]
    fn born_slots_recycle_within_one_commit_interval() {
        let mut d = FileDisk::temp(2).unwrap();
        d.set_defer_recycling(true);
        let _anchor = d.allocate().unwrap();
        d.seal_commit_point();
        // Born since the seal: no commit point references it, so its
        // free skips the quarantine.
        let a = d.allocate().unwrap();
        let mut blk = Block::new(2);
        blk.push(Item::new(5, 50)).unwrap();
        d.write(a, &blk).unwrap();
        d.free(a).unwrap();
        assert_eq!(d.allocate().unwrap(), a, "born slot recycles at once");
        assert!(d.read(a).unwrap().is_empty(), "and reads as empty");
        // The same for a whole run, recycled by the contiguous path.
        let base = d.allocate_contiguous(3).unwrap();
        for k in 0..3 {
            d.free(BlockId(base.raw() + k)).unwrap();
        }
        let slots = d.slots();
        assert_eq!(d.allocate_contiguous(3).unwrap(), base, "born run recycles at once");
        assert_eq!(d.slots(), slots, "no growth");
        // Once sealed, the same slot is quarantined again.
        d.seal_commit_point();
        d.free(a).unwrap();
        assert_ne!(d.allocate().unwrap(), a, "a sealed slot's free is quarantined");
    }

    /// The 24 header bytes of slot `id` as the file holds them.
    fn raw_header(d: &FileDisk, id: BlockId) -> [u8; 24] {
        let mut h = [0u8; 24];
        d.file.read_exact_at(&mut h, d.offset(id)).unwrap();
        h
    }

    #[test]
    fn recycled_run_reads_and_probes_empty_without_a_pread() {
        let mut d = FileDisk::temp(2).unwrap();
        let base = d.allocate_contiguous(4).unwrap();
        for k in 0..4 {
            let mut blk = Block::new(2);
            blk.push(Item::new(k, k + 100)).unwrap();
            blk.set_next(Some(BlockId(0)));
            d.write(BlockId(base.raw() + k), &blk).unwrap();
        }
        for k in 0..4 {
            d.free(BlockId(base.raw() + k)).unwrap();
        }
        assert_eq!(d.allocate_contiguous(4).unwrap(), base);
        // Nothing was written: the old images are still on the device.
        assert_ne!(raw_header(&d, base), [0u8; 24], "recycling wrote no zero fill");
        // Cut the file out from under the run: any pread now fails, so
        // answers that succeed were served without one.
        d.file.set_len(0).unwrap();
        for k in 0..4 {
            let id = BlockId(base.raw() + k);
            assert!(d.read(id).unwrap().is_empty());
            assert_eq!(d.probe(id, k).unwrap(), (None, None));
        }
    }

    #[test]
    fn a_stale_slot_freed_before_sync_costs_no_reset() {
        let mut d = FileDisk::temp(2).unwrap();
        let a = d.allocate().unwrap();
        let mut blk = Block::new(2);
        blk.push(Item::new(1, 11)).unwrap();
        d.write(a, &blk).unwrap();
        d.free(a).unwrap();
        assert_eq!(d.allocate().unwrap(), a);
        d.free(a).unwrap();
        d.sync().unwrap();
        assert_eq!(raw_header(&d, a)[..8], 1u64.to_le_bytes(), "no reset was written");
        // A slot written after recycling owes no reset either.
        assert_eq!(d.allocate().unwrap(), a);
        let mut blk = Block::new(2);
        blk.push(Item::new(2, 22)).unwrap();
        blk.push(Item::new(3, 33)).unwrap();
        d.write(a, &blk).unwrap();
        d.sync().unwrap();
        assert_eq!(d.read(a).unwrap(), blk);
    }

    #[test]
    fn unwritten_recycled_slots_decode_empty_on_a_raw_reopen() {
        let path =
            std::env::temp_dir().join(format!("dxh-filedisk-stale-{}.blk", std::process::id()));
        let mut d = FileDisk::create(&path, 2).unwrap();
        let ids: Vec<_> = (0..3).map(|_| d.allocate().unwrap()).collect();
        for &id in &ids {
            let mut blk = Block::new(2);
            blk.push(Item::new(id.raw(), 7)).unwrap();
            blk.set_next(Some(ids[0]));
            d.write(id, &blk).unwrap();
        }
        d.free(ids[1]).unwrap();
        assert_eq!(d.allocate().unwrap(), ids[1]);
        d.sync().unwrap();
        // The sync reset the live, never-written slot on the device.
        let mut raw = FileDisk::open(&path, 2).unwrap();
        let back = raw.read(ids[1]).unwrap();
        assert!(back.is_empty() && back.next().is_none(), "synced reset: {back:?}");
        assert_eq!(raw.read(ids[0]).unwrap().find(ids[0].raw()), Some(7));
        drop(raw);
        // Without a sync, the drop performs the same reset.
        d.free(ids[2]).unwrap();
        assert_eq!(d.allocate().unwrap(), ids[2]);
        drop(d);
        let mut raw = FileDisk::open(&path, 2).unwrap();
        assert!(raw.read(ids[2]).unwrap().is_empty(), "drop reset");
        drop(raw);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restore_free_list_rejects_bad_ids() {
        let mut d = FileDisk::temp(2).unwrap();
        let _ = d.allocate().unwrap();
        assert!(d.restore_free_list(vec![5]).is_err(), "out of range");
        assert!(d.restore_free_list(vec![0, 0]).is_err(), "duplicate");
        assert!(d.restore_free_list(vec![0]).is_ok());
    }

    #[test]
    fn slot_with_an_overlong_stored_len_is_corrupt_not_a_panic() {
        let mut d = FileDisk::temp(2).unwrap();
        let id = d.allocate().unwrap();
        let mut blk = Block::new(2);
        blk.push(Item::new(1, 11)).unwrap();
        d.write(id, &blk).unwrap();
        assert_eq!(d.probe(id, 1).unwrap(), (Some(11), None));
        // Stored len 3 > capacity 2: the scan must not run off the slot.
        d.file.write_all_at(&3u64.to_le_bytes(), d.offset(id)).unwrap();
        assert!(matches!(d.probe(id, 1), Err(ExtMemError::Corrupt(_))));
        assert!(matches!(d.read(id), Err(ExtMemError::Corrupt(_))));
    }

    #[test]
    fn sync_succeeds() {
        let mut d = FileDisk::temp(2).unwrap();
        let _ = d.allocate().unwrap();
        d.sync().unwrap();
    }
}
