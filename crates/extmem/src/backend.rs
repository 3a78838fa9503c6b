//! The storage-backend abstraction behind [`crate::Disk`].

use std::collections::BTreeMap;

use crate::block::{Block, BlockId};
use crate::error::Result;
use crate::item::{Key, Value};

/// Raw block storage: an unbounded array of fixed-capacity blocks.
///
/// Backends are dumb — they neither count I/Os nor cache; both concerns
/// live in [`crate::Disk`] so that accounting is uniform across backends.
pub trait StorageBackend {
    /// Block capacity in items (the model's `b`); constant per backend.
    fn block_capacity(&self) -> usize;

    /// Reads block `id` into an owned [`Block`].
    fn read(&mut self, id: BlockId) -> Result<Block>;

    /// Probes block `id` for `key` without handing out the block: the
    /// value found (first match, as [`Block::find`]) and the block's
    /// chain pointer (as [`Block::next`]). Read-only, and answers exactly
    /// as [`StorageBackend::read`] followed by `find`/`next` — which is
    /// the default. Backends override it to scan the stored bytes in
    /// place instead of building a `Block`.
    fn probe(&mut self, id: BlockId, key: Key) -> Result<(Option<Value>, Option<BlockId>)> {
        let blk = self.read(id)?;
        Ok((blk.find(key), blk.next()))
    }

    /// Overwrites block `id`.
    fn write(&mut self, id: BlockId, block: &Block) -> Result<()>;

    /// Allocates a fresh (empty) block and returns its id. Freed ids may
    /// be recycled.
    fn allocate(&mut self) -> Result<BlockId>;

    /// Allocates `n` blocks with **consecutive** ids and returns the first.
    ///
    /// Contiguity is what lets a hash table compute a bucket's block
    /// address from `(base, bucket)` alone — an address function that fits
    /// in O(1) words of internal memory, as the paper's model requires —
    /// instead of keeping a per-bucket pointer table. A contiguous run of
    /// freed ids may be recycled (region frees and crash GC return whole
    /// ranges, so runs are the common case); both built-in backends use
    /// the identical lowest-first-fit policy (the internal `FreeRuns`
    /// interval set) so the same workload produces the same ids on
    /// every backend.
    fn allocate_contiguous(&mut self, n: usize) -> Result<BlockId>;

    /// Returns block `id` to the allocator. Reading a freed id is an error
    /// until it is re-allocated.
    fn free(&mut self, id: BlockId) -> Result<()>;

    /// Number of live (allocated) blocks.
    fn live_blocks(&self) -> u64;

    /// Flushes any OS-level buffering (no-op for in-memory backends).
    fn sync(&mut self) -> Result<()>;
}

/// The persistence surface a durable store needs from a backend beyond
/// raw block I/O: allocator introspection plus the deferred-recycling
/// protocol that keeps blocks a commit point references physically
/// intact until a later commit point lists them as free.
///
/// [`crate::FileDisk`] implements it over a real file and
/// [`crate::SimDisk`] over the deterministic crash-simulation device, so
/// a persistence layer written against this trait runs — and is torture-
/// tested — without caring where the blocks live.
///
/// The protocol, per commit point: call
/// [`PersistentBackend::seal_commit_point`] right before the commit is
/// attempted, and [`PersistentBackend::commit_frees`] after it is
/// durable.
pub trait PersistentBackend: StorageBackend {
    /// High-water mark: total slots ever allocated (free ones included).
    fn slots(&self) -> u64;

    /// Every dead slot — the recyclable stack plus any quarantined frees
    /// — in recycle order. Serialize this to persist the allocator.
    fn free_list(&self) -> Vec<u64>;

    /// Number of dead slots (recyclable plus quarantined) without
    /// cloning the list: `slots() == live_blocks() + free_count() as u64`
    /// always holds.
    fn free_count(&self) -> usize;

    /// Quarantines future frees (on) or recycles them immediately (off,
    /// the default). With deferral on, a freed slot that was live at the
    /// last [`PersistentBackend::seal_commit_point`] keeps its contents
    /// intact — and is never re-allocated — until
    /// [`PersistentBackend::commit_frees`]. A slot allocated since that
    /// seal is referenced by no commit point, so its free recycles at
    /// once.
    fn set_defer_recycling(&mut self, defer: bool);

    /// Seals a commit point: every slot live now may be referenced by
    /// the commit about to be attempted, so its later free is
    /// quarantined. Call right before the commit is attempted, not after
    /// it succeeds — a commit that reports failure may still become
    /// durable.
    fn seal_commit_point(&mut self);

    /// Releases every quarantined slot for recycling. Call after the
    /// caller's own metadata (which lists those slots as free) is durable.
    fn commit_frees(&mut self);

    /// Restores a persisted free list after a reopen. Ids must be
    /// in-range and distinct; the matching slots become dead until
    /// re-allocated.
    fn restore_free_list(&mut self, free: Vec<u64>) -> Result<()>;
}

/// Free block ids as a coalesced interval set (`start → end`,
/// end-exclusive, maximal runs), maintained incrementally by the
/// allocator alongside its LIFO recycle stack.
///
/// This is the shared policy behind every backend's
/// [`StorageBackend::allocate_contiguous`] — the **lowest** maximal run
/// of at least `n` consecutive free ids wins — so block ids stay
/// backend-deterministic. Keeping the runs coalesced as frees arrive
/// makes the run search `O(runs)` with no allocation (after crash GC or
/// a region free the returned ranges coalesce into a handful of runs),
/// where re-deriving it from the flat free list cost a clone plus an
/// `O(F log F)` sort on every region rebuild — even the ones that found
/// nothing and fell through to file growth.
#[derive(Debug, Default)]
pub(crate) struct FreeRuns {
    runs: BTreeMap<u64, u64>,
}

impl FreeRuns {
    /// Rebuilds from a flat id list (reopen path).
    pub(crate) fn rebuild(&mut self, ids: &[u64]) {
        self.runs.clear();
        for &id in ids {
            self.insert(id);
        }
    }

    /// Marks `id` free, coalescing with adjacent runs. `id` must not
    /// already be free (callers guard with their liveness checks).
    pub(crate) fn insert(&mut self, id: u64) {
        // Absorb a run starting right after id, then either extend a run
        // ending right at id or open a new one.
        let end = self.runs.remove(&(id + 1)).unwrap_or(id + 1);
        if let Some((_, e)) = self.runs.range_mut(..=id).next_back() {
            debug_assert!(*e <= id, "id {id} already free");
            if *e == id {
                *e = end;
                return;
            }
        }
        self.runs.insert(id, end);
    }

    /// Un-frees a single `id` (the LIFO `allocate` path), splitting the
    /// run containing it.
    pub(crate) fn remove(&mut self, id: u64) {
        let (&s, &e) = self.runs.range(..=id).next_back().expect("id must be free");
        debug_assert!(id < e, "id {id} not free");
        self.runs.remove(&s);
        if s < id {
            self.runs.insert(s, id);
        }
        if id + 1 < e {
            self.runs.insert(id + 1, e);
        }
    }

    /// Un-frees `[base, end)`, which must lie within one run (as returned
    /// by [`FreeRuns::first_run_of`]).
    pub(crate) fn remove_range(&mut self, base: u64, end: u64) {
        let (&s, &e) = self.runs.range(..=base).next_back().expect("run must be free");
        debug_assert!(base >= s && end <= e, "[{base},{end}) not within a free run");
        self.runs.remove(&s);
        if s < base {
            self.runs.insert(s, base);
        }
        if end < e {
            self.runs.insert(end, e);
        }
    }

    /// The start of the lowest maximal run of at least `n` consecutive
    /// free ids, if any.
    pub(crate) fn first_run_of(&self, n: usize) -> Option<u64> {
        if n == 0 {
            return None;
        }
        let n = n as u64;
        self.runs.iter().find(|&(&s, &e)| e - s >= n).map(|(&s, _)| s)
    }
}

/// The allocator state machine shared by [`crate::FileDisk`] and
/// [`crate::SimDisk`]: LIFO single-slot recycling, lowest-first-fit
/// contiguous runs ([`FreeRuns`]), O(1) liveness, and the
/// deferred-recycling quarantine of [`PersistentBackend`]. One
/// implementation — not one per backend — is what keeps block ids
/// backend-deterministic by construction: the torture harness certifies
/// crash-safety of exactly the allocator the real store runs.
///
/// Two per-slot facts keep recycling at the price the paper charges:
///
/// * **born** — allocated since the last sealed commit point
///   ([`SlotAllocator::seal_commit_point`]). No commit point that is or
///   may become durable references such a slot, so under deferral its
///   free skips the quarantine and goes straight back to the recycle
///   stack. Every other free is quarantined until
///   [`SlotAllocator::commit_frees`].
/// * **stale** — recycled, but its device image not yet rewritten. The
///   backend serves it as an empty block without touching the device,
///   and resets its header once, at the next `sync`
///   ([`SlotAllocator::stale_slots`]), only if it is still live and
///   unwritten by then. Growth is never stale: the device zero-fills
///   extensions.
///
/// Device I/O (file growth) happens in the backend *between* a `peek_*`
/// and its `commit_*`: the peek chooses without mutating, so a failed
/// device op leaves the allocator state untouched (the slot stays
/// safely on the free list).
#[derive(Debug, Default)]
pub(crate) struct SlotAllocator {
    /// High-water mark: total slots ever allocated (free ones included).
    slots: u64,
    /// Recycle stack: freed ids, reused LIFO.
    free: Vec<u64>,
    /// `free` as coalesced intervals, for O(runs) contiguous-run search
    /// (quarantined ids join only at [`SlotAllocator::commit_frees`]).
    runs: FreeRuns,
    /// Freed ids quarantined from recycling until committed.
    pending_free: Vec<u64>,
    /// All dead ids (`free` ∪ `pending_free`) as a bitmap over
    /// `[0, slots)`, one bit per slot: the liveness check every accounted
    /// read makes is a shift and a mask. Bits at or past `slots` are
    /// always clear (so are those of the two bitmaps below).
    dead: Vec<u64>,
    /// Slots allocated since the last sealed commit point.
    born: Vec<u64>,
    /// Live recycled slots whose device image is not rewritten yet.
    stale: Vec<u64>,
    /// When set, freed slots are quarantined instead of recycled.
    defer_recycling: bool,
    live: u64,
}

impl SlotAllocator {
    /// An allocator over `[0, slots)` with every slot live — the reopen
    /// shape (restore the persisted free list afterwards) and, with
    /// `slots == 0`, the fresh-device shape.
    pub(crate) fn with_all_live(slots: u64) -> Self {
        SlotAllocator {
            slots,
            live: slots,
            dead: bitmap_for(slots),
            born: bitmap_for(slots),
            stale: bitmap_for(slots),
            ..Default::default()
        }
    }

    /// High-water mark.
    pub(crate) fn slots(&self) -> u64 {
        self.slots
    }

    /// Live (allocated) slots.
    pub(crate) fn live(&self) -> u64 {
        self.live
    }

    /// Whether `id` is out of range or on the dead list.
    pub(crate) fn is_dead(&self, id: u64) -> bool {
        id >= self.slots || bit(&self.dead, id)
    }

    /// Whether live `id` is recycled but not yet rewritten: its device
    /// image is some earlier block's, and it must read as empty.
    pub(crate) fn is_stale(&self, id: u64) -> bool {
        id < self.slots && bit(&self.stale, id)
    }

    /// Clears live `id`'s stale bit: its device image was rewritten (a
    /// block write, or a sync's header reset), or it is being freed.
    pub(crate) fn clear_stale(&mut self, id: u64) {
        set_bit(&mut self.stale, id, false);
    }

    /// Every stale slot, ascending — the header resets a `sync` owes
    /// before its data fsync.
    pub(crate) fn stale_slots(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (w, &word) in self.stale.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                out.push(w as u64 * 64 + word.trailing_zeros() as u64);
                word &= word - 1;
            }
        }
        out
    }

    /// Every dead slot (recyclable plus quarantined) in recycle order.
    pub(crate) fn free_list(&self) -> Vec<u64> {
        let mut out = self.free.clone();
        out.extend_from_slice(&self.pending_free);
        out
    }

    /// Number of dead slots without cloning the list.
    pub(crate) fn free_count(&self) -> usize {
        self.free.len() + self.pending_free.len()
    }

    /// See [`PersistentBackend::set_defer_recycling`].
    pub(crate) fn set_defer_recycling(&mut self, defer: bool) {
        self.defer_recycling = defer;
        if !defer {
            self.commit_frees();
        }
    }

    /// See [`PersistentBackend::commit_frees`].
    pub(crate) fn commit_frees(&mut self) {
        for &id in &self.pending_free {
            self.runs.insert(id);
        }
        self.free.append(&mut self.pending_free);
    }

    /// See [`PersistentBackend::seal_commit_point`]: no slot is born any
    /// more, so every later free of a slot live now is quarantined.
    pub(crate) fn seal_commit_point(&mut self) {
        self.born.fill(0);
    }

    /// See [`PersistentBackend::restore_free_list`]. The device image
    /// becomes the truth again: nothing is born or stale afterwards.
    pub(crate) fn restore_free_list(&mut self, free: Vec<u64>) -> Result<()> {
        let mut dead = bitmap_for(self.slots);
        for &id in &free {
            if id >= self.slots || bit(&dead, id) {
                return Err(crate::error::ExtMemError::Corrupt(format!("bad free-list id {id}")));
            }
            set_bit(&mut dead, id, true);
        }
        self.live = self.slots - free.len() as u64;
        self.runs.rebuild(&free);
        self.free = free;
        self.pending_free.clear();
        self.dead = dead;
        self.born.fill(0);
        self.stale.fill(0);
        Ok(())
    }

    /// The slot the next single-slot recycle would take, without taking
    /// it.
    pub(crate) fn peek_recycle(&self) -> Option<u64> {
        self.free.last().copied()
    }

    /// Takes `id` — which must be the current [`SlotAllocator::peek_recycle`]
    /// answer — off the free list, born and stale.
    pub(crate) fn commit_recycle(&mut self, id: u64) {
        let popped = self.free.pop();
        debug_assert_eq!(popped, Some(id), "commit must follow peek");
        self.runs.remove(id);
        self.take_recycled(id);
    }

    /// The lowest recyclable free run of at least `n` slots, without
    /// taking it.
    pub(crate) fn peek_run(&self, n: usize) -> Option<u64> {
        self.runs.first_run_of(n)
    }

    /// Takes the run `[base, base + n)` — as returned by
    /// [`SlotAllocator::peek_run`] — off the free list, born and stale.
    pub(crate) fn commit_run(&mut self, base: u64, n: usize) {
        let end = base + n as u64;
        self.free.retain(|&id| !(base..end).contains(&id));
        self.runs.remove_range(base, end);
        for id in base..end {
            self.take_recycled(id);
        }
    }

    /// Marks free `id` live, born and stale.
    fn take_recycled(&mut self, id: u64) {
        set_bit(&mut self.dead, id, false);
        set_bit(&mut self.born, id, true);
        set_bit(&mut self.stale, id, true);
        self.live += 1;
    }

    /// Extends the high-water mark by `n` fresh live slots (the backend
    /// has already grown the device) and returns the first new id. They
    /// are born, but not stale: the extension reads as zeros.
    pub(crate) fn commit_grow(&mut self, n: u64) -> u64 {
        let base = self.slots;
        self.slots += n;
        let words = self.slots.div_ceil(64) as usize;
        self.dead.resize(words, 0);
        self.born.resize(words, 0);
        self.stale.resize(words, 0);
        for id in base..self.slots {
            set_bit(&mut self.born, id, true);
        }
        self.live += n;
        base
    }

    /// Returns live `id` to the allocator: quarantined under deferral
    /// unless it was born since the last sealed commit point.
    pub(crate) fn release(&mut self, id: u64) {
        self.clear_stale(id);
        if self.defer_recycling && !bit(&self.born, id) {
            self.pending_free.push(id);
        } else {
            self.free.push(id);
            self.runs.insert(id);
        }
        set_bit(&mut self.dead, id, true);
        set_bit(&mut self.born, id, false);
        self.live -= 1;
    }
}

/// An all-clear bitmap covering `slots` ids.
fn bitmap_for(slots: u64) -> Vec<u64> {
    vec![0; slots.div_ceil(64) as usize]
}

/// Bit `id` of `map` (which must cover it).
#[inline]
fn bit(map: &[u64], id: u64) -> bool {
    (map[(id / 64) as usize] >> (id % 64)) & 1 == 1
}

/// Sets bit `id` of `map` to `on`.
#[inline]
fn set_bit(map: &mut [u64], id: u64, on: bool) {
    let word = &mut map[(id / 64) as usize];
    if on {
        *word |= 1 << (id % 64);
    } else {
        *word &= !(1 << (id % 64));
    }
}

#[cfg(test)]
mod tests {
    use super::{FreeRuns, SlotAllocator};

    /// The policy predecessor: sort the flat list, return the lowest
    /// maximal run of ≥ n. `FreeRuns` must agree with it exactly.
    fn reference_run(free: &[u64], n: usize) -> Option<u64> {
        if n == 0 || free.len() < n {
            return None;
        }
        let mut sorted = free.to_vec();
        sorted.sort_unstable();
        let mut run_start = 0usize;
        for i in 1..=sorted.len() {
            if i == sorted.len() || sorted[i] != sorted[i - 1] + 1 {
                if i - run_start >= n {
                    return Some(sorted[run_start]);
                }
                run_start = i;
            }
        }
        None
    }

    #[test]
    fn matches_the_sort_based_reference_policy() {
        // Out-of-order frees with gaps: runs [2,5), [7,8), [10,14).
        let ids = [12, 2, 10, 7, 4, 13, 3, 11];
        let mut runs = FreeRuns::default();
        runs.rebuild(&ids);
        for n in 0..6 {
            assert_eq!(runs.first_run_of(n), reference_run(&ids, n), "n = {n}");
        }
    }

    /// The reference model: a naive `BTreeSet` of free ids. Every query
    /// `FreeRuns` answers must agree with a linear scan of the set.
    fn model_first_run_of(model: &std::collections::BTreeSet<u64>, n: usize) -> Option<u64> {
        if n == 0 {
            return None;
        }
        let mut run_start: Option<u64> = None;
        let mut prev: Option<u64> = None;
        let mut len = 0usize;
        for &id in model {
            if prev == Some(id.wrapping_sub(1)) {
                len += 1;
            } else {
                run_start = Some(id);
                len = 1;
            }
            if len >= n {
                return run_start;
            }
            prev = Some(id);
        }
        None
    }

    mod properties {
        use std::collections::BTreeSet;

        use proptest::prelude::*;

        use super::super::{bit, FreeRuns, SlotAllocator};
        use super::model_first_run_of;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            /// Interleaved insert / remove / remove-range against the
            /// naive set model: after every mutation the coalesced
            /// interval set answers `first_run_of` exactly like a linear
            /// scan of the flat free set, for every run length that can
            /// occur. `FreeRuns` is load-bearing for crash GC (it decides
            /// which orphaned ranges region rebuilds recycle), so the
            /// agreement is checked exhaustively rather than on a few
            /// hand-picked shapes.
            #[test]
            fn free_runs_matches_a_btreeset_model(
                ops in proptest::collection::vec((0u8..4, 0u64..48, 1u64..6), 1..250),
            ) {
                let mut runs = FreeRuns::default();
                let mut model: BTreeSet<u64> = BTreeSet::new();
                for (sel, id, n) in ops {
                    match sel {
                        // Free an id (skip ids already free — the real
                        // allocators guard with their liveness checks).
                        0 | 1 => {
                            if model.insert(id) {
                                runs.insert(id);
                            }
                        }
                        // Re-allocate a single free id (LIFO allocate).
                        2 => {
                            if model.remove(&id) {
                                runs.remove(id);
                            }
                        }
                        // Contiguous allocation: take the lowest run of
                        // at least n, exactly as the backends do.
                        _ => {
                            let got = runs.first_run_of(n as usize);
                            prop_assert_eq!(
                                got,
                                model_first_run_of(&model, n as usize),
                                "first_run_of({}) diverged from the model", n
                            );
                            if let Some(base) = got {
                                runs.remove_range(base, base + n);
                                for i in base..base + n {
                                    model.remove(&i);
                                }
                            }
                        }
                    }
                    for probe in 1..8usize {
                        prop_assert_eq!(
                            runs.first_run_of(probe),
                            model_first_run_of(&model, probe),
                            "probe length {} diverged after an op", probe
                        );
                    }
                }
            }

            /// The same model one level up: the whole `SlotAllocator`
            /// driven through grow, release, defer on/off, commit, seal,
            /// block writes, single-slot recycle and run recycle, against
            /// a model of free ids (split by why they are recyclable),
            /// quarantined ids, born ids and stale ids. Every recycled id
            /// must be committed-free or have been born since the last
            /// seal; a sealed slot's free under deferral must always be
            /// quarantined; stale ⊆ live. After every op the liveness,
            /// born and stale bitmaps answer exactly like the model for
            /// every id (out of range included), the run search only sees
            /// recyclable ids, and the live/free counts add up.
            #[test]
            fn slot_allocator_matches_a_model_with_born_and_stale_sets(
                ops in proptest::collection::vec((0u8..10, 0u64..1024, 1u64..6), 1..250),
            ) {
                let mut alloc = SlotAllocator::default();
                let mut slots = 0u64;
                // Recyclable because a commit point lists them free (or
                // deferral was off when they were freed).
                let mut committed: BTreeSet<u64> = BTreeSet::new();
                // Recyclable because they were born and freed since the
                // last seal: no commit point references them.
                let mut born_free: BTreeSet<u64> = BTreeSet::new();
                let mut pending: BTreeSet<u64> = BTreeSet::new();
                let mut born: BTreeSet<u64> = BTreeSet::new();
                let mut stale: BTreeSet<u64> = BTreeSet::new();
                let mut defer = false;
                for (sel, raw, n) in ops {
                    match sel {
                        // Grow the device by n fresh live slots: born,
                        // never stale.
                        0 => {
                            prop_assert_eq!(alloc.commit_grow(n), slots);
                            born.extend(slots..slots + n);
                            slots += n;
                        }
                        // Release a live slot (dead picks are skipped, as
                        // the backends' liveness checks do).
                        1 | 2 if slots > 0 => {
                            let id = raw % slots;
                            if !alloc.is_dead(id) {
                                let sealed = !born.contains(&id);
                                alloc.release(id);
                                if !defer {
                                    committed.insert(id);
                                } else if sealed {
                                    prop_assert!(
                                        alloc.pending_free.contains(&id),
                                        "sealed slot {} freed without quarantine", id
                                    );
                                    pending.insert(id);
                                } else {
                                    born_free.insert(id);
                                }
                                born.remove(&id);
                                stale.remove(&id);
                            }
                        }
                        // Toggle deferral; turning it off commits.
                        3 => {
                            defer = !defer;
                            alloc.set_defer_recycling(defer);
                            if !defer {
                                committed.append(&mut pending);
                            }
                        }
                        4 => {
                            alloc.commit_frees();
                            committed.append(&mut pending);
                        }
                        // Single-slot recycle: a recyclable id, which
                        // comes back born and stale.
                        5 => {
                            if let Some(id) = alloc.peek_recycle() {
                                prop_assert!(
                                    committed.remove(&id) || born_free.remove(&id),
                                    "recycled {} is neither committed-free nor born since the \
                                     last seal", id
                                );
                                alloc.commit_recycle(id);
                                born.insert(id);
                                stale.insert(id);
                            } else {
                                prop_assert!(committed.is_empty() && born_free.is_empty());
                            }
                        }
                        // Run recycle: the lowest recyclable run of >= n.
                        6 => {
                            let free: BTreeSet<u64> = committed.union(&born_free).copied().collect();
                            let got = alloc.peek_run(n as usize);
                            prop_assert_eq!(got, model_first_run_of(&free, n as usize));
                            if let Some(base) = got {
                                alloc.commit_run(base, n as usize);
                                for id in base..base + n {
                                    prop_assert!(committed.remove(&id) || born_free.remove(&id));
                                    born.insert(id);
                                    stale.insert(id);
                                }
                            }
                        }
                        // Seal a commit point: nothing is born any more,
                        // and the sealed commit lists the born frees free.
                        7 => {
                            alloc.seal_commit_point();
                            born.clear();
                            committed.append(&mut born_free);
                        }
                        // A block write (or a sync's reset) to a live slot.
                        8 if slots > 0 => {
                            let id = raw % slots;
                            if !alloc.is_dead(id) {
                                alloc.clear_stale(id);
                                stale.remove(&id);
                            }
                        }
                        _ => {}
                    }
                    for id in 0..slots + 70 {
                        let dead = id >= slots
                            || committed.contains(&id)
                            || born_free.contains(&id)
                            || pending.contains(&id);
                        prop_assert_eq!(alloc.is_dead(id), dead, "is_dead({}) diverged", id);
                        prop_assert!(!stale.contains(&id) || !dead, "stale {} is not live", id);
                        prop_assert_eq!(alloc.is_stale(id), stale.contains(&id), "is_stale({})", id);
                        if id < slots {
                            prop_assert_eq!(bit(&alloc.born, id), born.contains(&id), "born({})", id);
                        }
                    }
                    prop_assert_eq!(alloc.stale_slots(), stale.iter().copied().collect::<Vec<_>>());
                    let dead = (committed.len() + born_free.len() + pending.len()) as u64;
                    prop_assert_eq!(alloc.free_count() as u64, dead);
                    prop_assert_eq!(alloc.live(), slots - dead);
                    prop_assert_eq!(alloc.slots(), slots);
                }
            }
        }
    }

    #[test]
    fn restore_free_list_rejects_out_of_range_and_duplicate_ids() {
        let mut alloc = SlotAllocator::with_all_live(130);
        assert!(alloc.restore_free_list(vec![3, 130]).is_err(), "out of range");
        assert!(alloc.restore_free_list(vec![64, 7, 64]).is_err(), "duplicate");
        // A rejected restore changes nothing.
        assert_eq!(alloc.live(), 130);
        assert!(!alloc.is_dead(3) && !alloc.is_dead(64));
        alloc.restore_free_list(vec![129, 0, 64]).unwrap();
        assert!(alloc.is_dead(0) && alloc.is_dead(64) && alloc.is_dead(129));
        assert!(!alloc.is_dead(1) && !alloc.is_dead(128));
        assert!(alloc.is_dead(130), "past the high-water mark");
        assert_eq!(alloc.live(), 127);
    }

    #[test]
    fn insert_coalesces_and_remove_splits() {
        let mut runs = FreeRuns::default();
        runs.insert(5);
        runs.insert(7);
        assert_eq!(runs.first_run_of(2), None);
        runs.insert(6); // bridges [5,6) and [7,8) into [5,8)
        assert_eq!(runs.first_run_of(3), Some(5));
        runs.remove(6); // splits back
        assert_eq!(runs.first_run_of(2), None);
        assert_eq!(runs.first_run_of(1), Some(5));
        runs.insert(6);
        runs.remove_range(5, 7); // leaves [7,8)
        assert_eq!(runs.first_run_of(1), Some(7));
        runs.remove(7);
        assert_eq!(runs.first_run_of(1), None);
    }
}
