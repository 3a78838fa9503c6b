//! In-memory storage backend: the exact, deterministic simulator disk.

use crate::backend::{FreeRuns, StorageBackend};
use crate::block::{Block, BlockId};
use crate::error::{ExtMemError, Result};
use crate::item::{Key, Value};

/// An in-RAM "disk": a growable array of blocks with a free list.
///
/// This is the backend used by all experiments — it makes I/O *counting*
/// exact while keeping simulated runs fast and deterministic. Use
/// [`crate::FileDisk`] to exercise the identical code paths against a
/// real file.
pub struct MemDisk {
    block_capacity: usize,
    slots: Vec<Option<Block>>,
    free: Vec<u64>,
    /// `free` as coalesced intervals, for O(runs) contiguous-run search.
    runs: FreeRuns,
    live: u64,
}

impl MemDisk {
    /// A new empty disk with block capacity `b` items.
    pub fn new(block_capacity: usize) -> Self {
        assert!(block_capacity > 0, "block capacity must be positive");
        MemDisk {
            block_capacity,
            slots: Vec::new(),
            free: Vec::new(),
            runs: FreeRuns::default(),
            live: 0,
        }
    }

    fn slot(&self, id: BlockId) -> Result<&Block> {
        self.slots
            .get(id.raw() as usize)
            .and_then(|s| s.as_ref())
            .ok_or(ExtMemError::BadBlockId(id))
    }
}

impl StorageBackend for MemDisk {
    fn block_capacity(&self) -> usize {
        self.block_capacity
    }

    fn read(&mut self, id: BlockId) -> Result<Block> {
        Ok(self.slot(id)?.clone())
    }

    /// Scans the stored block in place — no clone.
    fn probe(&mut self, id: BlockId, key: Key) -> Result<(Option<Value>, Option<BlockId>)> {
        let blk = self.slot(id)?;
        Ok((blk.find(key), blk.next()))
    }

    fn write(&mut self, id: BlockId, block: &Block) -> Result<()> {
        let slot = self
            .slots
            .get_mut(id.raw() as usize)
            .and_then(|s| s.as_mut())
            .ok_or(ExtMemError::BadBlockId(id))?;
        debug_assert_eq!(block.capacity(), self.block_capacity);
        *slot = block.clone();
        Ok(())
    }

    fn allocate(&mut self) -> Result<BlockId> {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            self.runs.remove(idx);
            self.slots[idx as usize] = Some(Block::new(self.block_capacity));
            return Ok(BlockId(idx));
        }
        let idx = self.slots.len() as u64;
        self.slots.push(Some(Block::new(self.block_capacity)));
        Ok(BlockId(idx))
    }

    fn allocate_contiguous(&mut self, n: usize) -> Result<BlockId> {
        // Same run-recycling policy as FileDisk, so block ids stay
        // identical across backends for identical workloads.
        if let Some(base) = self.runs.first_run_of(n) {
            let end = base + n as u64;
            self.free.retain(|&id| !(base..end).contains(&id));
            self.runs.remove_range(base, end);
            for id in base..end {
                self.slots[id as usize] = Some(Block::new(self.block_capacity));
            }
            self.live += n as u64;
            return Ok(BlockId(base));
        }
        let base = self.slots.len() as u64;
        self.slots.reserve(n);
        for _ in 0..n {
            self.slots.push(Some(Block::new(self.block_capacity)));
        }
        self.live += n as u64;
        Ok(BlockId(base))
    }

    fn free(&mut self, id: BlockId) -> Result<()> {
        let slot = self.slots.get_mut(id.raw() as usize).ok_or(ExtMemError::BadBlockId(id))?;
        if slot.is_none() {
            return Err(ExtMemError::BadBlockId(id));
        }
        *slot = None;
        self.free.push(id.raw());
        self.runs.insert(id.raw());
        self.live -= 1;
        Ok(())
    }

    fn live_blocks(&self) -> u64 {
        self.live
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;

    #[test]
    fn allocate_read_write_round_trip() {
        let mut d = MemDisk::new(4);
        let id = d.allocate().unwrap();
        let mut blk = d.read(id).unwrap();
        assert!(blk.is_empty());
        blk.push(Item::new(1, 2)).unwrap();
        d.write(id, &blk).unwrap();
        assert_eq!(d.read(id).unwrap().find(1), Some(2));
    }

    #[test]
    fn read_of_unallocated_or_freed_id_fails() {
        let mut d = MemDisk::new(4);
        assert!(d.read(BlockId(0)).is_err());
        let id = d.allocate().unwrap();
        d.free(id).unwrap();
        assert!(d.read(id).is_err());
        assert!(d.free(id).is_err(), "double free is rejected");
    }

    #[test]
    fn freed_ids_are_recycled() {
        let mut d = MemDisk::new(4);
        let a = d.allocate().unwrap();
        let _b = d.allocate().unwrap();
        d.free(a).unwrap();
        let c = d.allocate().unwrap();
        assert_eq!(c, a, "free list recycles ids");
        assert_eq!(d.live_blocks(), 2);
    }

    #[test]
    fn recycled_block_is_empty() {
        let mut d = MemDisk::new(4);
        let a = d.allocate().unwrap();
        let mut blk = d.read(a).unwrap();
        blk.push(Item::key_only(9)).unwrap();
        d.write(a, &blk).unwrap();
        d.free(a).unwrap();
        let a2 = d.allocate().unwrap();
        assert_eq!(a2, a);
        assert!(d.read(a2).unwrap().is_empty());
    }

    #[test]
    fn live_blocks_counts() {
        let mut d = MemDisk::new(2);
        assert_eq!(d.live_blocks(), 0);
        let ids: Vec<_> = (0..5).map(|_| d.allocate().unwrap()).collect();
        assert_eq!(d.live_blocks(), 5);
        d.free(ids[2]).unwrap();
        assert_eq!(d.live_blocks(), 4);
    }
}
