//! The layer ladder of the traced run: one workload's writes, then its
//! reads, replayed on successively fuller stacks, so each layer's cost
//! is the difference between two rungs.
//!
//! 1. `LogMethodTable` on `MemDisk` — the paper's `tu`/`tq` world;
//! 2. the same table on `FileDisk`;
//! 3. a raw `KvStore` (table plus media) with no sync;
//! 4. a `KvStore` that calls `sync()` after every [`SYNC_GROUP`] writes.
//!
//! Rung 5 (payload `KvStore::get_bytes` against the service's) lives in
//! the `payload-read` workload. Each phase is timed as a whole, and each
//! of rung 4's syncs on its own: a timer around every sub-microsecond
//! table call would weigh more than the call.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use dxh_core::{CoreConfig, ExternalDictionary, KvStore, LogMethodTable};
use dxh_extmem::{Disk, FileDisk, IoSnapshot, Key, MemDisk, Value};
use dxh_workloads::Op;

use crate::metrics::{ratio, Metrics, Summary};
use crate::spans::{Layer, Recorder};
use crate::{clear_dir, us, Res};

/// Writes per `sync()` on rung 4: half of `H0`'s 512 items, so every
/// sync flushes a part-full `H0` and makes it durable.
pub const SYNC_GROUP: usize = 256;

/// A workload's trace split into its writes, in order, and its reads,
/// each with the answer the final state must give.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Replay {
    pub writes: Vec<Op>,
    pub reads: Vec<(Key, Option<Value>)>,
}

impl Replay {
    pub fn from_ops(ops: &[Op]) -> Replay {
        let mut state: HashMap<Key, Option<Value>> = HashMap::new();
        let mut writes = Vec::new();
        let mut keys = Vec::new();
        for &op in ops {
            match op {
                Op::Insert(k, v) => {
                    state.insert(k, Some(v));
                    writes.push(op);
                }
                Op::Delete(k) => {
                    state.insert(k, None);
                    writes.push(op);
                }
                Op::Lookup(k) => keys.push(k),
            }
        }
        let reads = keys.into_iter().map(|k| (k, state.get(&k).copied().flatten())).collect();
        Replay { writes, reads }
    }
}

/// One rung's phase times and accounted I/Os.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Mean ns per write (insert or delete) and per read.
    pub write_ns: f64,
    pub read_ns: f64,
    pub write_io: IoSnapshot,
    pub read_io: IoSnapshot,
    /// Reads and delete answers that disagreed with the trace.
    pub wrong: u64,
}

/// Replays `r` on `d`: every write, then every read, one span per phase.
/// `sync` runs after every [`SYNC_GROUP`] writes and after the last.
fn replay<D: ExternalDictionary>(
    d: &mut D,
    r: &Replay,
    rec: &mut Recorder,
    layer: Layer,
    names: [&'static str; 2],
    mut sync: impl FnMut(&mut D, &mut Recorder) -> Res<()>,
) -> Res<Rung> {
    let mut wrong = 0;
    let mut live: HashMap<Key, bool> = HashMap::new();
    let io0 = d.disk_stats();
    rec.begin(layer, names[0], 0);
    let t = Instant::now();
    for (i, &op) in r.writes.iter().enumerate() {
        match op {
            Op::Insert(k, v) => {
                d.insert(k, v)?;
                live.insert(k, true);
            }
            Op::Delete(k) => {
                let was = d.delete(k)?;
                wrong += u64::from(was != live.insert(k, false).unwrap_or(false));
            }
            Op::Lookup(_) => unreachable!("replays hold no lookups among writes"),
        }
        if (i + 1) % SYNC_GROUP == 0 || i + 1 == r.writes.len() {
            sync(d, rec)?;
        }
    }
    let write_s = t.elapsed().as_secs_f64();
    rec.end();
    let io1 = d.disk_stats();
    rec.begin(layer, names[1], 0);
    let t = Instant::now();
    for &(k, want) in &r.reads {
        wrong += u64::from(d.lookup(k)? != want);
    }
    let read_s = t.elapsed().as_secs_f64();
    rec.end();
    let io2 = d.disk_stats();
    Ok(Rung {
        write_ns: ratio(write_s * 1e9, r.writes.len() as f64),
        read_ns: ratio(read_s * 1e9, r.reads.len() as f64),
        write_io: io1.since(&io0),
        read_io: io2.since(&io1),
        wrong,
    })
}

/// The sync of rungs 1–3: none.
fn no_sync<D>(_: &mut D, _: &mut Recorder) -> Res<()> {
    Ok(())
}

/// Rungs 1–4 of one replay.
#[derive(Clone, Debug)]
pub struct Ladder {
    pub mem: Rung,
    pub file: Rung,
    pub store: Rung,
    pub synced: Rung,
    /// Rung 4's `sync()` latencies, in µs.
    pub syncs: Summary,
    pub sync_busy_s: f64,
    pub levels: usize,
    pub cfg_cost: dxh_extmem::IoCostModel,
    pub writes: usize,
    pub reads: usize,
}

/// Runs rungs 1–4 of `r` in `dir`, removing the files they leave there.
pub fn run(dir: &Path, cfg: &CoreConfig, seed: u64, r: &Replay, rec: &mut Recorder) -> Res<Ladder> {
    let mut mem_table =
        LogMethodTable::new_on(Disk::new(MemDisk::new(cfg.b), cfg.b, cfg.cost), cfg.clone(), seed)?;
    let names = ["table.mem.writes", "table.mem.reads"];
    let mem = replay(&mut mem_table, r, rec, Layer::Table, names, no_sync)?;
    let levels = mem_table.active_levels();
    drop(mem_table);

    let blocks = dir.join("ladder.blocks");
    let mut file_table = LogMethodTable::new_on(
        Disk::new(FileDisk::create(&blocks, cfg.b)?, cfg.b, cfg.cost),
        cfg.clone(),
        seed,
    )?;
    let names = ["table.file.writes", "table.file.reads"];
    let file = replay(&mut file_table, r, rec, Layer::Table, names, no_sync)?;
    drop(file_table);
    std::fs::remove_file(&blocks)?;

    let store_dir = dir.join("ladder-store");
    let mut store = KvStore::open(&store_dir, cfg.clone(), seed)?;
    let names = ["store.nosync.writes", "store.nosync.reads"];
    let store_rung = replay(&mut store, r, rec, Layer::Store, names, no_sync)?;
    drop(store);
    clear_dir(&store_dir)?;

    let synced_dir = dir.join("ladder-synced");
    let mut store = KvStore::open(&synced_dir, cfg.clone(), seed)?;
    let mut syncs = Vec::with_capacity(r.writes.len().div_ceil(SYNC_GROUP));
    let names = ["store.sync.writes", "store.sync.reads"];
    let synced = replay(&mut store, r, rec, Layer::Store, names, |s: &mut KvStore, rec| {
        rec.begin(Layer::Store, "store.sync", 0);
        let t = Instant::now();
        let done = s.sync();
        syncs.push(us(t.elapsed()));
        rec.end();
        Ok(done?)
    })?;
    drop(store);
    clear_dir(&synced_dir)?;

    Ok(Ladder {
        mem,
        file,
        store: store_rung,
        synced,
        sync_busy_s: syncs.iter().sum::<f64>() / 1e6,
        syncs: Summary::of(&mut syncs),
        levels,
        cfg_cost: cfg.cost,
        writes: r.writes.len(),
        reads: r.reads.len(),
    })
}

impl Ladder {
    /// Operations the rungs replayed, all four together.
    pub fn ops(&self) -> u64 {
        4 * (self.writes + self.reads) as u64
    }

    /// Wrong answers on any rung, plus one when the two backends
    /// accounted different I/Os (the paper's counts must not depend on
    /// where the blocks live).
    pub fn failures(&self) -> u64 {
        let differ =
            self.mem.write_io != self.file.write_io || self.mem.read_io != self.file.read_io;
        self.mem.wrong + self.file.wrong + self.store.wrong + self.synced.wrong + u64::from(differ)
    }

    /// Sets the `table.*`, `backend.*_delta`, `store.{insert,lookup}_ns`
    /// and `store.sync_*` metrics.
    pub fn set(&self, m: &mut Metrics) {
        let io = |s: &IoSnapshot| s.total(self.cfg_cost) as f64;
        m.set("table.ios_per_insert", ratio(io(&self.mem.write_io), self.writes as f64));
        m.set("table.ios_per_lookup", ratio(io(&self.mem.read_io), self.reads as f64));
        m.set("table.insert_ns_mem", self.mem.write_ns);
        m.set("table.lookup_ns_mem", self.mem.read_ns);
        m.set("table.levels", self.levels as f64);
        m.set("table.reads", (self.mem.write_io.reads + self.mem.read_io.reads) as f64);
        m.set("table.writes", (self.mem.write_io.writes + self.mem.read_io.writes) as f64);
        m.set("table.rmws", (self.mem.write_io.rmws + self.mem.read_io.rmws) as f64);
        m.set("backend.insert_ns_delta", self.file.write_ns - self.mem.write_ns);
        m.set("backend.lookup_ns_delta", self.file.read_ns - self.mem.read_ns);
        m.set("store.insert_ns", self.store.write_ns);
        m.set("store.lookup_ns", self.store.read_ns);
        m.set("store.sync_calls", self.syncs.n as f64);
        m.set("store.sync_p50_us", self.syncs.p50);
        m.set("store.sync_p99_us", self.syncs.p99);
        m.set("store.sync_busy_s", self.sync_busy_s);
    }

    /// The rungs as a small table, for people.
    pub fn describe(&self) -> String {
        let row = |name: &str, r: &Rung| {
            format!(
                "  {name:<22} {:>10.1} {:>10.1} {:>12} {:>12}\n",
                r.write_ns,
                r.read_ns,
                r.write_io.total(self.cfg_cost),
                r.read_io.total(self.cfg_cost)
            )
        };
        format!(
            "ladder ({} writes, {} reads):\n  {:<22} {:>10} {:>10} {:>12} {:>12}\n{}{}{}{}  \
             rung 4: {} syncs, p50 {:.1} us, p99 {:.1} us",
            self.writes,
            self.reads,
            "rung",
            "write ns",
            "read ns",
            "write I/Os",
            "read I/Os",
            row("1 table on MemDisk", &self.mem),
            row("2 table on FileDisk", &self.file),
            row("3 KvStore, no sync", &self.store),
            row("4 KvStore, sync/256", &self.synced),
            self.syncs.n,
            self.syncs.p50,
            self.syncs.p99
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_answers_reads_from_the_final_state() {
        let ops =
            [Op::Insert(1, 10), Op::Lookup(1), Op::Insert(2, 20), Op::Delete(1), Op::Lookup(2)];
        let r = Replay::from_ops(&ops);
        assert_eq!(r.writes, vec![Op::Insert(1, 10), Op::Insert(2, 20), Op::Delete(1)]);
        assert_eq!(r.reads, vec![(1, None), (2, Some(20))]);
    }
}
