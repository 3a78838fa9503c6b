//! `store-ingest`: one thread on a `KvStore` over a real directory, no
//! service threads and no commit log. A round inserts uniform fresh keys
//! in groups of 256 (half of `H0`), calling `sync()` after each group,
//! then looks up uniformly chosen inserted keys. Every round starts from
//! a fresh store with the same inputs, so its accounted I/Os — the
//! paper's `tu`/`tq` under durability — repeat exactly; rounds continue
//! until the window is over and at least 1000 groups have been timed.

use std::time::{Duration, Instant};

use dxh_core::{ExternalDictionary, KvStore};
use dxh_extmem::Key;
use dxh_hashfn::SplitMix64;
use dxh_workloads::Op;

use crate::host::{dir_bytes, file_bytes, ProcIo};
use crate::ladder::{self, Replay};
use crate::series::Series;
use crate::spans::{Layer, Recorder};
use crate::{clear_dir, config, more_setups, reopen, set_up, uniform_keys, us, Ctx, Res, Window};

/// Sizes of one round.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Keys inserted per round.
    pub keys: usize,
    /// Inserts per `sync()`; below `H0`'s 512 items.
    pub group: usize,
    /// Lookups per round.
    pub lookups: usize,
    /// Groups a window times at least, so `write_p99_us` has ten samples
    /// beyond it.
    pub min_groups: usize,
}

pub const SHAPE: Shape = Shape { keys: 65_536, group: 256, lookups: 131_072, min_groups: 1000 };

/// Seed salt of the lookup sequence.
const LOOKUP_SALT: u64 = 0x0010_0C0F;
/// Read latencies kept per round: enough for the round's p99, few
/// enough that memory does not grow with the number of rounds.
const ROUND_SAMPLES: usize = 2048;
/// User bytes of one insert (key and value).
const PUT_BYTES: u64 = 16;

/// One round's inputs for `seed`: keys to insert (each key is its own
/// value) and the keys to look up.
pub fn inputs(seed: u64, shape: Shape) -> (Vec<Key>, Vec<Key>) {
    let keys = uniform_keys(seed, shape.keys);
    let mut rng = SplitMix64::new(seed ^ LOOKUP_SALT);
    let lookups = (0..shape.lookups).map(|_| keys[rng.below(keys.len() as u64) as usize]).collect();
    (keys, lookups)
}

pub fn window(ctx: &Ctx, seconds: f64, traced: bool) -> Res<Window> {
    window_shaped(ctx, seconds, traced, SHAPE)
}

pub fn window_shaped(ctx: &Ctx, seconds: f64, traced: bool, shape: Shape) -> Res<Window> {
    let dir = ctx.data.join("store-ingest");
    let cfg = config();
    let round_dir = |r: usize| dir.join(format!("round-{r}"));
    let mut setup = || -> Res<_> {
        let (keys, lookups) = inputs(ctx.seed, shape);
        let store = KvStore::open(round_dir(0), cfg.clone(), ctx.seed)?;
        Ok((keys, lookups, store))
    };
    let ((keys, lookups, first), setup_s) = set_up(&dir, &mut setup)?;
    let mut w = Window::new(vec![setup_s]);
    w.write = Series::new(1, shape.keys.div_ceil(shape.group));
    w.read = Series::new(2, ROUND_SAMPLES);
    let mut rec = Recorder::new(traced, Instant::now());
    let mut req = 0u64;
    let (mut delta_bytes, mut full_bytes) = (0u64, 0u64);
    let mut error = None;
    let io0 = ProcIo::now()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut store = first;
    let mut round = 0;
    'rounds: loop {
        let ios0 = store.total_ios();
        let t = Instant::now();
        for group in keys.chunks(shape.group) {
            req += 1;
            rec.begin(Layer::Caller, "caller.write", req);
            let t0 = Instant::now();
            for &k in group {
                rec.begin(Layer::Store, "store.insert", req);
                let done = store.insert(k, k);
                rec.end();
                if let Err(e) = done {
                    error = Some(format!("insert: {e}"));
                    rec.end();
                    break 'rounds;
                }
            }
            rec.begin(Layer::Store, "store.sync", req);
            let synced = store.sync();
            rec.end();
            let lat = us(t0.elapsed());
            rec.end();
            w.attempted += group.len() as u64;
            if let Err(e) = synced {
                error = Some(format!("sync: {e}"));
                break 'rounds;
            }
            w.write.record(round, lat, group.len() as u64);
        }
        w.write.set_secs(round, t.elapsed().as_secs_f64());

        let r0 = ProcIo::now()?;
        let t = Instant::now();
        for &k in &lookups {
            req += 1;
            rec.begin(Layer::Caller, "caller.read", req);
            rec.begin(Layer::Store, "store.lookup", req);
            let t0 = Instant::now();
            let got = store.lookup(k);
            let lat = us(t0.elapsed());
            rec.end();
            rec.end();
            w.attempted += 1;
            match got {
                Ok(got) => {
                    w.read.record(round, lat, 1);
                    w.failed += u64::from(got != Some(k));
                }
                Err(e) => {
                    error = Some(format!("lookup: {e}"));
                    break 'rounds;
                }
            }
        }
        w.read.set_secs(round, t.elapsed().as_secs_f64());
        w.read_syscr += ProcIo::now()?.since(&r0).syscr;
        w.table_ios += store.total_ios() - ios0;
        let mio = store.manifest_io();
        delta_bytes += mio.delta_bytes;
        full_bytes += mio.full_bytes;

        if Instant::now() >= deadline && w.write.calls() >= shape.min_groups as u64 {
            break;
        }
        round += 1;
        drop(store);
        clear_dir(&round_dir(round - 1))?;
        store = KvStore::open(round_dir(round), cfg.clone(), ctx.seed)?;
    }
    w.client_ns = start.elapsed().as_nanos() as u64;
    w.io = ProcIo::now()?.since(&io0);
    w.peak_rss_mb = crate::host::peak_rss_mb()?;
    if let Some(e) = error {
        w.failed += 1;
        w.notes.push(format!("store-ingest error: {e}"));
    }
    w.user_bytes = w.write.ops() * PUT_BYTES;
    w.add_trace(rec.finish(), true);
    let l = &mut w.layers;
    l.set("store.manifest_delta_bytes", delta_bytes as f64);
    l.set("store.manifest_full_bytes", full_bytes as f64);
    l.set("backend.live_blocks", store.table().disk().live_blocks() as f64);
    l.set("backend.file_bytes", file_bytes(&store.data_path()?)? as f64);
    w.notes.push(format!(
        "store-ingest: {} rounds of {} inserts in groups of {} with a sync each, then {} lookups; \
         {} accounted I/Os per round",
        round + 1,
        shape.keys,
        shape.group,
        shape.lookups,
        w.table_ios / (round as u64 + 1)
    ));

    // Drop and reopen the last round's store: every key must be there.
    let (mut store, reopen_s, note) =
        reopen(store, || Ok(KvStore::open(round_dir(round), cfg.clone(), ctx.seed)?))?;
    w.reopen_s = reopen_s;
    w.notes.push(note);
    let mut missing = 0u64;
    for &k in &keys {
        missing += u64::from(!matches!(store.lookup(k), Ok(Some(v)) if v == k));
    }
    w.attempted += keys.len() as u64;
    w.failed += missing;
    w.notes
        .push(format!("reopen check: {} keys read back, {missing} wrong or missing", keys.len()));
    w.live_bytes = keys.len() as u64 * PUT_BYTES;
    drop(store);
    w.disk_bytes = dir_bytes(&round_dir(round))?;

    if traced {
        let ops: Vec<Op> = keys
            .iter()
            .map(|&k| Op::Insert(k, k))
            .chain(lookups.iter().map(|&k| Op::Lookup(k)))
            .collect();
        let mut rec = Recorder::new(true, Instant::now());
        let ladder = ladder::run(&ctx.data, &cfg, ctx.seed, &Replay::from_ops(&ops), &mut rec)?;
        ladder.set(&mut w.layers);
        w.failed += ladder.failures();
        w.attempted += ladder.ops();
        w.notes.push(ladder.describe());
        w.add_trace(rec.finish(), false);
    }
    more_setups(&dir, &mut setup, &mut w.setup_s)?;
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape { keys: 4096, group: 256, lookups: 1024, min_groups: 16 };

    fn ctx(name: &str, seed: u64) -> Ctx {
        let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_data")
            .join(format!("test-{name}-{}", std::process::id()));
        clear_dir(&data).unwrap();
        std::fs::create_dir_all(&data).unwrap();
        Ctx { seed, data }
    }

    #[test]
    fn inputs_repeat_for_a_seed() {
        assert_eq!(inputs(7, SMALL), inputs(7, SMALL));
        assert_ne!(inputs(7, SMALL), inputs(8, SMALL));
    }

    /// Accounted I/Os of the durable store and of the table rungs depend
    /// only on the seed, not on timing.
    #[test]
    fn two_runs_account_identical_ios() {
        let runs: Vec<Window> = (0..2)
            .map(|i| {
                let c = ctx(&format!("ingest-{i}"), 11);
                let w = window_shaped(&c, 0.01, true, SMALL).unwrap();
                clear_dir(&c.data).unwrap();
                w
            })
            .collect();
        for w in &runs {
            assert_eq!(w.failed, 0, "{:?}", w.notes);
            assert!(w.table_ios > 0);
        }
        let per_op = |w: &Window| w.table_ios as f64 / (w.write.ops() + w.read.ops()) as f64;
        assert_eq!(per_op(&runs[0]), per_op(&runs[1]));
        for name in [
            "table.ios_per_insert",
            "table.ios_per_lookup",
            "table.levels",
            "table.reads",
            "table.writes",
            "table.rmws",
            "store.sync_calls",
        ] {
            assert_eq!(runs[0].layers.get(name), runs[1].layers.get(name), "{name}");
        }
        assert!(runs[0].layers.get("table.ios_per_insert") > 0.0);
        assert_eq!(runs[0].layers.get("store.sync_calls"), (SMALL.keys / SMALL.group) as f64);
    }
}
