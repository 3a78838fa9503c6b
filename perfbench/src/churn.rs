//! `service-churn`: the write path end to end. Two client threads drive a
//! 2-shard `ShardedKvStore` over a real directory with a read-mixed
//! churn (40% insert, 15% delete, 45% lookup, each thread in its own key
//! namespace). After every fourth churn insert a thread also upserts one
//! of its 64 Zipf(0.99)-hot keys, so the coalescing buffer has
//! duplicates to absorb. Writes go through 32-op `submit` chunks,
//! lookups through `get`; every answer is checked against the thread's
//! shadow of its namespace.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dxh_core::{ExternalDictionary, ServiceStats, ShardedKvStore, WriteOp};
use dxh_extmem::{Key, Value};
use dxh_workloads::{ConcurrentChurn, Op, ZipfWrites};

use crate::host::{dir_bytes, file_bytes, ProcIo};
use crate::ladder::{self, Replay};
use crate::metrics::{ratio, Metrics};
use crate::series::Series;
use crate::spans::{Layer, Recorder, Span, TraceSummary};
use crate::{config, more_setups, reopen, set_up, us, Ctx, Res, Window};

const THREADS: usize = 2;
const SHARDS: usize = 2;
/// Ops per `submit` call.
const CHUNK: usize = 32;
const INSERT_RATIO: f64 = 0.40;
const DELETE_RATIO: f64 = 0.15;
/// One hot upsert follows every `HOT_EVERY`-th churn insert.
const HOT_EVERY: usize = 4;
const HOT_KEYS: usize = 64;
const HOT_THETA: f64 = 0.99;
/// Seed salt of the hot-key stream.
const HOT_SALT: u64 = 0x407_C0A1;
/// Churn ops generated per thread, whatever the window's length. A
/// thread gets through them in a few seconds and then starts over, so
/// later passes upsert and delete the same keys again (the shadow
/// follows): the live set, and with it the table's size, stops growing
/// after the first pass, and every rate is measured on a store of the
/// same size whether the run is fast or slow.
const CHURN_OPS: usize = 250_000;
/// User bytes of a put (key and value) and of a delete (key).
const PUT_BYTES: u64 = 16;
const DELETE_BYTES: u64 = 8;

/// Each thread's op stream for `seed`: churn with hot upserts mixed in.
pub fn inputs(seed: u64, churn_ops: usize) -> Vec<Vec<Op>> {
    let churn = ConcurrentChurn::new(THREADS, churn_ops, INSERT_RATIO, DELETE_RATIO)
        .expect("valid churn shape");
    let hot = ZipfWrites::new(THREADS, churn_ops / HOT_EVERY + 1, HOT_KEYS, HOT_THETA)
        .expect("valid hot-key shape");
    (0..THREADS)
        .map(|t| {
            let mut hot = hot.thread_trace(t, seed ^ HOT_SALT).ops.into_iter();
            let mut out = Vec::with_capacity(churn_ops + churn_ops / HOT_EVERY + 1);
            let mut inserts = 0;
            for op in churn.thread_trace(t, seed).ops {
                out.push(op);
                if matches!(op, Op::Insert(..)) {
                    inserts += 1;
                    if inserts % HOT_EVERY == 0 {
                        out.push(hot.next().expect("one hot put per HOT_EVERY inserts"));
                    }
                }
            }
            out
        })
        .collect()
}

/// One client thread's results.
struct Client {
    shadow: HashMap<Key, Option<Value>>,
    write: Series,
    read: Series,
    user_bytes: u64,
    attempted: u64,
    failed: u64,
    error: Option<String>,
    trace: (Vec<Span>, TraceSummary),
    wall_ns: u64,
    /// Ops taken from the input, counting wrap-arounds.
    consumed: usize,
}

/// Thread `t`'s closed loop over `ops` for `seconds` from `epoch`.
fn client(
    svc: &ShardedKvStore,
    t: usize,
    ops: &[Op],
    epoch: Instant,
    seconds: f64,
    mut rec: Recorder,
) -> Client {
    let deadline = epoch + Duration::from_secs_f64(seconds);
    // Sized for every key the input can insert, so the shadow's memory
    // does not step with how far the window gets.
    let keys = ops.iter().filter(|op| matches!(op, Op::Insert(..))).count();
    let mut c = Client {
        shadow: HashMap::with_capacity(keys),
        write: Series::timed(2 * t as u64 + 1, seconds),
        read: Series::timed(2 * t as u64 + 2, seconds),
        user_bytes: 0,
        attempted: 0,
        failed: 0,
        error: None,
        trace: Default::default(),
        wall_ns: 0,
        consumed: 0,
    };
    let start = Instant::now();
    let mut chunk: Vec<WriteOp> = Vec::with_capacity(CHUNK);
    let mut req = (t as u64) << 48;
    for &op in ops.iter().cycle() {
        c.consumed += 1;
        let now = match op {
            Op::Insert(..) | Op::Delete(_) => {
                chunk.push(match op {
                    Op::Insert(k, v) => WriteOp::Put(k, v),
                    Op::Delete(k) => WriteOp::Delete(k),
                    Op::Lookup(_) => unreachable!("matched as a write"),
                });
                if chunk.len() < CHUNK {
                    continue;
                }
                req += 1;
                rec.begin(Layer::Caller, "caller.write", req);
                rec.begin(Layer::Service, "service.submit", req);
                let t0 = Instant::now();
                let answers = svc.submit(&chunk);
                let now = Instant::now();
                rec.end();
                c.attempted += chunk.len() as u64;
                match answers {
                    Ok(answers) => {
                        let at = (now - epoch).as_secs_f64();
                        c.write.record_at(at, us(now - t0), chunk.len() as u64);
                        for (w, ans) in chunk.iter().zip(answers) {
                            let want = match *w {
                                WriteOp::Put(k, v) => {
                                    c.user_bytes += PUT_BYTES;
                                    c.shadow.insert(k, Some(v));
                                    true
                                }
                                WriteOp::Delete(k) => {
                                    c.user_bytes += DELETE_BYTES;
                                    matches!(c.shadow.insert(k, None), Some(Some(_)))
                                }
                            };
                            c.failed += u64::from(ans != want);
                        }
                    }
                    Err(e) => {
                        c.failed += chunk.len() as u64;
                        c.error = Some(format!("submit: {e}"));
                        rec.end();
                        break;
                    }
                }
                rec.end();
                chunk.clear();
                now
            }
            Op::Lookup(k) => {
                req += 1;
                rec.begin(Layer::Caller, "caller.read", req);
                rec.begin(Layer::Service, "service.get", req);
                let t0 = Instant::now();
                let got = svc.get(k);
                let now = Instant::now();
                rec.end();
                c.attempted += 1;
                match got {
                    Ok(got) => {
                        c.read.record_at((now - epoch).as_secs_f64(), us(now - t0), 1);
                        c.failed += u64::from(got != c.shadow.get(&k).copied().flatten());
                    }
                    Err(e) => {
                        c.failed += 1;
                        c.error = Some(format!("get: {e}"));
                        rec.end();
                        break;
                    }
                }
                rec.end();
                now
            }
        };
        if now >= deadline {
            break;
        }
    }
    c.wall_ns = start.elapsed().as_nanos() as u64;
    c.trace = rec.finish();
    c
}

/// Accounted table I/Os summed over the service's shards.
pub fn table_ios(svc: &ShardedKvStore) -> u64 {
    (0..svc.shard_count()).map(|i| svc.with_shard(i, |s| s.total_ios())).sum()
}

/// Sets the `service.*` counters and the manifest bytes of the
/// service's stores from two [`ServiceStats`] snapshots.
pub fn service_layers(l: &mut Metrics, s0: &ServiceStats, s1: &ServiceStats) {
    let committed = (s1.committed_ops - s0.committed_ops) as f64;
    let batches = (s1.committed_batches - s0.committed_batches) as f64;
    let rounds = (s1.sync_rounds - s0.sync_rounds) as f64;
    l.set("service.syncs_per_write", ratio(rounds, committed));
    l.set("service.avg_batch", ratio(committed, batches));
    l.set("service.largest_batch", s1.largest_batch as f64);
    let coalesced = (s1.coalesced_ops - s0.coalesced_ops) as f64;
    l.set("service.coalesced_ratio", ratio(coalesced, committed));
    l.set("service.checkpoint_hardens", (s1.shard_syncs - s0.shard_syncs) as f64);
    l.set("service.sealed_discards", (s1.sealed_discards - s0.sealed_discards) as f64);
    let delta_bytes = (s1.manifest_delta_bytes - s0.manifest_delta_bytes) as f64;
    let full_bytes = (s1.manifest_full_bytes - s0.manifest_full_bytes) as f64;
    l.set("service.manifest_delta_bytes", delta_bytes);
    l.set("service.manifest_full_bytes", full_bytes);
    l.set("store.manifest_delta_bytes", delta_bytes);
    l.set("store.manifest_full_bytes", full_bytes);
}

/// What a service's shards hold: live blocks, data-file and blob-log
/// bytes, summed.
pub struct Footprint {
    pub live_blocks: u64,
    pub file_bytes: u64,
    pub blob_bytes: u64,
}

impl Footprint {
    pub fn set(&self, l: &mut Metrics) {
        l.set("backend.live_blocks", self.live_blocks as f64);
        l.set("backend.file_bytes", self.file_bytes as f64);
        l.set("blob.bytes", self.blob_bytes as f64);
    }
}

pub fn shard_footprint(svc: &ShardedKvStore) -> Res<Footprint> {
    let mut f = Footprint { live_blocks: 0, file_bytes: 0, blob_bytes: 0 };
    for i in 0..svc.shard_count() {
        let (blocks, blob, path) =
            svc.with_shard(i, |s| (s.table().disk().live_blocks(), s.blob_len(), s.data_path()));
        f.live_blocks += blocks;
        f.blob_bytes += blob;
        f.file_bytes += file_bytes(&path?)?;
    }
    Ok(f)
}

pub fn window(ctx: &Ctx, seconds: f64, traced: bool) -> Res<Window> {
    let dir = ctx.data.join("service-churn");
    let cfg = config();
    let mut setup = || -> Res<_> {
        let inputs = inputs(ctx.seed, CHURN_OPS);
        let svc = ShardedKvStore::open(&dir, SHARDS, cfg.clone(), ctx.seed)?;
        Ok((inputs, svc))
    };
    let ((inputs, svc), setup_s) = set_up(&dir, &mut setup)?;
    let mut w = Window::new(vec![setup_s]);

    let stats0 = svc.stats();
    let ios0 = table_ios(&svc);
    let io0 = ProcIo::now()?;
    let epoch = Instant::now();
    let mut clients: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(t, ops)| {
                let svc = &svc;
                let rec = Recorder::new(traced, epoch);
                s.spawn(move || client(svc, t, ops, epoch, seconds, rec))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let io1 = ProcIo::now()?;
    let peak_rss_mb = crate::host::peak_rss_mb()?;
    let stats = svc.stats();
    w.table_ios = table_ios(&svc) - ios0;
    w.io = io1.since(&io0);
    w.peak_rss_mb = peak_rss_mb;
    w.write = Series::timed(0, seconds);
    w.read = Series::timed(0, seconds);

    service_layers(&mut w.layers, &stats0, &stats);
    shard_footprint(&svc)?.set(&mut w.layers);

    for c in &clients {
        w.write.merge(&c.write);
        w.read.merge(&c.read);
        w.user_bytes += c.user_bytes;
        w.attempted += c.attempted;
        w.failed += c.failed;
        w.client_ns += c.wall_ns;
        if let Some(e) = &c.error {
            w.notes.push(format!("service-churn client error: {e}"));
        }
    }
    w.read_syscr = w.io.syscr;
    for c in &mut clients {
        w.add_trace(std::mem::take(&mut c.trace), true);
    }
    w.notes.push(format!(
        "service-churn: {} writes and {} reads in {wall_s:.2} s over {} shards; {} sync rounds, \
         {} committed ops, {} coalesced, {} checkpoint hardens",
        w.write.ops(),
        w.read.ops(),
        SHARDS,
        stats.sync_rounds - stats0.sync_rounds,
        stats.committed_ops - stats0.committed_ops,
        stats.coalesced_ops - stats0.coalesced_ops,
        stats.shard_syncs - stats0.shard_syncs
    ));

    // Drop and reopen, then every acknowledged write must be there.
    let (svc, reopen_s, note) =
        reopen(svc, || Ok(ShardedKvStore::open(&dir, SHARDS, cfg.clone(), ctx.seed)?))?;
    w.reopen_s = reopen_s;
    w.notes.push(note);
    let missing: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .map(|c| {
                let svc = &svc;
                s.spawn(move || {
                    c.shadow
                        .iter()
                        .filter(|&(&k, &want)| !matches!(svc.get(k), Ok(got) if got == want))
                        .count() as u64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("check thread panicked")).sum()
    });
    let checked: u64 = clients.iter().map(|c| c.shadow.len() as u64).sum();
    w.attempted += checked;
    w.failed += missing;
    w.notes.push(format!("reopen check: {checked} keys read back, {missing} wrong or missing"));
    let live = clients.iter().flat_map(|c| c.shadow.values()).filter(|v| v.is_some()).count();
    w.live_bytes = live as u64 * PUT_BYTES;
    drop(svc);
    w.disk_bytes = dir_bytes(&dir)?;

    if traced {
        // Rungs 1–4 replay one pass of thread 0's stream, or as far as
        // the window got.
        let ran = clients[0].consumed.min(inputs[0].len());
        let replay = Replay::from_ops(&inputs[0][..ran]);
        let mut rec = Recorder::new(true, epoch);
        let ladder = ladder::run(&ctx.data, &cfg, ctx.seed, &replay, &mut rec)?;
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

    #[test]
    fn inputs_repeat_for_a_seed_and_mix_in_hot_upserts() {
        let a = inputs(5, 4000);
        assert_eq!(a, inputs(5, 4000));
        assert_ne!(a, inputs(6, 4000));
        for ops in &a {
            let puts = ops.iter().filter(|op| matches!(op, Op::Insert(..))).count();
            let hot = ops
                .iter()
                .filter(
                    |op| matches!(op, Op::Insert(k, _) if (k & ((1 << 55) - 1)) < HOT_KEYS as u64),
                )
                .count();
            assert_eq!(
                hot,
                (puts - hot) / HOT_EVERY,
                "one hot upsert per {HOT_EVERY} churn inserts"
            );
        }
    }
}
