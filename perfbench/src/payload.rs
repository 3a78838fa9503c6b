//! `payload-read`: a payload-mode 2-shard `ShardedKvStore` preloaded with
//! 100 000 keys of 256-byte payloads. During one shared window one
//! reader thread issues Zipf(0.99) `get_bytes` and one writer thread
//! issues `put_bytes` to Zipf(0.99)-hot keys, one op at a time. Each
//! payload carries its key, a version and a checksum, so a wrong, stale
//! or torn answer is caught.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::time::{Duration, Instant};

use dxh_core::ShardedKvStore;
use dxh_extmem::{fnv1a64, Key};
use dxh_hashfn::SplitMix64;
use dxh_workloads::{Op, ZipfSampler};

use crate::churn::{service_layers, shard_footprint, table_ios};
use crate::host::{dir_bytes, ProcIo};
use crate::ladder::{self, Replay};
use crate::metrics::{median, ratio};
use crate::series::Series;
use crate::spans::{Layer, Recorder, Span, TraceSummary};
use crate::{config, more_setups, reopen, set_up, uniform_keys, us, Ctx, Res, Window};

const SHARDS: usize = 2;
const KEYS: usize = 100_000;
const PAYLOAD: usize = 256;
const THETA: f64 = 0.99;
/// Zipf ranks generated for the reader and for the writer; a window
/// that uses them all starts over.
const READ_INPUTS: usize = 1 << 21;
const WRITE_INPUTS: usize = 1 << 16;
/// Reads per pass, and passes per side, of rung 5.
const RUNG5_READS: usize = 100_000;
const RUNG5_PASSES: usize = 3;
const READ_SALT: u64 = 0x4EAD;
const WRITE_SALT: u64 = 0x3417E;
/// User bytes of one payload write: key and payload.
const PUT_BYTES: u64 = 8 + PAYLOAD as u64;

/// The payload of `key` at `version`: key, version, filler derived from
/// both, and an fnv1a64 checksum of the rest.
pub fn payload(key: Key, version: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(PAYLOAD);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    let mut rng = SplitMix64::new(key ^ version.rotate_left(32));
    while out.len() < PAYLOAD - 8 {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// `(key, version)` of an intact payload; `None` when the length or the
/// checksum is wrong.
pub fn decode(bytes: &[u8]) -> Option<(Key, u64)> {
    if bytes.len() != PAYLOAD {
        return None;
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    (fnv1a64(&bytes[..PAYLOAD - 8]) == word(PAYLOAD - 8)).then(|| (word(0), word(8)))
}

/// Keys, and the reader's and writer's Zipf ranks into them.
#[derive(Debug, PartialEq, Eq)]
pub struct Inputs {
    pub keys: Vec<Key>,
    pub reads: Vec<u32>,
    pub writes: Vec<u32>,
}

pub fn inputs(seed: u64, keys: usize, reads: usize, writes: usize) -> Inputs {
    let keys = uniform_keys(seed, keys);
    let zipf = ZipfSampler::new(keys.len() as u64, THETA);
    let ranks = |n: usize, salt: u64| {
        let mut rng = SplitMix64::new(seed ^ salt);
        (0..n).map(|_| zipf.sample(&mut rng) as u32).collect::<Vec<u32>>()
    };
    Inputs { reads: ranks(reads, READ_SALT), writes: ranks(writes, WRITE_SALT), keys }
}

/// What the reader or the writer thread did.
struct Side {
    calls: Series,
    attempted: u64,
    failed: u64,
    error: Option<String>,
    trace: (Vec<Span>, TraceSummary),
    wall_ns: u64,
}

impl Side {
    fn new(salt: u64, seconds: f64) -> Side {
        Side {
            calls: Series::timed(salt, seconds),
            attempted: 0,
            failed: 0,
            error: None,
            trace: Default::default(),
            wall_ns: 0,
        }
    }
}

/// The reader: a read is right when its payload is intact, belongs to
/// the key, and carries a version no older than the last one acked
/// before the read started and no newer than the last one issued after
/// it returned.
fn reader(
    svc: &ShardedKvStore,
    inp: &Inputs,
    issued: &[AtomicU64],
    acked: &[AtomicU64],
    epoch: Instant,
    seconds: f64,
    mut rec: Recorder,
) -> Side {
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let mut s = Side::new(1, seconds);
    let start = Instant::now();
    for (req, &r) in (1u64..).zip(inp.reads.iter().cycle()) {
        let (r, key) = (r as usize, inp.keys[r as usize]);
        let lo = acked[r].load(SeqCst);
        rec.begin(Layer::Caller, "caller.read", req);
        rec.begin(Layer::Service, "service.get_bytes", req);
        let t0 = Instant::now();
        let got = svc.get_bytes(key);
        let now = Instant::now();
        rec.end();
        let hi = issued[r].load(SeqCst);
        s.attempted += 1;
        match got {
            Ok(got) => {
                s.calls.record_at((now - epoch).as_secs_f64(), us(now - t0), 1);
                let ok = got
                    .as_deref()
                    .and_then(decode)
                    .is_some_and(|(k, v)| k == key && lo <= v && v <= hi);
                s.failed += u64::from(!ok);
            }
            Err(e) => {
                s.failed += 1;
                s.error = Some(format!("get_bytes: {e}"));
                rec.end();
                break;
            }
        }
        rec.end();
        if now >= deadline {
            break;
        }
    }
    s.wall_ns = start.elapsed().as_nanos() as u64;
    s.trace = rec.finish();
    s
}

/// The writer: one `put_bytes` at a time, each a new version of its key.
fn writer(
    svc: &ShardedKvStore,
    inp: &Inputs,
    issued: &[AtomicU64],
    acked: &[AtomicU64],
    epoch: Instant,
    seconds: f64,
    mut rec: Recorder,
) -> Side {
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let mut s = Side::new(2, seconds);
    let start = Instant::now();
    for (req, &r) in (1u64 << 48..).zip(inp.writes.iter().cycle()) {
        let (r, key) = (r as usize, inp.keys[r as usize]);
        let version = issued[r].load(SeqCst) + 1;
        issued[r].store(version, SeqCst);
        let bytes = payload(key, version);
        rec.begin(Layer::Caller, "caller.write", req);
        rec.begin(Layer::Service, "service.put_bytes", req);
        let t0 = Instant::now();
        let done = svc.put_bytes(key, &bytes);
        let now = Instant::now();
        rec.end();
        rec.end();
        s.attempted += 1;
        if let Err(e) = done {
            s.failed += 1;
            s.error = Some(format!("put_bytes: {e}"));
            break;
        }
        acked[r].store(version, SeqCst);
        s.calls.record_at((now - epoch).as_secs_f64(), us(now - t0), 1);
        if now >= deadline {
            break;
        }
    }
    s.wall_ns = start.elapsed().as_nanos() as u64;
    s.trace = rec.finish();
    s
}

/// Mean ns of `get` over the first [`RUNG5_READS`] reader ranks, and the
/// answers whose payload is not the key's.
fn time_gets(inp: &Inputs, mut get: impl FnMut(Key) -> Res<Option<Vec<u8>>>) -> Res<(f64, u64)> {
    let ranks = &inp.reads[..RUNG5_READS.min(inp.reads.len())];
    let mut wrong = 0;
    let t = Instant::now();
    for &r in ranks {
        let key = inp.keys[r as usize];
        let got = get(key)?;
        wrong += u64::from(got.as_deref().and_then(decode).is_none_or(|(k, _)| k != key));
    }
    Ok((ratio(t.elapsed().as_secs_f64() * 1e9, ranks.len() as f64), wrong))
}

pub fn window(ctx: &Ctx, seconds: f64, traced: bool) -> Res<Window> {
    let dir = ctx.data.join("payload-read");
    let cfg = config();
    let mut setup = || -> Res<_> {
        let inp = inputs(ctx.seed, KEYS, READ_INPUTS, WRITE_INPUTS);
        let svc = ShardedKvStore::open_payload(&dir, SHARDS, cfg.clone(), ctx.seed)?;
        for &key in &inp.keys {
            svc.with_shard(svc.shard_of(key), |s| s.put_bytes(key, &payload(key, 0)))?;
        }
        svc.sync_all()?;
        Ok((inp, svc))
    };
    let ((inp, svc), setup_s) = set_up(&dir, &mut setup)?;
    let mut w = Window::new(vec![setup_s]);
    let issued: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let acked: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();

    let stats0 = svc.stats();
    let ios0 = table_ios(&svc);
    let io0 = ProcIo::now()?;
    let epoch = Instant::now();
    let (rd, wr) = std::thread::scope(|s| {
        let (svc, inp, issued, acked) = (&svc, &inp, &issued[..], &acked[..]);
        let rd = s.spawn(move || {
            reader(svc, inp, issued, acked, epoch, seconds, Recorder::new(traced, epoch))
        });
        let wr = s.spawn(move || {
            writer(svc, inp, issued, acked, epoch, seconds, Recorder::new(traced, epoch))
        });
        (rd.join().expect("reader panicked"), wr.join().expect("writer panicked"))
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    w.io = ProcIo::now()?.since(&io0);
    w.peak_rss_mb = crate::host::peak_rss_mb()?;
    w.read_syscr = w.io.syscr;
    let stats = svc.stats();
    w.table_ios = table_ios(&svc) - ios0;
    w.write = wr.calls;
    w.read = rd.calls;
    w.user_bytes = w.write.ops() * PUT_BYTES;
    w.attempted = rd.attempted + wr.attempted;
    w.failed = rd.failed + wr.failed;
    w.client_ns = rd.wall_ns + wr.wall_ns;
    for e in [&rd.error, &wr.error].into_iter().flatten() {
        w.notes.push(format!("payload-read error: {e}"));
    }
    service_layers(&mut w.layers, &stats0, &stats);
    let foot = shard_footprint(&svc)?;
    foot.set(&mut w.layers);
    w.layers.set("blob.live_frac", ratio((KEYS * PAYLOAD) as f64, foot.blob_bytes as f64));
    w.notes.push(format!(
        "payload-read: {} get_bytes and {} put_bytes in {wall_s:.2} s over {SHARDS} shards of \
         {KEYS} keys x {PAYLOAD} B; blob log {} B, {} sync rounds",
        w.read.ops(),
        w.write.ops(),
        foot.blob_bytes,
        stats.sync_rounds - stats0.sync_rounds
    ));

    if traced {
        // Rung 5: the same reads through each shard's own KvStore, and
        // through the service, now quiet. The sides alternate, three
        // passes each, and each reports its median pass, so neither
        // gains from running second on warm caches.
        let mut rec = Recorder::new(true, epoch);
        let (mut store_ns, mut svc_ns, mut wrong) = (Vec::new(), Vec::new(), 0);
        for _ in 0..RUNG5_PASSES {
            rec.begin(Layer::Store, "store.get_bytes.rung5", 0);
            let (ns, bad) = time_gets(&inp, |k| {
                Ok(svc.with_shard(svc.shard_of(k), |s| {
                    s.get_bytes(k).map(|p| p.map(<[u8]>::to_vec))
                })?)
            })?;
            rec.end();
            store_ns.push(ns);
            rec.begin(Layer::Service, "service.get_bytes.rung5", 0);
            let (ns2, bad2) = time_gets(&inp, |k| Ok(svc.get_bytes(k)?))?;
            rec.end();
            svc_ns.push(ns2);
            wrong += bad + bad2;
        }
        let (store_ns, svc_ns) = (median(&store_ns), median(&svc_ns));
        w.layers.set("store.get_bytes_ns", store_ns);
        w.layers.set("service.get_bytes_ns_over_store", svc_ns - store_ns);
        w.failed += wrong;
        w.attempted += (2 * RUNG5_PASSES * RUNG5_READS) as u64;
        w.notes.push(format!(
            "rung 5: KvStore::get_bytes {store_ns:.1} ns, ShardedKvStore::get_bytes {svc_ns:.1} ns"
        ));

        // Rungs 1–4 replay the index: every key, then the rung-5 reads.
        let ops: Vec<Op> = inp
            .keys
            .iter()
            .zip(0..)
            .map(|(&k, v)| Op::Insert(k, v))
            .chain(inp.reads[..RUNG5_READS].iter().map(|&r| Op::Lookup(inp.keys[r as usize])))
            .collect();
        let ladder = ladder::run(&ctx.data, &cfg, ctx.seed, &Replay::from_ops(&ops), &mut rec)?;
        ladder.set(&mut w.layers);
        w.failed += ladder.failures();
        w.attempted += ladder.ops();
        w.notes.push(ladder.describe());
        w.add_trace(rec.finish(), false);
    }
    w.add_trace(rd.trace, true);
    w.add_trace(wr.trace, true);

    // Drop and reopen: every key must hold its last acknowledged version.
    let (svc, reopen_s, note) =
        reopen(svc, || Ok(ShardedKvStore::open_payload(&dir, SHARDS, cfg.clone(), ctx.seed)?))?;
    w.reopen_s = reopen_s;
    w.notes.push(note);
    let mut missing = 0u64;
    for (r, &key) in inp.keys.iter().enumerate() {
        let want = acked[r].load(SeqCst);
        let got = svc.get_bytes(key).ok().flatten();
        missing += u64::from(got.as_deref().and_then(decode) != Some((key, want)));
    }
    w.attempted += KEYS as u64;
    w.failed += missing;
    w.notes.push(format!("reopen check: {KEYS} keys read back, {missing} wrong or missing"));
    w.live_bytes = KEYS as u64 * PUT_BYTES;
    drop(svc);
    w.disk_bytes = dir_bytes(&dir)?;
    more_setups(&dir, &mut setup, &mut w.setup_s)?;
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed() {
        assert_eq!(inputs(3, 1000, 500, 50), inputs(3, 1000, 500, 50));
        assert_ne!(inputs(3, 1000, 500, 50), inputs(4, 1000, 500, 50));
    }

    #[test]
    fn payloads_catch_wrong_and_torn_answers() {
        let p = payload(42, 7);
        assert_eq!(p.len(), PAYLOAD);
        assert_eq!(decode(&p), Some((42, 7)));
        let mut torn = p.clone();
        torn[100] ^= 1;
        assert_eq!(decode(&torn), None);
        assert_eq!(decode(&p[..PAYLOAD - 1]), None);
        assert_ne!(payload(42, 8), p);
    }
}
