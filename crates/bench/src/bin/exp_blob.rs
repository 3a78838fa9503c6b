//! **Blob payload path** — write throughput vs payload size, and the
//! borrowing read path against its copying rivals, for the payload-mode
//! [`KvStore`] and the [`BlobLog`] under it.
//!
//! The u64 table is the *index*; payloads live in an append-only,
//! length-framed, checksummed log (`dxh_extmem::BlobLog`) and the index
//! word holds a tagged offset (see `docs/DURABILITY.md`). Two sweeps
//! over payload size:
//!
//! * **write** — `put_bytes` churn with periodic [`KvStore::sync`]s on
//!   a real directory (every sync is a real fdatasync of the blob log
//!   before the index commit): MB/s and kops/s vs payload size;
//! * **read** — the hot path [`KvStore::get_bytes`] returns a borrow of
//!   the blob log's one reused read buffer (every payload is synced by
//!   then, so each read is one `pread` of header plus payload and no
//!   allocation; an unsynced payload would be a zero-copy borrow of the
//!   log's in-memory tail); compared against the copying consumer
//!   (`to_vec` of the borrow) and the checksum-verifying copy path
//!   ([`BlobLog::get_verified`]) on an identically loaded log.
//!
//! The run **verifies the no-allocation claim**, not just its speed: for
//! a sample of keys, repeated `get_bytes` calls must return the *same*
//! data pointer (a view into the log's one reused read buffer — an
//! implementation allocating per read would hand out fresh buffers),
//! and the gate asserts it. The full run also asserts the verified-copy
//! path is not faster than the borrowing path at the largest payload (if
//! it were, the borrowing path would be doing hidden work).
//!
//! Output: an aligned table, `results/exp_blob.csv`, and
//! `results/exp_blob.json` (tracked by `BENCH_BLOB.json` at the repo
//! root; see `docs/BENCHMARKS.md`).
//!
//! Run: `cargo run -p dxh-bench --release --bin exp_blob [--quick]
//! [--seed N]`

use std::time::Instant;

use dxh_analysis::{table::fmt_f, TextTable};
use dxh_bench::{emit, ExpArgs};
use dxh_core::{CoreConfig, KvStore};
use dxh_extmem::{BlobLog, FileBlob};
use dxh_hashfn::SplitMix64;

/// Sync the store after this many `put_bytes` (a realistic ingest
/// cadence: the blob fdatasync + index commit bill amortizes over it).
const SYNC_EVERY: usize = 512;

struct Point {
    payload: usize,
    n: usize,
    write_mb_s: f64,
    write_kops_s: f64,
    read_zero_copy_mops: f64,
    read_copy_mops: f64,
    read_verified_mops: f64,
}

/// Deterministic payload bytes for one key.
fn fill(buf: &mut [u8], rng: &mut SplitMix64) {
    for chunk in buf.chunks_mut(8) {
        let w = rng.next_u64().to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&w[..n]);
    }
}

/// One payload size: write churn through a payload-mode store, then the
/// three read paths over the same resident set.
fn run_once(payload: usize, n: usize, reads: usize, seed: u64) -> Point {
    let dir = std::env::temp_dir().join(format!("dxh-exp-blob-{}-{payload}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let cfg = CoreConfig::lemma5(32, 1024, 2).expect("config");
    let mut store = KvStore::open_payload(&dir, cfg, seed).expect("create payload store");

    let mut rng = SplitMix64::new(seed ^ payload as u64);
    let mut buf = vec![0u8; payload];

    // Write phase: n distinct keys, synced every SYNC_EVERY puts and
    // once at the end, so the measured wall includes the real blob
    // fdatasync + index commit bill.
    let t0 = Instant::now();
    for i in 0..n {
        fill(&mut buf, &mut rng);
        store.put_bytes(i as u64 + 1, &buf).expect("put_bytes");
        if (i + 1) % SYNC_EVERY == 0 {
            store.sync().expect("sync");
        }
    }
    store.sync().expect("final sync");
    let write_s = t0.elapsed().as_secs_f64();

    // No-allocation verification: repeated reads of one key must serve
    // the same bytes at the same address — a borrowed view into the
    // blob log's one reused read buffer, not a fresh allocation per read.
    for probe in [1u64, (n as u64 / 2).max(1), n as u64] {
        let p0 = store.get_bytes(probe).expect("probe").expect("present").as_ptr();
        let p1 = store.get_bytes(probe).expect("probe").expect("present").as_ptr();
        assert!(
            std::ptr::eq(p0, p1),
            "get_bytes(key {probe}) returned different addresses across calls — \
             the hot path allocates per read instead of reusing one read buffer"
        );
    }

    // Read keys in a seeded shuffle so the sweep is not a sequential
    // region walk.
    let mut order: Vec<u64> = (1..=n as u64).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }

    // Path 1: the hot path — get_bytes borrows the reused read buffer,
    // no per-read allocation or copy out.
    let mut sink = 0u64;
    let t0 = Instant::now();
    for r in 0..reads {
        let k = order[r % order.len()];
        let b = store.get_bytes(k).expect("get_bytes").expect("present");
        sink ^= u64::from(b[0]) ^ u64::from(b[b.len() - 1]);
    }
    let zero_s = t0.elapsed().as_secs_f64();

    // Path 2: the copying consumer — same API, plus the to_vec a
    // copy-out interface would impose on every read.
    let t0 = Instant::now();
    for r in 0..reads {
        let k = order[r % order.len()];
        let v = store.get_bytes(k).expect("get_bytes").expect("present").to_vec();
        sink ^= u64::from(v[0]) ^ u64::from(v[v.len() - 1]);
    }
    let copy_s = t0.elapsed().as_secs_f64();
    drop(store);

    // Path 3: the checksum-verifying copy path, on a standalone
    // identically loaded log (BlobLog::get_verified re-hashes the
    // payload on every read — the trust-boundary read).
    let blob_path = dir.join("verified.blob");
    let mut log = BlobLog::create(FileBlob::create(&blob_path).expect("create blob file"))
        .expect("create log");
    let mut rng2 = SplitMix64::new(seed ^ payload as u64);
    let mut offsets = Vec::with_capacity(n);
    for _ in 0..n {
        fill(&mut buf, &mut rng2);
        offsets.push(log.append(&buf).expect("append").0);
    }
    log.sync().expect("blob sync");
    let t0 = Instant::now();
    for r in 0..reads {
        let v = log.get_verified(offsets[r % offsets.len()]).expect("get_verified");
        sink ^= u64::from(v[0]) ^ u64::from(v[v.len() - 1]);
    }
    let verified_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    let _ = std::fs::remove_dir_all(&dir);

    let mb = (n * payload) as f64 / (1024.0 * 1024.0);
    Point {
        payload,
        n,
        write_mb_s: mb / write_s,
        write_kops_s: n as f64 / write_s / 1e3,
        read_zero_copy_mops: reads as f64 / zero_s / 1e6,
        read_copy_mops: reads as f64 / copy_s / 1e6,
        read_verified_mops: reads as f64 / verified_s / 1e6,
    }
}

fn main() {
    let args = ExpArgs::parse();
    let seed: u64 =
        args.get("seed").map(|v| v.parse().expect("--seed takes a number")).unwrap_or(0xB10B);
    let sizes: &[usize] =
        if args.quick { &[16, 256, 4096] } else { &[16, 64, 256, 1024, 4096, 16384] };
    // Per-size item count: bounded total bytes, clamped so small
    // payloads still exercise the index depth.
    let budget = args.scale(16 << 20, 2 << 20);
    let reads = args.scale(400_000, 50_000);

    let mut table = TextTable::new([
        "payload B",
        "items",
        "write MB/s",
        "write kops/s",
        "get_bytes Mops/s",
        "copy Mops/s",
        "verified Mops/s",
    ]);
    let mut json_rows = Vec::new();
    let mut points = Vec::new();
    for &payload in sizes {
        let n = (budget / payload.max(1)).clamp(64, 4096);
        let p = run_once(payload, n, reads, seed);
        table.row([
            p.payload.to_string(),
            p.n.to_string(),
            fmt_f(p.write_mb_s, 2),
            fmt_f(p.write_kops_s, 2),
            fmt_f(p.read_zero_copy_mops, 3),
            fmt_f(p.read_copy_mops, 3),
            fmt_f(p.read_verified_mops, 3),
        ]);
        json_rows.push(format!(
            "    {{\"payload\": {}, \"items\": {}, \"write_mb_s\": {:.3}, \
             \"write_kops_s\": {:.3}, \"read_zero_copy_mops\": {:.4}, \
             \"read_copy_mops\": {:.4}, \"read_verified_mops\": {:.4}}}",
            p.payload,
            p.n,
            p.write_mb_s,
            p.write_kops_s,
            p.read_zero_copy_mops,
            p.read_copy_mops,
            p.read_verified_mops
        ));
        points.push(p);
    }
    emit(
        "Blob payload path: write + three read paths vs payload size",
        &table,
        &args,
        "exp_blob.csv",
    );

    // Gates. The pointer-identity check (one reused read buffer, no
    // per-read allocation) already ran inside every run_once; here the
    // throughput side: at the largest payload the re-hashing verified
    // path must not beat the get_bytes borrow (if it does, get_bytes is
    // doing hidden per-read work).
    let largest = points.last().expect("at least one size");
    assert!(
        largest.read_zero_copy_mops >= largest.read_verified_mops,
        "borrowing get_bytes ({:.3} Mops/s) slower than the checksum-verifying copy path \
         ({:.3} Mops/s) at {} B payloads",
        largest.read_zero_copy_mops,
        largest.read_verified_mops,
        largest.payload
    );
    println!(
        "\nno per-read allocation: stable borrow addresses across repeated get_bytes (one \
         reused read buffer), and {:.3} Mops/s >= {:.3} Mops/s (verified-copy) at {} B",
        largest.read_zero_copy_mops, largest.read_verified_mops, largest.payload
    );

    let json = format!(
        "{{\n  \"bench\": \"exp_blob\",\n  \"command\": \"cargo run -p dxh-bench --release \
         --bin exp_blob -- --seed {seed}\",\n  \
         \"note\": \"Payload-mode KvStore on a real directory: writes pay the blob fdatasync \
         before every index commit (sync every {SYNC_EVERY} puts); reads compare the get_bytes \
         borrow (one pread of a synced frame into the blob log's reused read buffer; \
         read_zero_copy_mops) against the same borrow + to_vec, and against \
         BlobLog::get_verified (re-hashes every read). Pointer-identity of repeated get_bytes \
         is asserted: one reused read buffer, no per-read allocation. Wall-clock is \
         container-local.\",\n  \
         \"params\": {{\"sync_every\": {SYNC_EVERY}, \"reads_per_path\": {reads}, \
         \"seed\": {seed}}},\n  \"points\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let path = args.out_dir.join("exp_blob.json");
    if let Err(e) =
        std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, &json))
    {
        eprintln!("[json] failed to write {}: {e}", path.display());
    } else {
        println!("[json] {}", path.display());
    }
}
