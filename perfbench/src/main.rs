//! The repository's benchmark: three closed-loop workloads against the
//! public APIs of `ShardedKvStore`, `KvStore` and `LogMethodTable`,
//! every answer checked, end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one. README.md explains the
//! workloads, sizes, flush policy and which counts repeat exactly.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload service-churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Data goes under `.bench_data/` there
//! and is removed at exit; a traced run leaves its spans in
//! `.bench_data/spans-<workload>.tsv`. The last line of standard output
//! is the result: `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is 0 only when every answer was right.

#![forbid(unsafe_code)]

mod churn;
mod host;
mod ingest;
mod ladder;
mod metrics;
mod payload;
mod series;
mod spans;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dxh_core::CoreConfig;
use dxh_extmem::Key;
use dxh_workloads::{Op, UniformInserts, Workload};

use host::{Host, ProcIo};
use metrics::{median, ratio, result_line, Metrics, END_TO_END, PER_LAYER};
use series::Series;
use spans::{Layer, Span, TraceSummary};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["service-churn", "store-ingest", "payload-read"];

/// Set-ups per measured window: at least `SETUPS`, and enough to spend
/// `SETUP_S` seconds setting up, so that a set-up of a few milliseconds
/// is sampled across a second. `setup_s` is their median.
pub const SETUPS: usize = 3;
const SETUP_S: f64 = 1.0;

/// Drop-and-reopen cycles after a window: at least `REOPENS`, and
/// enough to fill `REOPEN_S` seconds. `reopen_s` is the fastest cycle:
/// a reopen is a burst of syscalls and fsyncs whose cost on a shared
/// host drifts with the neighbours, and the fastest of many cycles is
/// the cost without them. The cycles fill more than a second because a
/// neighbour's burst can last that long. The first cycle also drains
/// what the window left behind; its time is printed apart.
pub const REOPENS: usize = 11;
const REOPEN_S: f64 = 2.0;

/// Where every run keeps its data, relative to the working directory.
const DATA_ROOT: &str = ".bench_data";

/// Every store of every workload: Lemma 5 with `b = 32`, `m = 1024`,
/// `γ = 2`, so `H0` holds 512 items per store.
pub fn config() -> CoreConfig {
    CoreConfig::lemma5(32, 1024, 2).expect("valid Lemma 5 parameters")
}

/// What a workload gets to run with.
pub struct Ctx {
    pub seed: u64,
    /// A directory of this run's own, removed when the run ends.
    pub data: PathBuf,
}

/// What one measured window of a workload produced.
pub struct Window {
    pub setup_s: Vec<f64>,
    /// Write calls and read calls by slice of the window (of the phases,
    /// by round, on `store-ingest`).
    pub write: Series,
    pub read: Series,
    pub reopen_s: f64,
    /// Accounted table I/Os during the window, under the table's cost
    /// model, summed over stores.
    pub table_ios: u64,
    /// `/proc/self/io` over the window, and `syscr` over the reads alone.
    pub io: ProcIo,
    pub read_syscr: u64,
    /// Peak RSS through set-up and window, before the reopen cycles.
    pub peak_rss_mb: f64,
    /// User bytes acknowledged, bytes on disk at the end, live user bytes.
    pub user_bytes: u64,
    pub disk_bytes: u64,
    pub live_bytes: u64,
    /// Operations attempted (window and post-reopen check) and those that
    /// failed or answered wrong.
    pub attempted: u64,
    pub failed: u64,
    /// What the client threads' spans add up to (empty untraced), and
    /// their summed wall time in the window.
    pub trace: TraceSummary,
    pub client_ns: u64,
    /// Kept spans per recorder, client threads and ladder, to write out.
    pub spans: Vec<Vec<Span>>,
    /// Per-layer values the workload sets itself.
    pub layers: Metrics,
    pub notes: Vec<String>,
}

impl Window {
    pub fn new(setup_s: Vec<f64>) -> Window {
        Window {
            setup_s,
            write: Series::new(1, 0),
            read: Series::new(2, 0),
            reopen_s: 0.0,
            table_ios: 0,
            io: ProcIo::default(),
            read_syscr: 0,
            peak_rss_mb: 0.0,
            user_bytes: 0,
            disk_bytes: 0,
            live_bytes: 0,
            attempted: 0,
            failed: 0,
            trace: TraceSummary::default(),
            client_ns: 0,
            spans: Vec::new(),
            layers: Metrics::new(PER_LAYER),
            notes: Vec::new(),
        }
    }

    /// Takes a finished recorder's spans; its summary counts toward the
    /// window's per-layer metrics only when `in_window` (the ladder's
    /// spans are written out, not summed).
    pub fn add_trace(&mut self, (kept, summary): (Vec<Span>, TraceSummary), in_window: bool) {
        if in_window {
            self.trace.merge(&summary);
        }
        self.spans.push(kept);
    }

    /// Completed ops, writes and reads.
    fn ops(&self) -> u64 {
        self.write.ops() + self.read.ops()
    }
}

/// `n` distinct uniform keys for `seed`, from the workloads crate's
/// uniform-insert generator.
pub fn uniform_keys(seed: u64, n: usize) -> Vec<Key> {
    UniformInserts { n }
        .generate(seed)
        .ops
        .into_iter()
        .map(|op| match op {
            Op::Insert(k, _) => k,
            other => unreachable!("uniform inserts hold only inserts, not {other:?}"),
        })
        .collect()
}

/// µs in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Removes `dir` if it exists, then fsyncs its parent: the filesystem
/// commits (and, when mounted with `discard`, trims) the freed space now,
/// rather than in the middle of whatever is timed next.
pub fn clear_dir(dir: &Path) -> Res<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        other => other?,
    }
    let parent = dir.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    std::fs::File::open(parent)?.sync_all()?;
    Ok(())
}

/// Clears `dir`, then runs `setup` once, timed.
pub fn set_up<S>(dir: &Path, setup: &mut impl FnMut() -> Res<S>) -> Res<(S, f64)> {
    clear_dir(dir)?;
    let t = Instant::now();
    let state = setup()?;
    Ok((state, t.elapsed().as_secs_f64()))
}

/// Times the rest of the set-ups (see [`SETUPS`]) after the first, each
/// dropped at once, and clears `dir`. Runs after the window, so the
/// extra set-ups leave no trace in it or in its peak RSS.
pub fn more_setups<S>(
    dir: &Path,
    setup: &mut impl FnMut() -> Res<S>,
    times: &mut Vec<f64>,
) -> Res<()> {
    while times.len() < SETUPS || times.iter().sum::<f64>() < SETUP_S {
        let (state, t) = set_up(dir, setup)?;
        drop(state);
        times.push(t);
    }
    clear_dir(dir)
}

/// Drops `state` and reopens it, [`REOPENS`] times or more (see there);
/// returns the reopened state, the fastest cycle time and a note.
pub fn reopen<S>(mut state: S, mut open: impl FnMut() -> Res<S>) -> Res<(S, f64, String)> {
    let mut times = Vec::with_capacity(REOPENS);
    let start = Instant::now();
    while times.len() < REOPENS || start.elapsed().as_secs_f64() < REOPEN_S {
        let t = Instant::now();
        drop(state);
        state = open()?;
        times.push(t.elapsed().as_secs_f64());
    }
    let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
    let note = format!(
        "reopen: {} drop-and-reopen cycles, first {:.6} s, fastest {fastest:.6} s, median {:.6} s",
        times.len(),
        times[0],
        median(&times)
    );
    Ok((state, fastest, note))
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value}; one of {WORKLOADS:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn window(args: &Args, ctx: &Ctx, seconds: f64, traced: bool) -> Res<Window> {
    match args.workload {
        "service-churn" => churn::window(ctx, seconds, traced),
        "store-ingest" => ingest::window(ctx, seconds, traced),
        "payload-read" => payload::window(ctx, seconds, traced),
        other => unreachable!("parse_args admits only known workloads, not {other}"),
    }
}

/// The client-observed timings that wait on fdatasync. They are
/// per-layer metrics of the traced run, not end-to-end ones: README.md
/// (Noise) says why.
fn disk_waits(w: &Window) -> [(&'static str, f64); 5] {
    [
        ("write_kops", w.write.kops()),
        ("read_kops", w.read.kops()),
        ("write_p50_us", w.write.percentile(500)),
        ("write_p99_us", w.write.percentile(990)),
        ("reopen_s", w.reopen_s),
    ]
}

fn end_to_end(w: &Window) -> Metrics {
    println!("{}", w.write.describe("write calls"));
    println!("{}", w.read.describe("read calls"));
    for (name, v) in disk_waits(w) {
        println!("waits on fdatasync: {name} {v:.4}");
    }
    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", median(&w.setup_s));
    m.set("read_p50_us", w.read.percentile(500));
    m.set("read_p99_us", w.read.percentile(990));
    m.set("ios_per_op", ratio(w.table_ios as f64, w.ops() as f64));
    m.set("write_amp", ratio(w.io.wchar as f64, w.user_bytes as f64));
    m.set("space_amp", ratio(w.disk_bytes as f64, w.live_bytes as f64));
    m.set("peak_rss_mb", w.peak_rss_mb);
    m
}

/// The per-layer metrics: the workload's own, plus those read off the
/// traced window's spans and counters, plus the timings that wait on
/// fdatasync and the tracing overhead, from the untraced window `base`.
fn per_layer(base: &Window, traced: &Window) -> Metrics {
    let mut m = traced.layers.clone();
    for (name, v) in disk_waits(base) {
        m.set(name, v);
    }
    let t = &traced.trace;
    // The client threads call no table directly; the ladder times it.
    for (i, layer) in Layer::ALL.iter().enumerate().filter(|(_, l)| **l != Layer::Table) {
        m.set(&format!("{}.busy_s", layer.name()), t.busy_ns[i] as f64 / 1e9);
        m.set(&format!("{}.self_s", layer.name()), t.self_ns[i] as f64 / 1e9);
    }
    m.set("service.submit_busy_s", t.busy_s("service.submit"));
    m.set("service.get_busy_s", t.busy_s("service.get"));
    m.set("service.put_bytes_busy_s", t.busy_s("service.put_bytes"));
    m.set("service.get_bytes_busy_s", t.busy_s("service.get_bytes"));
    m.set("os.wchar_bytes", traced.io.wchar as f64);
    m.set("os.syscw", traced.io.syscw as f64);
    m.set("os.rchar_bytes", traced.io.rchar as f64);
    m.set("os.syscr_per_read", ratio(traced.read_syscr as f64, traced.read.ops() as f64));
    m.set("caller.write_samples", traced.write.calls() as f64);
    m.set("caller.read_samples", traced.read.calls() as f64);
    let attributed = t.attributed_ns as f64;
    m.set("caller.unattributed_frac", 1.0 - ratio(attributed, traced.client_ns as f64));
    let (tw, tr) = (traced.write.kops(), traced.read.kops());
    let (bw, br) = (base.write.kops(), base.read.kops());
    m.set("trace.overhead", ratio(tw + tr, bw + br));
    m.set("trace.overhead_write", ratio(tw, bw));
    m.set("trace.overhead_read", ratio(tr, br));
    m
}

fn measure(args: &Args, data: &Path) -> Res<bool> {
    let host = Host::probe(data)?;
    println!("{}", host.line());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let ctx = Ctx { seed: args.seed, data: data.to_path_buf() };
    let (metrics, attempted, failed) = if args.trace {
        // Two fresh windows of half the time each: the untraced one is
        // the base of trace.overhead.
        let base = window(args, &ctx, args.seconds / 2.0, false)?;
        let traced = window(args, &ctx, args.seconds / 2.0, true)?;
        for note in base.notes.iter().chain(&traced.notes) {
            println!("{note}");
        }
        let m = per_layer(&base, &traced);
        let (attempted, failed) = (base.attempted + traced.attempted, base.failed + traced.failed);
        let path = Path::new(DATA_ROOT).join(format!("spans-{}.tsv", args.workload));
        let written = spans::write_tsv(&path, &traced.spans)?;
        println!(
            "spans: {} recorded in the traced window, {written} written to {}",
            traced.trace.spans,
            path.display()
        );
        (m, attempted, failed)
    } else {
        let w = window(args, &ctx, args.seconds, false)?;
        for note in &w.notes {
            println!("{note}");
        }
        (end_to_end(&w), w.attempted, w.failed)
    };
    println!("error_rate {}", ratio(failed as f64, attempted as f64));
    print!("{}", metrics.lines());
    let correct = failed == 0 && attempted > 0;
    println!("{}", result_line(correct, attempted.max(1), failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let data = Path::new(DATA_ROOT).join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = clear_dir(&data)
        .and_then(|()| Ok(std::fs::create_dir_all(&data)?))
        .and_then(|()| measure(&args, &data));
    if let Err(e) = clear_dir(&data) {
        eprintln!("perfbench: could not remove {}: {e}", data.display());
    }
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
