//! What the kernel reports about this process and host: the host block
//! printed with every result, `/proc/self/io` counters, peak RSS and
//! on-disk footprint.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::MetadataExt;
use std::path::Path;
use std::time::Instant;

use crate::metrics::Summary;
use crate::Res;

/// fdatasync calls the host probe times: enough for a p99 with ten
/// samples beyond it.
const PROBE_SYNCS: usize = 1000;

/// Bytes appended before each probed fdatasync.
const PROBE_WRITE: usize = 4096;

/// The host a result was measured on.
#[derive(Debug)]
pub struct Host {
    pub nproc: usize,
    pub rustc: &'static str,
    pub kernel: String,
    pub filesystem: String,
    pub fdatasync: Summary,
}

impl Host {
    /// Probes the host, timing fdatasync in `dir` (the data directory).
    pub fn probe(dir: &Path) -> Res<Host> {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
        let filesystem = filesystem_of(dir).unwrap_or_else(|| "unknown".into());
        let path = dir.join("fdatasync.probe");
        let mut file = OpenOptions::new().create(true).truncate(true).write(true).open(&path)?;
        let block = vec![0xA5u8; PROBE_WRITE];
        let mut samples = Vec::with_capacity(PROBE_SYNCS);
        for _ in 0..PROBE_SYNCS {
            file.write_all(&block)?;
            let t = Instant::now();
            file.sync_data()?;
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        drop(file);
        fs::remove_file(&path)?;
        Ok(Host {
            nproc,
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            kernel,
            filesystem,
            fdatasync: Summary::of(&mut samples),
        })
    }

    /// The host block as one JSON line.
    pub fn line(&self) -> String {
        format!(
            "host {{\"nproc\": {}, \"rustc\": \"{}\", \"kernel\": \"{}\", \"filesystem\": \"{}\", \
             \"fdatasync_p50_us\": {:.1}, \"fdatasync_p99_us\": {:.1}, \"fdatasync_samples\": {}}}",
            self.nproc,
            self.rustc,
            self.kernel,
            self.filesystem,
            self.fdatasync.p50,
            self.fdatasync.p99,
            self.fdatasync.n
        )
    }
}

/// The filesystem type of the mount holding `dir`: the longest mount
/// point in `/proc/self/mountinfo` that prefixes its canonical path.
fn filesystem_of(dir: &Path) -> Option<String> {
    let dir = fs::canonicalize(dir).ok()?;
    let info = fs::read_to_string("/proc/self/mountinfo").ok()?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let Some((pre, post)) = line.split_once(" - ") else { continue };
        let (Some(mount), Some(fstype)) =
            (pre.split_whitespace().nth(4), post.split_whitespace().next())
        else {
            continue;
        };
        let mount = mount.replace("\\040", " ");
        if dir.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, fs)| fs)
}

/// The counters of `/proc/self/io` this benchmark reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcIo {
    pub rchar: u64,
    pub wchar: u64,
    pub syscr: u64,
    pub syscw: u64,
}

impl ProcIo {
    /// The process's counters now.
    pub fn now() -> Res<ProcIo> {
        let text = fs::read_to_string("/proc/self/io")?;
        let field = |key: &str| -> Res<u64> {
            let line = text
                .lines()
                .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(':')))
                .ok_or_else(|| format!("/proc/self/io has no {key}"))?;
            Ok(line.trim().parse()?)
        };
        Ok(ProcIo {
            rchar: field("rchar")?,
            wchar: field("wchar")?,
            syscr: field("syscr")?,
            syscw: field("syscw")?,
        })
    }

    /// Counter-wise `self - earlier`.
    pub fn since(&self, earlier: &ProcIo) -> ProcIo {
        ProcIo {
            rchar: self.rchar - earlier.rchar,
            wchar: self.wchar - earlier.wchar,
            syscr: self.syscr - earlier.syscr,
            syscw: self.syscw - earlier.syscw,
        }
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Res<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("/proc/self/status has no VmHWM")?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()?;
    Ok(kb / 1024.0)
}

/// Bytes allocated on disk to every file under `dir` (what `du`
/// counts: sparse, never-written block slots take none).
pub fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() { dir_bytes(&entry.path())? } else { meta.blocks() * 512 };
    }
    Ok(total)
}

/// Size in bytes of the file at `path`.
pub fn file_bytes(path: &Path) -> Res<u64> {
    Ok(File::open(path)?.metadata()?.len())
}
