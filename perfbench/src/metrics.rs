//! The metric registry, the percentile and ratio helpers, and the
//! result line the benchmark ends with.

/// End-to-end metrics: name and unit, in output order. `BENCHMARK.json`
/// lists the same names and units (checked by a test below).
///
/// `error_rate` is printed on its own line rather than here: a healthy
/// run reads exactly 0, and it travels in the result line's `attempted`
/// and `failed` counts instead. Timings that wait on fdatasync are
/// per-layer metrics of the traced run instead: README.md says why.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("ios_per_op", "io/op"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, grouped by layer. A metric whose
/// layer a workload does not exercise reads 0 there (README.md says
/// which workload moves which metric).
pub const PER_LAYER: &[(&str, &str)] = &[
    // caller: client-observed timings that wait on fdatasync, from the
    // traced run's untraced half
    ("write_kops", "kops/s"),
    ("read_kops", "kops/s"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("reopen_s", "s"),
    // service: dxh_core::ShardedKvStore
    ("service.syncs_per_write", "ratio"),
    ("service.avg_batch", "ops"),
    ("service.largest_batch", "ops"),
    ("service.coalesced_ratio", "ratio"),
    ("service.checkpoint_hardens", "count"),
    ("service.sealed_discards", "count"),
    ("service.manifest_delta_bytes", "bytes"),
    ("service.manifest_full_bytes", "bytes"),
    ("service.submit_busy_s", "s"),
    ("service.get_busy_s", "s"),
    ("service.put_bytes_busy_s", "s"),
    ("service.get_bytes_busy_s", "s"),
    ("service.get_bytes_ns_over_store", "ns"),
    ("service.busy_s", "s"),
    ("service.self_s", "s"),
    // store: dxh_core::KvStore and its media
    ("store.sync_calls", "count"),
    ("store.sync_p50_us", "us"),
    ("store.sync_p99_us", "us"),
    ("store.sync_busy_s", "s"),
    ("store.insert_ns", "ns"),
    ("store.lookup_ns", "ns"),
    ("store.manifest_delta_bytes", "bytes"),
    ("store.manifest_full_bytes", "bytes"),
    ("store.get_bytes_ns", "ns"),
    ("store.busy_s", "s"),
    ("store.self_s", "s"),
    // table: dxh_core::LogMethodTable on MemDisk
    ("table.ios_per_insert", "io/op"),
    ("table.ios_per_lookup", "io/op"),
    ("table.insert_ns_mem", "ns"),
    ("table.lookup_ns_mem", "ns"),
    ("table.levels", "count"),
    ("table.reads", "count"),
    ("table.writes", "count"),
    ("table.rmws", "count"),
    // backend: dxh_extmem FileDisk against MemDisk
    ("backend.insert_ns_delta", "ns"),
    ("backend.lookup_ns_delta", "ns"),
    ("backend.live_blocks", "count"),
    ("backend.file_bytes", "bytes"),
    // blob: dxh_extmem::BlobLog
    ("blob.bytes", "bytes"),
    ("blob.live_frac", "ratio"),
    // os: /proc/self/io
    ("os.wchar_bytes", "bytes"),
    ("os.syscw", "count"),
    ("os.rchar_bytes", "bytes"),
    ("os.syscr_per_read", "ratio"),
    // caller: the benchmark's own client loop
    ("caller.write_samples", "count"),
    ("caller.read_samples", "count"),
    ("caller.unattributed_frac", "ratio"),
    ("caller.busy_s", "s"),
    ("caller.self_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.overhead_write", "ratio"),
    ("trace.overhead_read", "ratio"),
];

/// Values for one registry ([`END_TO_END`] or [`PER_LAYER`]); every
/// metric starts at 0.
#[derive(Clone, Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    /// All metrics of `table`, at 0.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics { table, values: vec![0.0; table.len()] }
    }

    fn index(&self, name: &str) -> usize {
        self.table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not registered"))
    }

    /// Sets `name`. Panics on a name outside the registry or a value
    /// that is not finite: both are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self.index(name);
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values[i] = value;
    }

    /// The value of `name`.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.values[self.index(name)]
    }

    /// One `name value unit` line per metric, for people.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for ((name, unit), v) in self.table.iter().zip(&self.values) {
            out.push_str(&format!("  {name:<34} {v:>16.4} {unit}\n"));
        }
        out
    }

    /// The `metrics` object of the result line. Values print with every
    /// digit Rust's shortest round-trip form gives.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .table
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| {
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

/// `num / den`, or 0 when the base is 0 (a layer the workload did not
/// exercise, or an empty phase) — never NaN or infinity.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Candidate tail percentiles in per-mille, highest first.
const TAIL_PER_MILLE: [u64; 4] = [999, 990, 900, 500];

/// Samples a timing needs beyond a percentile before it is reported.
const TAIL_SAMPLES: u64 = 10;

/// Nearest rank (1-based) of the `pm`-per-mille percentile among `n`
/// samples, in integer arithmetic so that e.g. p99.9 of 10 000 samples
/// is rank 9990 exactly.
fn rank(n: u64, pm: u64) -> u64 {
    (pm * n).div_ceil(1000).max(1)
}

/// The highest of p99.9, p99, p90 and p50 (in per-mille) that has at
/// least ten samples beyond it, or `None` for fewer than 20 samples.
pub fn tail_per_mille(n: usize) -> Option<u64> {
    let n = n as u64;
    TAIL_PER_MILLE.into_iter().find(|&pm| n >= rank(n, pm) + TAIL_SAMPLES)
}

/// Nearest-rank percentile (`pm` per mille) of ascending `sorted`;
/// 0 for no samples.
pub fn percentile(sorted: &[f64], pm: u64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let r = rank(sorted.len() as u64, pm) as usize;
    sorted[r.min(sorted.len()) - 1]
}

/// Median, p99 and the highest supported tail of one set of timings.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// `(per-mille, value)` of [`tail_per_mille`], when supported.
    pub tail: Option<(u64, f64)>,
}

impl Summary {
    /// Sorts `samples` and summarizes them.
    pub fn of(samples: &mut [f64]) -> Summary {
        samples.sort_by(f64::total_cmp);
        Summary {
            n: samples.len(),
            p50: percentile(samples, 500),
            p99: percentile(samples, 990),
            tail: tail_per_mille(samples.len()).map(|pm| (pm, percentile(samples, pm))),
        }
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_per_mille(10_000), Some(999));
        assert_eq!(tail_per_mille(9_999), Some(990));
        assert_eq!(tail_per_mille(1_000), Some(990));
        assert_eq!(tail_per_mille(999), Some(900));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(99), Some(500));
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(19), None);
        assert_eq!(tail_per_mille(0), None);
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 500.0);
        assert_eq!(percentile(&v, 990), 990.0);
        assert_eq!(percentile(&v, 999), 999.0);
        assert_eq!(percentile(&[], 990), 0.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        let mut w = v.clone();
        w.reverse();
        let s = Summary::of(&mut w);
        assert_eq!((s.n, s.p50, s.p99), (1000, 500.0, 990.0));
        assert_eq!(s.tail, Some((990, 990.0)));
        assert_eq!(Summary::of(&mut v[..999].to_vec()).tail, Some((900, 900.0)));
    }

    #[test]
    fn ratios_handle_a_zero_base() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
        let mut m = Metrics::new(PER_LAYER);
        m.set("trace.overhead", ratio(1.0, 0.0));
        assert!(m.json().contains("\"trace.overhead\": {\"value\": 0, \"unit\": \"ratio\"}"));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new(END_TO_END);
        m.set("read_p50_us", 1.25);
        let line = result_line(true, 10, 0, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"read_p50_us\": {\"value\": 1.25, \"unit\": \"us\"}"));
    }

    /// The registries and `BENCHMARK.json` name the same metrics with
    /// the same units.
    #[test]
    fn benchmark_json_lists_every_registered_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = compact.matches("\"name\":").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len());
    }
}
