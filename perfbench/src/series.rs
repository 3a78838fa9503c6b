//! Call timings of one kind (writes or reads) by slice of the measured
//! window. Throughput is reported as the median over slices, so that a
//! second or two of a neighbour's disk traffic moves one slice, not the
//! result. Percentiles are taken over every slice's samples pooled: a
//! slice's tail swings with whether a merge or checkpoint fell in it,
//! and the pooled tail averages that out. Each slice keeps a uniform
//! sample of a fixed number of latencies, so memory does not grow with
//! throughput.

use dxh_hashfn::SplitMix64;

use crate::metrics::{median, percentile, Summary};

/// Seconds per slice of a timed window.
pub const SLICE_S: f64 = 2.0;

/// Latencies a timed slice keeps (reservoir sampling beyond that).
pub const SLICE_SAMPLES: usize = 20_000;

#[derive(Clone, Debug, Default)]
pub struct Slice {
    /// A uniform sample of this slice's call latencies, in µs.
    pub lat: Vec<f64>,
    /// Calls completed in the slice, and the ops they carried.
    pub calls: u64,
    pub ops: u64,
    /// Seconds the slice measured.
    pub secs: f64,
}

#[derive(Clone, Debug)]
pub struct Series {
    pub slices: Vec<Slice>,
    /// Latencies kept per slice.
    cap: usize,
    rng: SplitMix64,
}

impl Series {
    /// An empty series keeping `cap` latencies per slice; `salt` seeds
    /// its reservoir sampling.
    pub fn new(salt: u64, cap: usize) -> Series {
        Series { slices: Vec::new(), cap, rng: SplitMix64::new(salt) }
    }

    /// A series with one slice per [`SLICE_S`] of a `seconds`-long
    /// window (the last one shorter when `seconds` is not a multiple).
    pub fn timed(salt: u64, seconds: f64) -> Series {
        let n = (seconds / SLICE_S).ceil().max(1.0) as usize;
        let mut s = Series::new(salt, SLICE_SAMPLES);
        s.slices = (0..n)
            .map(|i| Slice {
                lat: Vec::with_capacity(SLICE_SAMPLES),
                secs: (seconds - i as f64 * SLICE_S).min(SLICE_S),
                ..Slice::default()
            })
            .collect();
        s
    }

    /// Records a call that completed `at_s` seconds into a timed window;
    /// calls finishing after the window land in its last slice.
    #[inline]
    pub fn record_at(&mut self, at_s: f64, lat_us: f64, ops: u64) {
        let i = ((at_s / SLICE_S) as usize).min(self.slices.len() - 1);
        self.record(i, lat_us, ops);
    }

    /// Records a call in slice `i`, adding slices as needed.
    #[inline]
    pub fn record(&mut self, i: usize, lat_us: f64, ops: u64) {
        self.grow(i);
        let s = &mut self.slices[i];
        s.calls += 1;
        s.ops += ops;
        if s.lat.len() < self.cap {
            s.lat.push(lat_us);
        } else {
            let j = self.rng.below(s.calls) as usize;
            if j < self.cap {
                s.lat[j] = lat_us;
            }
        }
    }

    /// Sets the seconds slice `i` measured (untimed series).
    pub fn set_secs(&mut self, i: usize, secs: f64) {
        self.grow(i);
        self.slices[i].secs = secs;
    }

    fn grow(&mut self, i: usize) {
        while self.slices.len() <= i {
            self.slices.push(Slice { lat: Vec::with_capacity(self.cap), ..Slice::default() });
        }
    }

    /// Adds `other`'s calls slice by slice (another thread's share of
    /// the same window).
    pub fn merge(&mut self, other: &Series) {
        if let Some(last) = other.slices.len().checked_sub(1) {
            self.grow(last);
        }
        for (s, o) in self.slices.iter_mut().zip(&other.slices) {
            s.calls += o.calls;
            s.ops += o.ops;
            s.secs = s.secs.max(o.secs);
            s.lat.extend_from_slice(&o.lat);
        }
    }

    pub fn calls(&self) -> u64 {
        self.slices.iter().map(|s| s.calls).sum()
    }

    pub fn ops(&self) -> u64 {
        self.slices.iter().map(|s| s.ops).sum()
    }

    /// Median over slices of ops per second, in thousands. Slices shorter
    /// than half a slice are left out unless nothing else measured.
    pub fn kops(&self) -> f64 {
        let rate = |min: f64| -> Vec<f64> {
            self.slices
                .iter()
                .filter(|s| s.secs > min)
                .map(|s| s.ops as f64 / s.secs / 1e3)
                .collect()
        };
        let full = rate(SLICE_S / 2.0);
        if full.is_empty() {
            median(&rate(0.0))
        } else {
            median(&full)
        }
    }

    /// The `pm`-per-mille latency of every slice's samples pooled.
    pub fn percentile(&self, pm: u64) -> f64 {
        let mut v = self.pooled();
        v.sort_by(f64::total_cmp);
        percentile(&v, pm)
    }

    /// Every kept sample, pooled.
    pub fn pooled(&self) -> Vec<f64> {
        self.slices.iter().flat_map(|s| s.lat.iter().copied()).collect()
    }

    /// One line for people: counts, the reported p50 and p99, and the
    /// pooled sample's highest supported percentile.
    pub fn describe(&self, what: &str) -> String {
        let pooled = Summary::of(&mut self.pooled());
        let tail = match pooled.tail {
            Some((pm, v)) => format!("pooled p{} = {v:.2} us", pm as f64 / 10.0),
            None => "no pooled percentile supported".into(),
        };
        let kops: Vec<String> =
            self.slices.iter().map(|s| format!("{:.1}", s.ops as f64 / s.secs / 1e3)).collect();
        let by_slice = |pm: u64| -> String {
            let v: Vec<String> = self
                .slices
                .iter()
                .map(|s| {
                    let mut v = s.lat.clone();
                    v.sort_by(f64::total_cmp);
                    format!("{:.1}", percentile(&v, pm))
                })
                .collect();
            v.join(" ")
        };
        format!(
            "{what}: {} calls ({} sampled) over {} slices; pooled p50 = {:.2} us, \
             p99 = {:.2} us; {tail}; kops by slice [{}]; p50 by slice [{}]; p99 by slice [{}]",
            self.calls(),
            pooled.n,
            self.slices.len(),
            self.percentile(500),
            self.percentile(990),
            kops.join(" "),
            by_slice(500),
            by_slice(990)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_slices_cover_the_window() {
        let s = Series::timed(1, 5.0);
        let secs: Vec<f64> = s.slices.iter().map(|s| s.secs).collect();
        assert_eq!(secs, vec![2.0, 2.0, 1.0]);
        assert_eq!(Series::timed(1, 4.0).slices.len(), 2);
    }

    #[test]
    fn kops_are_medians_over_slices_and_percentiles_pooled() {
        let mut s = Series::timed(1, 6.0);
        for (i, rate) in [1000u64, 3000, 2000].into_iter().enumerate() {
            for j in 0..rate {
                s.record_at(i as f64 * SLICE_S + 0.5, (i * 100 + j as usize % 100 + 1) as f64, 2);
            }
        }
        // 2000, 6000 and 4000 ops over 2 s each.
        assert_eq!(s.kops(), 2.0);
        assert_eq!(s.calls(), 6000);
        assert_eq!(s.ops(), 12_000);
        // Pooled: 1..=100 ten times, 101..=200 thirty times, 201..=300
        // twenty times; rank 3000 is 167 and rank 5940 is 297.
        assert_eq!(s.percentile(500), 167.0);
        assert_eq!(s.percentile(990), 297.0);
        // A call past the window lands in the last slice.
        s.record_at(100.0, 1.0, 1);
        assert_eq!(s.slices[2].calls, 2001);
    }

    #[test]
    fn reservoir_bounds_memory() {
        let mut s = Series::new(3, 500);
        for j in 0..1500 {
            s.record(0, j as f64, 1);
        }
        assert_eq!(s.slices[0].lat.len(), 500);
        assert_eq!(s.calls(), 1500);
        let mut few = Series::new(3, 500);
        for j in 1..=100 {
            few.record(0, j as f64, 1);
        }
        assert_eq!(few.percentile(990), 99.0);
        assert_eq!(Series::new(3, 500).percentile(990), 0.0);
    }
}
