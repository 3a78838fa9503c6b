//! The traced run's span recorder. Each client thread owns a
//! [`Recorder`]. Every span is folded into per-layer busy and self time
//! and per-name call statistics as it closes; the first
//! [`KEEP_PER_THREAD`] spans of each thread are also kept in memory and
//! written out when the run ends. A recorder that is off records
//! nothing, so the untraced run pays one branch per call.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::Res;

/// Spans kept per thread for the spans file; a long traced window
/// records millions.
pub const KEEP_PER_THREAD: usize = 100_000;

/// The layer a span's call went into; the benchmark's own loop is
/// [`Layer::Caller`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Caller,
    Service,
    Store,
    Table,
}

impl Layer {
    pub const ALL: [Layer; 4] = [Layer::Caller, Layer::Service, Layer::Store, Layer::Table];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Caller => "caller",
            Layer::Service => "service",
            Layer::Store => "store",
            Layer::Table => "table",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Parent of a root span, and of a span whose parent was not kept.
pub const ROOT: u32 = u32::MAX;

/// One kept span. Times are nanoseconds since the run's epoch; `parent`
/// indexes the same thread's kept spans.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u64,
}

/// Calls and time of one span name.
#[derive(Clone, Debug)]
pub struct NameStat {
    pub name: &'static str,
    pub total_ns: u64,
    pub calls: u64,
}

/// What a traced window's spans add up to, over all client threads.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Busy and self time per layer ([`Layer::ALL`] order). A span's
    /// self time is its duration minus its children's; one thread's
    /// children of one span run one after another, so they never overlap.
    pub busy_ns: [u64; 4],
    pub self_ns: [u64; 4],
    /// Time inside layer calls: outermost spans of a layer other than
    /// the caller's.
    pub attributed_ns: u64,
    pub names: Vec<NameStat>,
    /// Spans recorded, kept or not.
    pub spans: u64,
}

impl TraceSummary {
    fn name_mut(&mut self, name: &'static str) -> &mut NameStat {
        let i = match self.names.iter().position(|s| s.name == name) {
            Some(i) => i,
            None => {
                self.names.push(NameStat { name, total_ns: 0, calls: 0 });
                self.names.len() - 1
            }
        };
        &mut self.names[i]
    }

    /// The statistics of `name`, if any span had it.
    pub fn name(&self, name: &str) -> Option<&NameStat> {
        self.names.iter().find(|s| s.name == name)
    }

    /// Seconds spent in spans called `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.name(name).map_or(0.0, |s| s.total_ns as f64 / 1e9)
    }

    /// Adds another thread's summary.
    pub fn merge(&mut self, other: &TraceSummary) {
        for l in 0..4 {
            self.busy_ns[l] += other.busy_ns[l];
            self.self_ns[l] += other.self_ns[l];
        }
        self.attributed_ns += other.attributed_ns;
        self.spans += other.spans;
        for o in &other.names {
            let s = self.name_mut(o.name);
            s.total_ns += o.total_ns;
            s.calls += o.calls;
        }
    }
}

/// A span still open.
#[derive(Debug)]
struct Open {
    kept: u32,
    layer: Layer,
    name: &'static str,
    start: u64,
    child_ns: u64,
}

/// A per-thread recorder.
#[derive(Debug)]
pub struct Recorder {
    epoch: Option<Instant>,
    kept: Vec<Span>,
    open: Vec<Open>,
    summary: TraceSummary,
}

impl Recorder {
    /// A recorder that records when `on`, and otherwise records nothing.
    pub fn new(on: bool, epoch: Instant) -> Recorder {
        Recorder {
            epoch: on.then_some(epoch),
            kept: Vec::new(),
            open: Vec::new(),
            summary: TraceSummary::default(),
        }
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, layer: Layer, name: &'static str, req: u64) {
        if let Some(epoch) = self.epoch {
            self.begin_at(layer, name, req, epoch.elapsed().as_nanos() as u64);
        }
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if let Some(epoch) = self.epoch {
            self.end_at(epoch.elapsed().as_nanos() as u64);
        }
    }

    fn begin_at(&mut self, layer: Layer, name: &'static str, req: u64, start: u64) {
        let kept = if self.kept.len() < KEEP_PER_THREAD {
            let parent = self.open.last().map_or(ROOT, |o| o.kept);
            self.kept.push(Span { name, layer, start, end: start, parent, req });
            (self.kept.len() - 1) as u32
        } else {
            ROOT
        };
        self.open.push(Open { kept, layer, name, start, child_ns: 0 });
    }

    fn end_at(&mut self, end: u64) {
        let o = self.open.pop().expect("end matches a begin");
        if o.kept != ROOT {
            self.kept[o.kept as usize].end = end;
        }
        let ns = end - o.start;
        let s = &mut self.summary;
        s.spans += 1;
        s.busy_ns[o.layer.index()] += ns;
        s.self_ns[o.layer.index()] += ns - o.child_ns;
        let parent = self.open.last_mut();
        if o.layer != Layer::Caller && parent.as_ref().is_none_or(|p| p.layer == Layer::Caller) {
            s.attributed_ns += ns;
        }
        if let Some(p) = parent {
            p.child_ns += ns;
        }
        let stat = s.name_mut(o.name);
        stat.total_ns += ns;
        stat.calls += 1;
    }

    /// The kept spans and the summary of all of them.
    pub fn finish(self) -> (Vec<Span>, TraceSummary) {
        (self.kept, self.summary)
    }
}

/// Writes every kept span as a tab-separated line: thread, id, parent
/// (-1 for none), request id, layer, name, start and end in ns. Returns
/// the number written.
pub fn write_tsv(path: &Path, threads: &[Vec<Span>]) -> Res<usize> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "thread\tid\tparent\treq\tlayer\tname\tstart_ns\tend_ns")?;
    for (t, spans) in threads.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{t}\t{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.req,
                s.layer.name(),
                s.name,
                s.start,
                s.end
            )?;
        }
    }
    out.flush()?;
    Ok(threads.iter().map(Vec::len).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// caller 0..100 holding service 10..40 and service 50..90, the
    /// second holding store 60..70.
    fn recorded() -> Recorder {
        let mut r = Recorder::new(true, Instant::now());
        r.begin_at(Layer::Caller, "caller.op", 1, 0);
        r.begin_at(Layer::Service, "service.a", 1, 10);
        r.end_at(40);
        r.begin_at(Layer::Service, "service.b", 1, 50);
        r.begin_at(Layer::Store, "store.c", 1, 60);
        r.end_at(70);
        r.end_at(90);
        r.end_at(100);
        r
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let (kept, s) = recorded().finish();
        assert_eq!(s.busy_ns, [100, 70, 10, 0]);
        assert_eq!(s.self_ns, [30, 60, 10, 0]);
        assert_eq!(s.attributed_ns, 70);
        assert_eq!(s.spans, 4);
        assert_eq!(s.busy_s("service.b"), 40e-9);
        assert_eq!(s.name("store.c").map(|n| n.calls), Some(1));
        let parents: Vec<u32> = kept.iter().map(|k| k.parent).collect();
        assert_eq!(parents, vec![ROOT, 0, 0, 2]);
        assert_eq!((kept[3].start, kept[3].end), (60, 70));
    }

    #[test]
    fn summaries_merge_and_a_recorder_that_is_off_records_nothing() {
        let mut total = TraceSummary::default();
        total.merge(&recorded().finish().1);
        total.merge(&recorded().finish().1);
        assert_eq!(total.busy_ns, [200, 140, 20, 0]);
        assert_eq!(total.name("service.a").map(|n| n.calls), Some(2));
        let mut off = Recorder::new(false, Instant::now());
        off.begin(Layer::Caller, "caller.op", 1);
        off.end();
        let (kept, s) = off.finish();
        assert!(kept.is_empty() && s.spans == 0);
    }
}
