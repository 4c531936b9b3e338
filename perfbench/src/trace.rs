//! In-memory spans recorded by the traced replay around each call into a
//! layer, with self-time accounting.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent index of a top-level span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer call the span covers (`crate.module.call`).
    pub name: &'static str,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans into a preallocated buffer.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
}

impl Tracer {
    /// A tracer holding at most `cap` spans.
    pub fn new(cap: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(cap.min(1 << 22)),
            cap,
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// True once the buffer is full; the replay stops at the next step.
    pub fn full(&self) -> bool {
        self.spans.len() >= self.cap
    }

    /// Opens a span under `parent`; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end = now;
    }

    /// Records a span whose interval is already known (a layer's own
    /// timer read back from its counters, placed at the parent's start).
    pub fn record(&mut self, name: &'static str, parent: u32, start: u64, end: u64) {
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes a `# title` line, then the spans as tab-separated
    /// `id parent name start_ns end_ns` rows.
    pub fn write_tsv(&self, path: &Path, title: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {title}")?;
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(out, "{i}\t{parent}\t{}\t{}\t{}", s.name, s.start, s.end)?;
        }
        out.flush()
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
    /// Every duration, ns (for medians and percentiles).
    pub durations: Vec<f64>,
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children are nested inside their parent and do not
/// overlap each other, as in a single-threaded call tree).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.dur();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur().saturating_sub(c))
        .collect()
}

/// Totals per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur();
        t.self_ns += self_ns;
        t.durations.push(s.dur() as f64);
    }
    out
}

/// Share of `wall_ns` that no top-level span covers: time the replay
/// spent outside every layer call.
pub fn unaccounted_share(spans: &[Span], wall_ns: u64) -> f64 {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == ROOT)
        .map(Span::dur)
        .sum();
    if wall_ns == 0 {
        0.0
    } else {
        wall_ns.saturating_sub(covered) as f64 / wall_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // tick [0, 100) has children shed [10, 40) and exec [40, 90);
        // exec has a grandchild [50, 60) that must not reduce tick's
        // self time a second time.
        let spans = [
            span("tick", ROOT, 0, 100),
            span("shed", 0, 10, 40),
            span("exec", 0, 40, 90),
            span("window", 2, 50, 60),
            span("emit", ROOT, 100, 130),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 40, 10, 30]);
        let t = totals(&spans);
        assert_eq!(t["tick"].self_ns, 20);
        assert_eq!(t["exec"].total_ns, 50);
        // Self times add up to the covered wall time.
        let self_sum: u64 = self_times(&spans).iter().sum();
        assert_eq!(self_sum, 130);
    }

    #[test]
    fn unaccounted_share_counts_gaps_between_top_level_spans() {
        let spans = [
            span("a", ROOT, 0, 40),
            span("a.child", 0, 5, 10),
            span("b", ROOT, 60, 100),
        ];
        // 80 of 100 ns covered at top level.
        assert!((unaccounted_share(&spans, 100) - 0.2).abs() < 1e-12);
        assert_eq!(unaccounted_share(&spans, 0), 0.0);
    }

    #[test]
    fn tracer_nests_and_caps() {
        let mut tr = Tracer::new(3);
        let a = tr.begin("a", ROOT);
        let b = tr.begin("b", a);
        tr.end(b);
        tr.end(a);
        assert!(!tr.full());
        tr.record("c", a, 0, 0);
        assert!(tr.full());
        let s = tr.spans();
        assert_eq!(s[1].parent, a);
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    }
}
