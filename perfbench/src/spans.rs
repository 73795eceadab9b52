//! The benchmark's own span recorder: spans around the public calls it
//! makes into each layer, kept in memory and written out at exit.
//!
//! A span has a name, a start, an end and a parent. Its *self time* is its
//! duration minus the part of it covered by its children (children may
//! overlap, e.g. requests from concurrent client threads, so coverage is
//! the union of their intervals). When the recorder is disabled, [`span`]
//! only times the call.
//!
//! [`span`]: Recorder::span

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call the span wraps, e.g. `core.scan`.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Recorded by a probe of another workload's pipeline.
    pub probe: bool,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    /// Stamped into new spans: they come from a probe, and count for a
    /// layer only when the workload's own pipeline recorded none.
    pub probe: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder; spans are kept only while `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            probe: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (open spans are unaffected).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether new spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// ns offset of `at` from the recorder's epoch.
    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a child of the innermost open
    /// span) and returns its result with the elapsed seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let start_ns = self.offset_ns(start);
            self.push(name, start_ns, start_ns)
        });
        if let Some(i) = index {
            self.open.push(i);
        }
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = index {
            self.open.pop();
            self.spans[i].end_ns = self.offset_ns(end);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Records an interval timed elsewhere (e.g. on a client thread) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let (s, e) = (self.offset_ns(start), self.offset_ns(end));
            self.push(name, s, e);
        }
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns, parent, probe: self.probe });
        self.spans.len() - 1
    }

    /// Indices of the spans named `name`: those of the workload's own
    /// pipeline, or the probes' when it recorded none.
    fn named(&self, name: &str) -> Vec<usize> {
        let of = |probe: bool| -> Vec<usize> {
            (0..self.spans.len())
                .filter(|&i| self.spans[i].name == name && self.spans[i].probe == probe)
                .collect()
        };
        let own = of(false);
        if own.is_empty() {
            of(true)
        } else {
            own
        }
    }

    /// Durations (seconds) of the spans named `name` (see [`Self::named`]).
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).into_iter().map(|i| self.spans[i].duration_ns() as f64 * 1e-9).collect()
    }

    /// Self times (seconds) of the spans named `name` (see [`Self::named`]).
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.named(name)
            .into_iter()
            .map(|i| (self.spans[i].duration_ns() - covered_ns(&mut children[i])) as f64 * 1e-9)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"probe\":{}}}",
                s.name, s.start_ns, s.end_ns, s.probe
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut rec = Recorder::new(true);
        rec.spans = vec![
            Span { name: "rep", start_ns: 0, end_ns: 100, parent: None, probe: false },
            Span { name: "req", start_ns: 10, end_ns: 40, parent: Some(0), probe: false },
            Span { name: "req", start_ns: 30, end_ns: 50, parent: Some(0), probe: false },
            Span { name: "req", start_ns: 70, end_ns: 80, parent: Some(0), probe: true },
        ];
        let rep = rec.self_times("rep");
        assert_eq!(rep.len(), 1);
        assert!((rep[0] - 50e-9).abs() < 1e-15);
        // The probe's span yields to the pipeline's own.
        assert_eq!(rec.durations("req").len(), 2);
    }

    #[test]
    fn nested_spans_get_parents_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.span("outer", |r| {
            r.span("inner", |_| ());
        });
        assert_eq!(rec.spans[1].parent, Some(0));
        let mut off = Recorder::new(false);
        let (v, secs) = off.span("outer", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(off.spans.is_empty());
    }
}
