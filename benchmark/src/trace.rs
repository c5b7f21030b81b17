//! Spans recorded by the harness around each public call a workload
//! makes into the program. Kept in memory; written out after the pass.
//!
//! Spans are taken from outside the program, so a span's self time is
//! everything that call did on every thread until it returned — the
//! per-layer split inside a call comes from the replays in
//! [`crate::layers`], not from here.

use std::io::{self, Write};
use std::time::Instant;

/// Parent value of a span that has none (a call's root span).
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.function`, e.g. `stub.submit`; `call` for a root.
    pub name: &'static str,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The workload call this span belongs to; spans of one call share it.
    pub req: u64,
}

/// Records spans when on; when off, only times whole calls.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    root: u32,
    req: u64,
}

impl Tracer {
    /// A tracer that records nothing (the untraced passes).
    pub fn off() -> Self {
        Self::new(false, 0)
    }

    /// A tracer that records every span, with room for `capacity` of
    /// them reserved up front so recording does not reallocate.
    pub fn on(capacity: usize) -> Self {
        Self::new(true, capacity)
    }

    fn new(on: bool, capacity: usize) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            root: NO_PARENT,
            req: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Times one workload call: runs `f`, returns its result and its
    /// wall-clock latency in ns. When on, the interval becomes the root
    /// span of every [`Tracer::span`] taken inside `f`.
    pub fn call<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
        let t0 = Instant::now();
        if self.on {
            self.req += 1;
            self.root = self.spans.len() as u32;
            self.spans.push(Span {
                name: "call",
                start_ns: self.ns(t0),
                end_ns: 0,
                parent: NO_PARENT,
                req: self.req,
            });
        }
        let out = f(self);
        let t1 = Instant::now();
        if self.on {
            let end = self.ns(t1);
            self.spans[self.root as usize].end_ns = end;
            self.root = NO_PARENT;
        }
        (out, t1.duration_since(t0).as_nanos() as u64)
    }

    /// Runs `f` as a child span `name` of the current call.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
            parent: self.root,
            req: self.req,
        });
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median duration in ns of the spans called `name`; 0 if none.
    pub fn p50_ns(&self, name: &str) -> f64 {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        percentile(&mut d, 50.0)
    }

    /// Writes the spans as one JSON array, one span per line.
    ///
    /// # Errors
    ///
    /// Returns the first write error.
    pub fn write_json(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        writeln!(out, "]")
    }
}

/// The `p`-th percentile (nearest rank) of `samples`, which it reorders;
/// 0 when empty. Exact, so two runs never share a bucket midpoint.
pub fn percentile(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    let k = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(k).1 as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_call() {
        let mut t = Tracer::on(8);
        let ((), lat) = t.call(|t| {
            t.span("a.x", || ());
            t.span("b.y", || ());
        });
        t.call(|t| t.span("a.x", || ()));
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!((s[0].name, s[0].parent, s[0].req), ("call", NO_PARENT, 1));
        assert_eq!((s[1].parent, s[2].parent, s[4].parent), (0, 0, 3));
        assert_eq!(s[4].req, 2);
        assert!(s[0].end_ns >= s[2].end_ns && lat >= s[0].end_ns - s[0].start_ns);
        let mut buf = Vec::new();
        t.write_json(&mut buf).unwrap();
        let parsed = crate::json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(parsed.as_arr().unwrap().len(), 5);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut t = Tracer::off();
        let (v, _lat) = t.call(|t| t.span("a.x", || 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }
}
