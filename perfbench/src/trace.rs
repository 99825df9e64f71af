//! In-memory spans for the traced run.
//!
//! Every call into a layer runs inside one span: a name, the operation
//! (request or compile) it belongs to, the span that caused it, and its
//! start and end. A layer's self time is its span's duration minus the
//! time its child spans cover. Spans are single-threaded and properly
//! nested, so a span's children never overlap and the covered time is
//! the sum of their durations.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qjo_obs::Counter;

use crate::stats::median;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
    /// Kernel work done inside the span (a counter delta), if counted.
    work: u64,
}

/// Collects spans for one traced pass.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-layer totals over a traced pass.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// Spans recorded.
    pub calls: u64,
    /// Self time of each span, in seconds.
    pub self_s: Vec<f64>,
    /// Sum of the counted kernel work.
    pub work: u64,
}

impl Layer {
    /// Total self time in seconds.
    pub fn total_s(&self) -> f64 {
        self.self_s.iter().sum()
    }

    /// Mean self time per call in seconds (0 when never called).
    pub fn mean_s(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_s() / self.calls as f64
        }
    }

    /// Median self time per call in seconds (0 when never called).
    pub fn median_s(&self) -> f64 {
        if self.self_s.is_empty() {
            0.0
        } else {
            median(&self.self_s)
        }
    }

    /// Longest self time of one call in seconds (0 when never called).
    pub fn max_s(&self) -> f64 {
        self.self_s.iter().copied().fold(0.0, f64::max)
    }

    /// Counted work per second of self time (0 when nothing ran).
    pub fn work_per_s(&self) -> f64 {
        let total = self.total_s();
        if total > 0.0 {
            self.work as f64 / total
        } else {
            0.0
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's index.
    pub fn span_at<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, usize) {
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
            work: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = Instant::now();
        (out, idx)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_at(name, f).0
    }

    /// Like [`span`](Self::span), recording how far `counter` moved
    /// inside the span as the span's work.
    pub fn counted<T>(
        &mut self,
        name: &'static str,
        counter: &Counter,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let before = counter.get();
        let (out, idx) = self.span_at(name, f);
        self.spans[idx].work = counter.get() - before;
        out
    }

    /// Records a child of span `parent` that the program timed itself
    /// (work done inside a library call, which has no entry point the
    /// benchmark can wrap). Placed at the parent's start; only its
    /// duration enters self times.
    pub fn attach(&mut self, parent: usize, name: &'static str, duration: Duration) {
        let start = self.spans[parent].start;
        let end = (start + duration).min(self.spans[parent].end);
        self.spans.push(Span { name, parent: Some(parent), start, end, work: 0 });
    }

    /// Duration of span `idx` in seconds.
    pub fn duration_s(&self, idx: usize) -> f64 {
        (self.spans[idx].end - self.spans[idx].start).as_secs_f64()
    }

    /// Self time of every span, in seconds.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = (0..self.spans.len()).map(|i| self.duration_s(i)).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                own[p] -= self.duration_s(i);
            }
        }
        own
    }

    /// Per-layer totals, keyed by span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (span, self_s) in self.spans.iter().zip(own) {
            let layer = out.entry(span.name).or_default();
            layer.calls += 1;
            layer.self_s.push(self_s.max(0.0));
            layer.work += span.work;
        }
        out
    }

    /// Total time of root spans (one per operation), and the part of it
    /// their children cover, in seconds.
    pub fn coverage(&self) -> (f64, f64) {
        let mut total = 0.0;
        let mut covered = 0.0;
        for (i, span) in self.spans.iter().enumerate() {
            match span.parent {
                None => total += self.duration_s(i),
                Some(p) if self.spans[p].parent.is_none() => covered += self.duration_s(i),
                Some(_) => {}
            }
        }
        (total, covered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::default();
        tr.span("root", |tr| {
            spin(Duration::from_millis(2));
            tr.span("child", |_| spin(Duration::from_millis(4)));
        });
        let layers = tr.layers();
        let root = &layers["root"];
        let child = &layers["child"];
        assert_eq!((root.calls, child.calls), (1, 1));
        assert!(root.total_s() >= 0.002 && root.total_s() < 0.004, "{}", root.total_s());
        assert!(child.total_s() >= 0.004);
        let (total, covered) = tr.coverage();
        assert!((total - root.total_s() - covered).abs() < 1e-9);
        assert!((covered - child.total_s()).abs() < 1e-9);
    }

    #[test]
    fn attached_children_are_clamped_to_their_parent() {
        let mut tr = Tracer::default();
        let ((), idx) = tr.span_at("lookup", |_| spin(Duration::from_millis(1)));
        tr.attach(idx, "encode", Duration::from_secs(10));
        let layers = tr.layers();
        assert_eq!(layers["lookup"].total_s(), 0.0);
        assert!(layers["encode"].total_s() <= tr.duration_s(idx));
    }

    #[test]
    fn counted_spans_record_the_counter_delta() {
        let counter = qjo_obs::counter("perfbench.test.work");
        let mut tr = Tracer::default();
        tr.counted("kernel", &counter, |_| counter.add(7));
        let layer = &tr.layers()["kernel"];
        assert_eq!(layer.work, 7);
        assert!(layer.work_per_s() > 0.0);
    }
}
