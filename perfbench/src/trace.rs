//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Spans stay in memory while the benchmark runs and are written out at
//! the end as a Chrome trace-event file, which Perfetto loads. The
//! engine's phase totals (`RunReport`) have no start times of their own:
//! they are recorded as *aggregate* child spans of `engine.run`, laid end
//! to end from the run's start, so their durations are exact and their
//! positions are not.

use jstar_core::engine::RunReport;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    /// The iteration the span belongs to.
    pub run: u32,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    pub aggregate: bool,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, run: u32, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            run,
            parent,
            start: now,
            end: now,
            aggregate: false,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end = self.epoch.elapsed();
        self.spans[id].secs()
    }

    /// Times `f` as a span and returns its result with the duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        run: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, run, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Records the report's phase totals as aggregate children of the
    /// `engine.run` span `run_span`. `engine.unattributed` is what the
    /// phase timers do not cover: extract, maintain and loop overhead.
    pub fn phases(&mut self, run_span: usize, report: &RunReport) {
        let (run, mut at) = (self.spans[run_span].run, self.spans[run_span].start);
        let unattributed = report
            .elapsed
            .saturating_sub(report.drain_time + report.execute_time + report.checkpoint_time);
        for (name, d) in [
            ("engine.absorb", report.drain_time),
            ("engine.execute", report.execute_time),
            ("persist.checkpoint", report.checkpoint_time),
            ("engine.unattributed", unattributed),
        ] {
            self.spans.push(Span {
                name,
                run,
                parent: Some(run_span),
                start: at,
                end: at + d,
                aggregate: true,
            });
            at += d;
        }
    }

    /// Sum of the leaf spans under `root`: a span with children counts
    /// as the sum of its children, so `engine.run` counts as its phases.
    pub fn leaf_sum(&self, root: usize) -> f64 {
        let children: Vec<usize> = (root + 1..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(root))
            .collect();
        if children.is_empty() {
            self.spans[root].secs()
        } else {
            children.into_iter().map(|c| self.leaf_sum(c)).sum()
        }
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span, the
    /// iteration as the thread id, parent and aggregate flag in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"run\": {}, \
                 \"aggregate\": {}}}}}{}",
                s.name,
                s.run,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.run,
                s.aggregate,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}
