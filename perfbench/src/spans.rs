//! In-memory spans around calls into each layer, rendered at the end as
//! a Chrome trace.

use std::collections::BTreeMap;
use std::time::Instant;

use hetmem_harness::json::quote;
use hetmem_harness::{ChromeTrace, TraceEvent};

use crate::report::Samples;

/// Collects spans for the traced run. Each span is a complete event on
/// the track of the workload that caused it, named after the layer it
/// timed; its `parent` arg names the enclosing span.
pub struct Tracer {
    t0: Instant,
    trace: ChromeTrace,
    open: Vec<&'static str>,
    durations: BTreeMap<&'static str, Samples>,
    track: u64,
}

impl Tracer {
    pub fn new() -> Self {
        let mut trace = ChromeTrace::new();
        trace.name_process(1, "perfbench");
        Tracer {
            t0: Instant::now(),
            trace,
            open: Vec::new(),
            durations: BTreeMap::new(),
            track: 0,
        }
    }

    /// Moves later spans onto the track of workload `track`.
    pub fn set_track(&mut self, track: u64) {
        self.track = track;
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the span's duration in nanoseconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let parent = self.open.last().copied();
        self.open.push(name);
        let start = Instant::now();
        let out = f(self);
        let ns = start.elapsed().as_nanos() as f64;
        self.open.pop();
        self.record(name, parent, start, ns);
        (out, ns)
    }

    /// Records a span measured by the caller (e.g. one request's
    /// client-side encode) under the current parent.
    pub fn record_at(&mut self, name: &'static str, start: Instant, ns: f64) {
        let parent = self.open.last().copied();
        self.record(name, parent, start, ns);
    }

    fn record(&mut self, name: &'static str, parent: Option<&str>, start: Instant, ns: f64) {
        let ts = start.duration_since(self.t0).as_nanos() as f64 / 1e3;
        let mut ev = TraceEvent::complete(name, "layer", ts, ns / 1e3, 1, self.track);
        if let Some(p) = parent {
            ev.args.push(("parent".to_string(), quote(p)));
        }
        self.trace.push(ev);
        self.durations.entry(name).or_default().push(ns);
    }

    /// Every duration recorded under `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Samples {
        self.durations.get(name).cloned().unwrap_or_default()
    }

    pub fn len(&self) -> usize {
        self.trace.len()
    }

    pub fn render(&self) -> String {
        self.trace.render()
    }
}
