//! A lock-cheap, std-only metrics registry: counters, gauges, and
//! log-bucketed latency histograms.
//!
//! The serve stack (`hetmem-bench::serve`) embeds a [`MetricsRegistry`]
//! to time every request phase and exposes it through the `metrics`
//! protocol op in two formats: a JSON document for `hetmem-top` and
//! scripts, and Prometheus text exposition for standard scrapers.
//!
//! Design constraints, in order:
//!
//! - **Hot-path cheapness.** Recording a value is a handful of relaxed
//!   atomic ops on an `Arc`'d metric handle — no locks, no allocation,
//!   no formatting. The registry's `Mutex` is touched only at
//!   registration and render time.
//! - **Exact counts.** Histogram bucket counts and totals are exact
//!   (`AtomicU64`); only the *position* of a value inside its bucket is
//!   approximate.
//! - **Bounded quantile error.** [`HistogramSnapshot::quantile`]
//!   returns a value guaranteed to lie within the bounds of the bucket
//!   containing the requested rank. Buckets are log-spaced with 16
//!   linear sub-buckets per octave, so the relative error is ≤ 1/16
//!   (values 0–31 are exact).
//!
//! Histograms are unit-agnostic `u64`s; the serve stack records
//! microseconds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{array, JsonObject};

/// Linear sub-buckets per octave (power of two). 16 sub-buckets keep
/// the worst-case relative quantile error at 1/16 ≈ 6.25%.
const SUB_BUCKETS: u64 = 16;

/// Values below this are stored exactly, one bucket per value.
const EXACT_LIMIT: u64 = 2 * SUB_BUCKETS; // 32

/// Total bucket count for the full `u64` range.
/// 32 exact + (64 - 5) octaves × 16 sub-buckets.
pub const NUM_BUCKETS: usize = (EXACT_LIMIT + (64 - 5) * SUB_BUCKETS) as usize;

/// Maps a value to its bucket index. Total over `u64`, monotone in `v`.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < EXACT_LIMIT {
        return v as usize;
    }
    let h = 63 - u64::from(v.leading_zeros()); // highest set bit, >= 5
    let sub = (v >> (h - 4)) & (SUB_BUCKETS - 1);
    (EXACT_LIMIT + (h - 5) * SUB_BUCKETS + sub) as usize
}

/// The inclusive `[lo, hi]` value range covered by bucket `i`.
///
/// # Panics
///
/// Panics when `i >= NUM_BUCKETS`.
#[must_use]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < NUM_BUCKETS, "bucket index {i} out of range");
    let i = i as u64;
    if i < EXACT_LIMIT {
        return (i, i);
    }
    let h = 5 + (i - EXACT_LIMIT) / SUB_BUCKETS;
    let sub = (i - EXACT_LIMIT) % SUB_BUCKETS;
    let width = 1u64 << (h - 4);
    let lo = (SUB_BUCKETS + sub) << (h - 4);
    (lo, lo + (width - 1))
}

/// A monotonically increasing counter.
///
/// [`Counter::store`] exists for mirroring an *external* monotonic
/// source (e.g. cache statistics kept elsewhere) into the registry at
/// scrape time; metrics owned by the registry should only `inc`/`add`.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value (for scrape-time mirroring of an external
    /// monotonic source only).
    pub fn store(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A log-bucketed histogram of `u64` values (lock-free recording).
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram covering the full `u64` range.
    #[must_use]
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.into_boxed_slice(),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // Saturating: a sum overflow must not wrap counts backwards.
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// A consistent-enough point-in-time copy (bucket loads are not
    /// mutually atomic; counts already recorded are never lost).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// An immutable copy of a [`Histogram`], supporting bounded-error
/// quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    sum: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            sum: 0,
        }
    }

    /// Total number of recorded values (exact).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of recorded values (saturating at `u64::MAX`).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded values, `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum as f64 / n as f64
    }

    /// The quantile estimate for `q ∈ [0, 1]`: the midpoint of the
    /// bucket containing the rank-`⌈q·n⌉` value, clamped to that
    /// bucket's `[lo, hi]` bounds (so the true value of that rank is
    /// within one bucket width). Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * n as f64).ceil() as u64).max(1).min(n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                return lo + (hi - lo) / 2;
            }
        }
        unreachable!("rank {rank} <= count {n} must land in a bucket")
    }

    /// Largest non-empty bucket's upper bound, 0 when empty.
    #[must_use]
    pub fn max_bound(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| bucket_bounds(i).1)
    }

    /// Non-empty `(bucket_upper_bound, cumulative_count)` pairs, in
    /// ascending bound order — the Prometheus `le` series minus `+Inf`.
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((bucket_bounds(i).1, cum));
            }
        }
        out
    }
}

/// The kind of metric behind a registry entry.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// One registered metric family: a name, help text, and one entry per
/// label set.
#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    entries: Vec<(Vec<(String, String)>, Metric)>,
}

/// A registry of named metric families. Registration and rendering
/// lock; recording through the returned `Arc` handles never does.
///
/// Families and entries render in registration order, so output is
/// deterministic for a fixed registration sequence.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut families = self.families.lock().unwrap();
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => f,
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    entries: Vec::new(),
                });
                families.last_mut().unwrap()
            }
        };
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        if let Some((_, metric)) = family.entries.iter().find(|(l, _)| *l == labels) {
            return metric.clone();
        }
        let metric = make();
        family.entries.push((labels, metric.clone()));
        metric
    }

    /// Registers (or retrieves) a counter.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered with a different type.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, labels, || {
            Metric::Counter(Arc::new(Counter::new()))
        }) {
            Metric::Counter(c) => c,
            other => panic!("{name} already registered as {}", other.type_name()),
        }
    }

    /// Registers (or retrieves) a gauge.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered with a different type.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, labels, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("{name} already registered as {}", other.type_name()),
        }
    }

    /// Registers (or retrieves) a histogram.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered with a different type.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.register(name, help, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("{name} already registered as {}", other.type_name()),
        }
    }

    /// Renders every family as one JSON object:
    /// `{"metrics":[{name,type,help,series:[{labels,...}]}]}`.
    /// Histogram series carry exact `count`/`sum` plus precomputed
    /// `p50`/`p90`/`p95`/`p99`/`max` and the non-empty cumulative
    /// buckets.
    #[must_use]
    pub fn render_json(&self) -> String {
        let families = self.families.lock().unwrap();
        let rendered = families.iter().map(|f| {
            let series = f.entries.iter().map(|(labels, metric)| {
                let mut lab = JsonObject::new();
                for (k, v) in labels {
                    lab = lab.str(k, v);
                }
                let obj = JsonObject::new().raw("labels", &lab.finish());
                match metric {
                    Metric::Counter(c) => obj.u64("value", c.get()).finish(),
                    Metric::Gauge(g) => obj.u64("value", g.get()).finish(),
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        let buckets =
                            array(snap.cumulative_buckets().into_iter().map(|(le, cum)| {
                                JsonObject::new().u64("le", le).u64("cum", cum).finish()
                            }));
                        obj.u64("count", snap.count())
                            .u64("sum", snap.sum())
                            .u64("p50", snap.quantile(0.50))
                            .u64("p90", snap.quantile(0.90))
                            .u64("p95", snap.quantile(0.95))
                            .u64("p99", snap.quantile(0.99))
                            .u64("max", snap.max_bound())
                            .raw("buckets", &buckets)
                            .finish()
                    }
                }
            });
            JsonObject::new()
                .str("name", &f.name)
                .str(
                    "type",
                    f.entries.first().map_or("counter", |(_, m)| m.type_name()),
                )
                .str("help", &f.help)
                .raw("series", &array(series))
                .finish()
        });
        JsonObject::new().raw("metrics", &array(rendered)).finish()
    }

    /// Renders every family in Prometheus text exposition format:
    /// `# HELP`/`# TYPE` once per family, histograms as cumulative
    /// `_bucket{le=...}` series (non-empty buckets plus `+Inf`),
    /// `_sum`, and `_count`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().unwrap();
        let mut out = String::new();
        for f in families.iter() {
            let Some((_, first)) = f.entries.first() else {
                continue;
            };
            out.push_str(&format!("# HELP {} {}\n", f.name, f.help));
            out.push_str(&format!("# TYPE {} {}\n", f.name, first.type_name()));
            for (labels, metric) in &f.entries {
                match metric {
                    Metric::Counter(c) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            f.name,
                            prom_labels(labels, None),
                            c.get()
                        ));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            f.name,
                            prom_labels(labels, None),
                            g.get()
                        ));
                    }
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        for (le, cum) in snap.cumulative_buckets() {
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                f.name,
                                prom_labels(labels, Some(&le.to_string())),
                                cum
                            ));
                        }
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            f.name,
                            prom_labels(labels, Some("+Inf")),
                            snap.count()
                        ));
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            f.name,
                            prom_labels(labels, None),
                            snap.sum()
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            f.name,
                            prom_labels(labels, None),
                            snap.count()
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Serializes a label set (plus an optional `le`) as `{k="v",...}`;
/// empty when there are no labels.
fn prom_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&prom_escape(v));
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
    out
}

fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Validates Prometheus text exposition format. Returns the number of
/// samples on success.
///
/// This is the strict subset the registry emits plus standard comments:
/// `# HELP name text`, `# TYPE name <counter|gauge|histogram|summary|untyped>`,
/// other `#` comments, blank lines, and samples
/// `name[{label="value",...}] value [timestamp]`.
///
/// # Errors
///
/// Returns `"line N: message"` for the first malformed line.
pub fn parse_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: bad metric name in TYPE: {name:?}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {lineno}: bad metric type {kind:?}"));
                }
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split_whitespace().next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: bad metric name in HELP: {name:?}"));
                }
            }
            continue;
        }
        parse_sample(line).map_err(|e| format!("line {lineno}: {e}"))?;
        samples += 1;
    }
    Ok(samples)
}

fn parse_sample(line: &str) -> Result<(), String> {
    let (name_part, rest) = match line.find('{') {
        Some(open) => {
            let close = line[open..]
                .find('}')
                .ok_or_else(|| "unterminated label set".to_string())?
                + open;
            parse_labels(&line[open + 1..close])?;
            (&line[..open], line[close + 1..].trim_start())
        }
        None => {
            let sp = line
                .find(' ')
                .ok_or_else(|| "sample missing value".to_string())?;
            (&line[..sp], line[sp + 1..].trim_start())
        }
    };
    if !valid_metric_name(name_part) {
        return Err(format!("bad metric name {name_part:?}"));
    }
    let mut parts = rest.split_whitespace();
    let value = parts
        .next()
        .ok_or_else(|| "sample missing value".to_string())?;
    let value_ok =
        value.parse::<f64>().is_ok() || matches!(value, "+Inf" | "-Inf" | "NaN" | "Nan" | "nan");
    if !value_ok {
        return Err(format!("bad sample value {value:?}"));
    }
    if let Some(ts) = parts.next() {
        ts.parse::<i64>()
            .map_err(|_| format!("bad timestamp {ts:?}"))?;
    }
    if parts.next().is_some() {
        return Err("trailing tokens after sample".to_string());
    }
    Ok(())
}

fn parse_labels(body: &str) -> Result<(), String> {
    let body = body.trim();
    if body.is_empty() {
        return Ok(());
    }
    // Split on commas outside quotes (escaped quotes stay inside).
    let mut rest = body;
    loop {
        let eq = rest
            .find('=')
            .ok_or_else(|| "label missing '='".to_string())?;
        let name = rest[..eq].trim();
        if !valid_label_name(name) {
            return Err(format!("bad label name {name:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("label {name:?} value not quoted"));
        }
        let mut end = None;
        let bytes = after.as_bytes();
        let mut j = 1;
        while j < bytes.len() {
            match bytes[j] {
                b'\\' => j += 2,
                b'"' => {
                    end = Some(j);
                    break;
                }
                _ => j += 1,
            }
        }
        let end = end.ok_or_else(|| format!("label {name:?} value unterminated"))?;
        rest = after[end + 1..].trim_start();
        if rest.is_empty() {
            return Ok(());
        }
        rest = rest
            .strip_prefix(',')
            .ok_or_else(|| "expected ',' between labels".to_string())?
            .trim_start();
        if rest.is_empty() {
            return Ok(()); // trailing comma is tolerated
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_total_and_monotone() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        let mut prev = 0;
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1000,
            1 << 20,
            1 << 40,
            u64::MAX,
        ] {
            let b = bucket_index(v);
            assert!(b >= prev, "bucket_index not monotone at {v}");
            prev = b;
        }
    }

    #[test]
    fn bucket_bounds_invert_bucket_index() {
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi of bucket {i}");
            if i + 1 < NUM_BUCKETS {
                assert_eq!(bucket_bounds(i + 1).0, hi.wrapping_add(1), "gap after {i}");
            } else {
                assert_eq!(hi, u64::MAX);
            }
        }
    }

    #[test]
    fn bounded_relative_error() {
        for v in [32u64, 100, 999, 12_345, 1 << 30] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi);
            // Bucket width is <= 1/16 of the bucket's magnitude for v >= 32.
            assert!((hi - lo + 1) * SUB_BUCKETS <= hi + 1, "width at {v}");
        }
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = Histogram::new();
        for v in [5u64, 5, 10, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum(), 1120);
        assert_eq!(s.quantile(0.0), 5); // exact bucket
        assert_eq!(s.quantile(0.4), 5);
        let p99 = s.quantile(0.99);
        let (lo, hi) = bucket_bounds(bucket_index(1000));
        assert!(p99 >= lo && p99 <= hi, "p99={p99} not in [{lo},{hi}]");
        assert_eq!(s.max_bound(), hi);
    }

    #[test]
    fn empty_snapshot_is_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.max_bound(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s, HistogramSnapshot::empty());
    }

    #[test]
    fn registry_renders_json_and_prometheus() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("hm_requests_total", "Completed requests.", &[]);
        let g = reg.gauge("hm_queue_depth", "Queue depth.", &[("shard", "0")]);
        let h = reg.histogram("hm_request_us", "Latency.", &[("op", "simulate")]);
        c.add(3);
        g.set(7);
        h.record(100);
        h.record(2000);

        let json = reg.render_json();
        let v = crate::json::JsonValue::parse(&json).expect("registry JSON parses");
        let metrics = v.get("metrics").unwrap().as_array().unwrap();
        assert_eq!(metrics.len(), 3);
        assert_eq!(
            metrics[0].get("name").unwrap().as_str(),
            Some("hm_requests_total")
        );
        let series = metrics[2].get("series").unwrap().as_array().unwrap();
        assert_eq!(series[0].get("count").unwrap().as_u64(), Some(2));
        assert!(series[0].get("p50").unwrap().as_u64().is_some());

        let prom = reg.render_prometheus();
        assert!(prom.contains("# TYPE hm_requests_total counter"));
        assert!(prom.contains("hm_requests_total 3"));
        assert!(prom.contains("hm_queue_depth{shard=\"0\"} 7"));
        assert!(prom.contains("hm_request_us_bucket{op=\"simulate\",le=\"+Inf\"} 2"));
        assert!(prom.contains("hm_request_us_count{op=\"simulate\"} 2"));
        let samples = parse_prometheus(&prom).expect("own output validates");
        assert!(samples >= 6, "got {samples} samples");
    }

    #[test]
    fn registration_is_idempotent_per_label_set() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hm_x_total", "x", &[("op", "a")]);
        let b = reg.counter("hm_x_total", "x", &[("op", "a")]);
        let c = reg.counter("hm_x_total", "x", &[("op", "b")]);
        a.inc();
        b.inc();
        c.inc();
        assert_eq!(a.get(), 2, "same label set shares storage");
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn parse_prometheus_rejects_garbage() {
        assert!(parse_prometheus("ok_metric 1\n").is_ok());
        assert!(parse_prometheus("1bad_name 1\n").is_err());
        assert!(parse_prometheus("m{le=\"10\"} notanumber\n").is_err());
        assert!(parse_prometheus("m{unterminated=\"\n").is_err());
        assert!(parse_prometheus("# TYPE m sideways\n").is_err());
        assert!(
            parse_prometheus("m{l=\"v\"} 1 123\n").is_ok(),
            "timestamps allowed"
        );
        assert!(
            parse_prometheus("m{l=\"a\\\"b\"} 2\n").is_ok(),
            "escaped quote in label"
        );
    }

    #[test]
    fn counter_store_mirrors_external_source() {
        let c = Counter::new();
        c.store(41);
        c.inc();
        assert_eq!(c.get(), 42);
    }
}
