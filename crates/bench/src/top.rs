//! The `hetmem-top` data model: poll a running `hetmem-serve`, parse
//! its `stats` + `metrics` bodies into one [`TopSnapshot`], and render
//! a live terminal dashboard.
//!
//! The parsing and rendering are pure functions over the two JSON
//! bodies, so they are unit-testable without a server; the binary in
//! `bin/hetmem-top.rs` adds only the poll loop and flags. A snapshot
//! also knows how to check the server's **conservation invariant** —
//! the per-op latency histogram counts must sum to `hm_requests_total`
//! — which is what `hetmem-top --check` and CI assert.

use std::io;
use std::time::Duration;

use hetmem_harness::json::{JsonObject, JsonValue};
use hetmem_harness::{Request, Response};

use crate::client::ClientBuilder;

/// One op's row in the dashboard: volume and latency tail, pulled
/// from the `hm_request_duration_us{op=...}` histogram series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpLatency {
    /// The `op` label (`place`, `simulate`, ... or `decode`).
    pub op: String,
    /// Requests accounted to this op.
    pub count: u64,
    /// Quantile estimates in microseconds (bucket midpoints).
    pub p50_us: u64,
    /// 95th percentile, microseconds.
    pub p95_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
}

/// Everything one dashboard frame needs, parsed out of one `stats`
/// body and one `metrics` (JSON format) body.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopSnapshot {
    /// `stats.requests` — requests dispatched (legacy counter).
    pub requests: u64,
    /// `stats.ok` / `stats.errors`.
    pub ok: u64,
    /// Error responses (including sheds and deadline refusals).
    pub errors: u64,
    /// Requests shed with `overloaded`.
    pub overloaded: u64,
    /// Workers restarted by the supervisor.
    pub worker_restarts: u64,
    /// Requests refused past their deadline.
    pub deadline_exceeded: u64,
    /// Result-cache counters.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// Entries resident / capacity.
    pub cache_entries: u64,
    /// Cache capacity in entries.
    pub cache_capacity: u64,
    /// Per-shard queue depth gauges, indexed by shard.
    pub queue_depths: Vec<u64>,
    /// Per-shard queue capacity.
    pub queue_capacity: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// `hm_requests_total` — requests fully accounted (the
    /// conservation reference).
    pub requests_total: u64,
    /// Per-op latency rows, in registry order.
    pub ops: Vec<OpLatency>,
}

impl TopSnapshot {
    /// Parses the two response bodies. `Err` carries a description of
    /// the first field that failed to parse.
    ///
    /// # Errors
    ///
    /// When either body is not valid JSON or lacks a required field.
    pub fn parse(stats_body: &str, metrics_body: &str) -> Result<TopSnapshot, String> {
        let stats =
            JsonValue::parse(stats_body).map_err(|e| format!("stats body is not JSON: {e}"))?;
        let metrics =
            JsonValue::parse(metrics_body).map_err(|e| format!("metrics body is not JSON: {e}"))?;
        let field = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("stats body lacks '{key}'"))
        };
        let cache = stats
            .get("cache")
            .ok_or_else(|| "stats body lacks 'cache'".to_string())?;
        let mut snap = TopSnapshot {
            requests: field(&stats, "requests")?,
            ok: field(&stats, "ok")?,
            errors: field(&stats, "errors")?,
            overloaded: field(&stats, "overloaded")?,
            worker_restarts: field(&stats, "worker_restarts")?,
            deadline_exceeded: field(&stats, "deadline_exceeded")?,
            cache_hits: field(cache, "hits")?,
            cache_misses: field(cache, "misses")?,
            cache_entries: field(cache, "entries")?,
            cache_capacity: field(cache, "capacity")?,
            uptime_ms: field(&stats, "uptime_ms")?,
            queue_capacity: field(&stats, "queue_depth")?,
            ..TopSnapshot::default()
        };
        let families = metrics
            .get("metrics")
            .and_then(|m| m.as_array().map(<[JsonValue]>::to_vec))
            .ok_or_else(|| "metrics body lacks 'metrics' array".to_string())?;
        for family in &families {
            let name = family.get("name").and_then(JsonValue::as_str).unwrap_or("");
            let Some(series) = family
                .get("series")
                .and_then(|s| s.as_array().map(<[JsonValue]>::to_vec))
            else {
                continue;
            };
            match name {
                "hm_requests_total" => {
                    snap.requests_total = series
                        .first()
                        .and_then(|s| s.get("value"))
                        .and_then(JsonValue::as_u64)
                        .ok_or("hm_requests_total has no value")?;
                }
                "hm_request_duration_us" => {
                    for s in &series {
                        let op = s
                            .get("labels")
                            .and_then(|l| l.get("op"))
                            .and_then(JsonValue::as_str)
                            .ok_or("hm_request_duration_us series lacks an 'op' label")?
                            .to_string();
                        let q = |key: &str| {
                            s.get(key)
                                .and_then(JsonValue::as_u64)
                                .ok_or_else(|| format!("histogram series lacks '{key}'"))
                        };
                        snap.ops.push(OpLatency {
                            op,
                            count: q("count")?,
                            p50_us: q("p50")?,
                            p95_us: q("p95")?,
                            p99_us: q("p99")?,
                        });
                    }
                }
                "hm_queue_depth" => {
                    snap.queue_depths = series
                        .iter()
                        .map(|s| s.get("value").and_then(JsonValue::as_u64).unwrap_or(0))
                        .collect();
                }
                _ => {}
            }
        }
        Ok(snap)
    }

    /// Polls a server for one snapshot: `stats` + `metrics` carried in
    /// a single protocol-v2 `batch` round-trip, so both bodies come
    /// from one dispatch instead of two connections.
    ///
    /// # Errors
    ///
    /// Transport failures, structured error responses, or bodies that
    /// fail to parse.
    pub fn fetch(addr: &str, read_timeout: Duration) -> io::Result<TopSnapshot> {
        let client = ClientBuilder::new(addr)
            .retries(0)
            .read_timeout(read_timeout);
        let subs = [Request::new(1, "stats"), Request::new(2, "metrics")];
        let outcome = client.call_batch(1, &subs)?;
        if let Response::Err { code, message, .. } = &outcome.response {
            return Err(io::Error::other(format!("batch failed: {code}: {message}")));
        }
        let mut bodies = Vec::new();
        for (sub, op) in outcome.responses.iter().zip(["stats", "metrics"]) {
            match sub {
                Response::Ok { result, .. } => bodies.push(result.as_str()),
                Response::Err { code, message, .. } => {
                    return Err(io::Error::other(format!("{op} failed: {code}: {message}")));
                }
            }
        }
        let [stats, metrics] = bodies[..] else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("batch returned {} responses, wanted 2", bodies.len()),
            ));
        };
        TopSnapshot::parse(stats, metrics)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Checks the conservation invariant: the per-op duration
    /// histogram counts sum to `hm_requests_total`. Holds exactly
    /// whenever the server is quiescent (e.g. after sequential
    /// traffic), because both sides are recorded before each response
    /// is written.
    ///
    /// # Errors
    ///
    /// A description of the mismatch.
    pub fn check_conservation(&self) -> Result<(), String> {
        let sum: u64 = self.ops.iter().map(|o| o.count).sum();
        if sum == self.requests_total {
            Ok(())
        } else {
            Err(format!(
                "conservation violated: per-op histogram counts sum to {sum} \
                 but hm_requests_total is {}",
                self.requests_total
            ))
        }
    }

    /// Cache hit ratio over all lookups so far, or `None` before the
    /// first lookup.
    #[must_use]
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    /// The snapshot as one JSON object (the `--json` output): scalar
    /// counters, queue depths, and one entry per op with count and
    /// latency quantiles.
    #[must_use]
    pub fn to_json(&self) -> String {
        let ops = hetmem_harness::json::array(self.ops.iter().map(|o| {
            JsonObject::new()
                .str("op", &o.op)
                .u64("count", o.count)
                .u64("p50_us", o.p50_us)
                .u64("p95_us", o.p95_us)
                .u64("p99_us", o.p99_us)
                .finish()
        }));
        let queues = hetmem_harness::json::array(
            self.queue_depths
                .iter()
                .map(std::string::ToString::to_string),
        );
        JsonObject::new()
            .u64("requests", self.requests)
            .u64("requests_total", self.requests_total)
            .u64("ok", self.ok)
            .u64("errors", self.errors)
            .u64("overloaded", self.overloaded)
            .u64("worker_restarts", self.worker_restarts)
            .u64("deadline_exceeded", self.deadline_exceeded)
            .u64("cache_hits", self.cache_hits)
            .u64("cache_misses", self.cache_misses)
            .u64("cache_entries", self.cache_entries)
            .u64("cache_capacity", self.cache_capacity)
            .raw("queue_depths", &queues)
            .u64("queue_capacity", self.queue_capacity)
            .u64("uptime_ms", self.uptime_ms)
            .raw("ops", &ops)
            .finish()
    }
}

/// Unicode block-character sparkline of a series, scaled to its own
/// maximum (all-zero input renders all-low marks).
#[must_use]
pub fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0).max(1);
    values
        .iter()
        .map(|&v| BARS[((v * 7).div_ceil(max) as usize).min(7)])
        .collect()
}

/// Renders one dashboard frame. `rates` is the recent
/// requests-per-interval history (oldest first) the caller maintains
/// between polls; the final entry is the current interval.
#[must_use]
pub fn render(snap: &TopSnapshot, rates: &[u64], interval: Duration) -> String {
    let mut out = String::new();
    let secs = interval.as_secs_f64().max(1e-9);
    let rate = rates.last().copied().unwrap_or(0) as f64 / secs;
    out.push_str(&format!(
        "hetmem-top — uptime {:>6.1}s   {:>7.1} req/s   {}\n",
        snap.uptime_ms as f64 / 1e3,
        rate,
        sparkline(rates),
    ));
    let hit = snap
        .cache_hit_ratio()
        .map_or("  n/a".to_string(), |r| format!("{:4.0}%", r * 100.0));
    out.push_str(&format!(
        "requests {:>8}   ok {:>8}   errors {:>6}   shed {:>4}   deadline {:>4}   restarts {:>3}\n",
        snap.requests,
        snap.ok,
        snap.errors,
        snap.overloaded,
        snap.deadline_exceeded,
        snap.worker_restarts,
    ));
    out.push_str(&format!(
        "cache    {:>8}/{:<8} hit {hit}   queues [{}]/{}\n",
        snap.cache_entries,
        snap.cache_capacity,
        snap.queue_depths
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>()
            .join(" "),
        snap.queue_capacity,
    ));
    out.push_str(&format!(
        "{:<10} {:>8} {:>10} {:>10} {:>10}\n",
        "op", "count", "p50(us)", "p95(us)", "p99(us)"
    ));
    for o in &snap.ops {
        if o.count == 0 {
            continue;
        }
        out.push_str(&format!(
            "{:<10} {:>8} {:>10} {:>10} {:>10}\n",
            o.op, o.count, o.p50_us, o.p95_us, o.p99_us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS: &str = r#"{"requests":12,"ok":10,"errors":2,"overloaded":1,"worker_restarts":0,"deadline_exceeded":0,"ops":{"place":1,"simulate":8,"stats":2,"metrics":1,"shutdown":0,"other":0},"cache":{"hits":4,"misses":4,"insertions":4,"evictions":0,"corruptions":0,"entries":4,"capacity":128},"shards":2,"queue_depth":32,"uptime_ms":1500}"#;

    fn metrics_body() -> String {
        let op = |op: &str, count: u64| {
            format!(
                r#"{{"labels":{{"op":"{op}"}},"count":{count},"sum":10,"p50":5,"p90":9,"p95":9,"p99":9,"max":31,"buckets":[]}}"#
            )
        };
        format!(
            r#"{{"metrics":[
              {{"name":"hm_requests_total","type":"counter","help":"h","series":[{{"labels":{{}},"value":12}}]}},
              {{"name":"hm_request_duration_us","type":"histogram","help":"h","series":[{},{},{}]}},
              {{"name":"hm_queue_depth","type":"gauge","help":"h","series":[{{"labels":{{"shard":"0"}},"value":3}},{{"labels":{{"shard":"1"}},"value":0}}]}}
            ]}}"#,
            op("simulate", 9),
            op("stats", 2),
            op("place", 1),
        )
    }

    #[test]
    fn parses_both_bodies() {
        let snap = TopSnapshot::parse(STATS, &metrics_body()).unwrap();
        assert_eq!(snap.requests, 12);
        assert_eq!(snap.requests_total, 12);
        assert_eq!(snap.queue_depths, vec![3, 0]);
        assert_eq!(snap.ops.len(), 3);
        assert_eq!(snap.ops[0].op, "simulate");
        assert_eq!(snap.ops[0].count, 9);
        assert_eq!(snap.ops[0].p99_us, 9);
        assert_eq!(snap.cache_hit_ratio(), Some(0.5));
    }

    #[test]
    fn conservation_check_flags_mismatch() {
        let mut snap = TopSnapshot::parse(STATS, &metrics_body()).unwrap();
        assert!(snap.check_conservation().is_ok());
        snap.requests_total += 1;
        let msg = snap.check_conservation().unwrap_err();
        assert!(msg.contains("12") && msg.contains("13"));
    }

    #[test]
    fn json_frame_is_valid_and_carries_quantiles() {
        let snap = TopSnapshot::parse(STATS, &metrics_body()).unwrap();
        let frame = JsonValue::parse(&snap.to_json()).unwrap();
        assert_eq!(frame.get("requests_total").unwrap().as_u64(), Some(12));
        let ops = frame.get("ops").unwrap().as_array().unwrap().to_vec();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].get("p95_us").unwrap().as_u64(), Some(9));
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[0, 0, 0]), "▁▁▁");
        let line = sparkline(&[0, 4, 8]);
        assert!(line.starts_with('▁') && line.ends_with('█'));
    }

    #[test]
    fn render_skips_empty_ops() {
        let mut snap = TopSnapshot::parse(STATS, &metrics_body()).unwrap();
        snap.ops.push(OpLatency {
            op: "shutdown".to_string(),
            count: 0,
            p50_us: 0,
            p95_us: 0,
            p99_us: 0,
        });
        let frame = render(&snap, &[3, 9, 12], Duration::from_secs(1));
        assert!(frame.contains("simulate"));
        assert!(!frame.contains("shutdown"));
        assert!(frame.contains("req/s"));
    }
}
