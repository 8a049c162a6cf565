//! Deterministic fault injection for chaos testing the serve + sweep
//! stack.
//!
//! A [`FaultPlan`] declares *what* can go wrong and how often; a
//! [`FaultInjector`] turns the plan into concrete injection decisions
//! drawn from the in-tree seeded PRNG, so the decision *stream* of a
//! chaos run is reproducible from the plan's seed. (Which decision
//! lands on which request still depends on thread interleaving — the
//! guarantee is a reproducible fault mix, not a reproducible schedule.)
//!
//! Seven fault classes, matching the failure modes the service must
//! absorb:
//!
//! * **worker panics** — a shard worker dies mid-job; supervision must
//!   restart it and the client must get `worker-restarted`, not a hang.
//! * **artificial latency** — a job stalls before executing; deadline
//!   propagation must turn overruns into `deadline-exceeded`.
//! * **wire errors** — a response is cut short on the socket; clients
//!   must detect the torn line and retry.
//! * **cache corruption** — a cached result's bytes rot; the integrity
//!   check in [`ResultCache`](crate::cache::ResultCache) must detect
//!   the mismatch and recompute instead of serving garbage.
//!
//! Plus three **connection-level** classes for the poll front end (and
//! the fleet router's backend links):
//!
//! * **connection drops** — the socket dies mid-write; the peer sees a
//!   reset/EOF and must retry, never hang.
//! * **partial-write stalls** — a response's prefix lands and then the
//!   writer goes silent; the peer's read timeout must fire.
//! * **accept refusals** — a new connection is accepted and instantly
//!   closed, modeling a backend at its fd limit.
//!
//! Every injection is counted ([`FaultCounts`]) so tests and the `stats`
//! endpoint can report exactly how much chaos a run absorbed.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::rng::Xoshiro256StarStar;

/// Declarative chaos configuration: per-class injection probabilities
/// plus the seed the decision stream derives from. The default plan
/// injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injection decision stream.
    pub seed: u64,
    /// Probability a worker panics when picking up a job, in `[0, 1]`.
    pub panic_prob: f64,
    /// Probability a job stalls before executing, in `[0, 1]`.
    pub latency_prob: f64,
    /// Stall duration upper bound, milliseconds (the actual stall is a
    /// deterministic draw in `[1, latency_ms]`).
    pub latency_ms: u64,
    /// Probability a response write is torn mid-line, in `[0, 1]`.
    pub wire_prob: f64,
    /// Probability a cached entry is corrupted before lookup, in
    /// `[0, 1]`.
    pub corrupt_prob: f64,
    /// Probability a connection is dropped outright mid-write, in
    /// `[0, 1]`.
    pub conn_drop_prob: f64,
    /// Probability a response write lands partially and then stalls
    /// (no close, no more bytes), in `[0, 1]`.
    pub stall_prob: f64,
    /// Probability a freshly accepted connection is refused (closed
    /// before reading anything), in `[0, 1]`.
    pub refuse_prob: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            panic_prob: 0.0,
            latency_prob: 0.0,
            latency_ms: 0,
            wire_prob: 0.0,
            corrupt_prob: 0.0,
            conn_drop_prob: 0.0,
            stall_prob: 0.0,
            refuse_prob: 0.0,
        }
    }
}

impl FaultPlan {
    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.panic_prob > 0.0
            || (self.latency_prob > 0.0 && self.latency_ms > 0)
            || self.wire_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.conn_drop_prob > 0.0
            || self.stall_prob > 0.0
            || self.refuse_prob > 0.0
    }

    /// Parses a compact CLI spec: comma-separated `key=value` pairs with
    /// keys `seed`, `panic`, `latency` (probability), `latency-ms`,
    /// `wire`, `corrupt`, `conn-drop`, `stall`, `refuse`. Example:
    /// `seed=7,panic=0.1,latency=0.5,latency-ms=40,wire=0.2,corrupt=0.3`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending pair.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault spec pair '{pair}' is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("fault spec '{key}={v}' is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault probability '{key}={v}' must be in [0, 1]"));
                }
                Ok(p)
            };
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("fault spec 'seed={value}' is not an integer"))?;
                }
                "panic" => plan.panic_prob = prob(value)?,
                "latency" => plan.latency_prob = prob(value)?,
                "latency-ms" => {
                    plan.latency_ms = value.parse().map_err(|_| {
                        format!("fault spec 'latency-ms={value}' is not an integer")
                    })?;
                }
                "wire" => plan.wire_prob = prob(value)?,
                "corrupt" => plan.corrupt_prob = prob(value)?,
                "conn-drop" => plan.conn_drop_prob = prob(value)?,
                "stall" => plan.stall_prob = prob(value)?,
                "refuse" => plan.refuse_prob = prob(value)?,
                other => return Err(format!("unknown fault spec key '{other}'")),
            }
        }
        if plan.latency_prob > 0.0 && plan.latency_ms == 0 {
            plan.latency_ms = 20;
        }
        Ok(plan)
    }
}

/// The canonical spec [`FaultPlan::parse`] reads back into the same
/// plan: the non-zero settings in [`FaultPlan::parse`]'s key order,
/// each probability in the shortest decimal that parses to it. The
/// default plan renders as the empty spec. A latency probability with
/// a zero bound stalls nothing, and renders as no latency at all
/// (`parse` would give it the 20 ms default bound).
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prob = |key: &str, p: f64| (p > 0.0).then(|| format!("{key}={p}"));
        let latency = if self.latency_ms > 0 {
            self.latency_prob
        } else {
            0.0
        };
        let pairs: Vec<String> = [
            (self.seed != 0).then(|| format!("seed={}", self.seed)),
            prob("panic", self.panic_prob),
            prob("latency", latency),
            (self.latency_ms > 0).then(|| format!("latency-ms={}", self.latency_ms)),
            prob("wire", self.wire_prob),
            prob("corrupt", self.corrupt_prob),
            prob("conn-drop", self.conn_drop_prob),
            prob("stall", self.stall_prob),
            prob("refuse", self.refuse_prob),
        ]
        .into_iter()
        .flatten()
        .collect();
        f.write_str(&pairs.join(","))
    }
}

/// Point-in-time injection counters for one [`FaultInjector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Worker panics injected.
    pub panics: u64,
    /// Latency stalls injected.
    pub latencies: u64,
    /// Wire tears injected.
    pub wire_errors: u64,
    /// Cache corruptions injected.
    pub corruptions: u64,
    /// Connections dropped mid-write.
    pub conn_drops: u64,
    /// Partial-write stalls injected.
    pub stalls: u64,
    /// Accepted connections refused.
    pub refusals: u64,
    /// Total injection decisions taken (injected or not).
    pub decisions: u64,
}

impl FaultCounts {
    /// Total faults actually injected across all classes.
    pub fn injected(&self) -> u64 {
        self.panics
            + self.latencies
            + self.wire_errors
            + self.corruptions
            + self.conn_drops
            + self.stalls
            + self.refusals
    }
}

/// The marker every injected panic message starts with, so tests (and
/// humans reading a `sim-panic` error) can tell injected chaos from a
/// real bug.
pub const INJECTED_PANIC_MARKER: &str = "injected fault:";

#[derive(Default)]
struct Counters {
    panics: AtomicU64,
    latencies: AtomicU64,
    wire_errors: AtomicU64,
    corruptions: AtomicU64,
    conn_drops: AtomicU64,
    stalls: AtomicU64,
    refusals: AtomicU64,
    decisions: AtomicU64,
}

/// Executes a [`FaultPlan`]: draws injection decisions from a seeded
/// xoshiro256** stream and counts everything it injects. Thread-safe;
/// a disabled injector (the default plan) never injects and costs one
/// atomic load per call.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Mutex<Xoshiro256StarStar>,
    counts: Counters,
}

impl std::fmt::Debug for Counters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counters")
            .field("decisions", &self.decisions.load(Ordering::Relaxed))
            .finish()
    }
}

impl FaultInjector {
    /// Builds an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = Xoshiro256StarStar::new(plan.seed);
        FaultInjector {
            plan,
            rng: Mutex::new(rng),
            counts: Counters::default(),
        }
    }

    /// An injector that never injects anything.
    pub fn disabled() -> Self {
        FaultInjector::new(FaultPlan::default())
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether any fault class is active.
    pub fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// One Bernoulli draw from the seeded stream; counts the decision.
    fn roll(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        self.counts.decisions.fetch_add(1, Ordering::Relaxed);
        let draw = {
            let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
            rng.next_f64()
        };
        draw < p
    }

    /// Panics with an [`INJECTED_PANIC_MARKER`]-prefixed message when
    /// the plan's worker-panic class fires. `site` names the injection
    /// point for the panic message.
    pub fn maybe_panic(&self, site: &str) {
        if self.roll(self.plan.panic_prob) {
            self.counts.panics.fetch_add(1, Ordering::Relaxed);
            panic!("{INJECTED_PANIC_MARKER} worker panic at {site}");
        }
    }

    /// The artificial stall to apply before executing a job, if the
    /// latency class fires. The duration is a deterministic draw in
    /// `[1, latency_ms]`.
    pub fn maybe_latency(&self) -> Option<Duration> {
        if self.plan.latency_ms == 0 || !self.roll(self.plan.latency_prob) {
            return None;
        }
        self.counts.latencies.fetch_add(1, Ordering::Relaxed);
        let ms = {
            let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
            1 + rng.next_below(self.plan.latency_ms)
        };
        Some(Duration::from_millis(ms))
    }

    /// Whether to tear the next response write mid-line.
    pub fn maybe_wire_error(&self) -> bool {
        let fire = self.roll(self.plan.wire_prob);
        if fire {
            self.counts.wire_errors.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Whether to corrupt a cache entry before the next lookup.
    pub fn maybe_corrupt(&self) -> bool {
        let fire = self.roll(self.plan.corrupt_prob);
        if fire {
            self.counts.corruptions.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Whether to drop the connection outright before the next write.
    pub fn maybe_conn_drop(&self) -> bool {
        let fire = self.roll(self.plan.conn_drop_prob);
        if fire {
            self.counts.conn_drops.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Whether to write only a prefix of the next response and then go
    /// silent (the peer's read timeout is what ends the exchange).
    pub fn maybe_stall(&self) -> bool {
        let fire = self.roll(self.plan.stall_prob);
        if fire {
            self.counts.stalls.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Whether to refuse (close immediately) the next accepted
    /// connection.
    pub fn maybe_refuse_accept(&self) -> bool {
        let fire = self.roll(self.plan.refuse_prob);
        if fire {
            self.counts.refusals.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Current injection counters.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            panics: self.counts.panics.load(Ordering::Relaxed),
            latencies: self.counts.latencies.load(Ordering::Relaxed),
            wire_errors: self.counts.wire_errors.load(Ordering::Relaxed),
            corruptions: self.counts.corruptions.load(Ordering::Relaxed),
            conn_drops: self.counts.conn_drops.load(Ordering::Relaxed),
            stalls: self.counts.stalls.load(Ordering::Relaxed),
            refusals: self.counts.refusals.load(Ordering::Relaxed),
            decisions: self.counts.decisions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let inj = FaultInjector::disabled();
        for _ in 0..100 {
            inj.maybe_panic("test");
            assert!(inj.maybe_latency().is_none());
            assert!(!inj.maybe_wire_error());
            assert!(!inj.maybe_corrupt());
            assert!(!inj.maybe_conn_drop());
            assert!(!inj.maybe_stall());
            assert!(!inj.maybe_refuse_accept());
        }
        assert_eq!(inj.counts(), FaultCounts::default());
        assert!(!inj.is_active());
    }

    #[test]
    fn probabilities_roughly_hold_and_are_counted() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 9,
            wire_prob: 0.3,
            ..FaultPlan::default()
        });
        let n: u32 = 10_000;
        let fired = (0..n).filter(|_| inj.maybe_wire_error()).count();
        let frac = fired as f64 / f64::from(n);
        assert!((frac - 0.3).abs() < 0.03, "got {frac}");
        let c = inj.counts();
        assert_eq!(c.wire_errors, fired as u64);
        assert_eq!(c.decisions, u64::from(n));
        assert_eq!(c.injected(), fired as u64);
    }

    #[test]
    fn decision_stream_is_deterministic_per_seed() {
        let stream = |seed: u64| {
            let inj = FaultInjector::new(FaultPlan {
                seed,
                wire_prob: 0.5,
                ..FaultPlan::default()
            });
            (0..64).map(|_| inj.maybe_wire_error()).collect::<Vec<_>>()
        };
        assert_eq!(stream(3), stream(3));
        assert_ne!(stream(3), stream(4));
    }

    #[test]
    fn injected_panic_is_marked() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 1,
            panic_prob: 1.0,
            ..FaultPlan::default()
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.maybe_panic("here");
        }))
        .expect_err("must panic at probability 1");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with(INJECTED_PANIC_MARKER), "got {msg}");
        assert!(msg.contains("here"));
        assert_eq!(inj.counts().panics, 1);
    }

    #[test]
    fn latency_is_bounded_by_the_plan() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 2,
            latency_prob: 1.0,
            latency_ms: 25,
            ..FaultPlan::default()
        });
        for _ in 0..200 {
            let d = inj.maybe_latency().expect("probability 1");
            assert!((1..=25).contains(&(d.as_millis() as u64)), "got {d:?}");
        }
        assert_eq!(inj.counts().latencies, 200);
    }

    #[test]
    fn connection_faults_fire_and_are_counted() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 11,
            conn_drop_prob: 1.0,
            stall_prob: 1.0,
            refuse_prob: 1.0,
            ..FaultPlan::default()
        });
        assert!(inj.is_active());
        for _ in 0..10 {
            assert!(inj.maybe_conn_drop());
            assert!(inj.maybe_stall());
            assert!(inj.maybe_refuse_accept());
        }
        let c = inj.counts();
        assert_eq!((c.conn_drops, c.stalls, c.refusals), (10, 10, 10));
        assert_eq!(c.injected(), 30);
        assert_eq!(c.decisions, 30);
    }

    #[test]
    fn parse_roundtrips_the_full_spec() {
        let plan = FaultPlan::parse(
            "seed=7,panic=0.1,latency=0.5,latency-ms=40,wire=0.2,corrupt=0.3,\
             conn-drop=0.05,stall=0.04,refuse=0.03",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.panic_prob, 0.1);
        assert_eq!(plan.latency_prob, 0.5);
        assert_eq!(plan.latency_ms, 40);
        assert_eq!(plan.wire_prob, 0.2);
        assert_eq!(plan.corrupt_prob, 0.3);
        assert_eq!(plan.conn_drop_prob, 0.05);
        assert_eq!(plan.stall_prob, 0.04);
        assert_eq!(plan.refuse_prob, 0.03);
        assert!(plan.is_active());
        // Latency probability without a bound defaults the bound.
        assert_eq!(FaultPlan::parse("latency=1").unwrap().latency_ms, 20);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn display_is_the_canonical_spec() {
        let plan = FaultPlan::parse(" wire=1.0,seed=3,,latency=0.25,latency-ms=0").unwrap();
        assert_eq!(plan.to_string(), "seed=3,latency=0.25,latency-ms=20,wire=1");
        assert_eq!(FaultPlan::default().to_string(), "");
        // A latency probability without a bound injects nothing, and
        // so renders as nothing.
        let inert = FaultPlan {
            latency_prob: 0.5,
            ..FaultPlan::default()
        };
        assert!(!inert.is_active());
        assert_eq!(inert.to_string(), "");
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "panic",
            "panic=2.0",
            "panic=-0.5",
            "panic=abc",
            "seed=x",
            "latency-ms=x",
            "frobnicate=1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad}");
        }
    }
}
