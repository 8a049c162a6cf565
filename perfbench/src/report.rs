//! Raw-sample percentiles and the result line.

use std::time::Instant;

use hetmem_harness::json::{fmt_f64, quote, JsonObject};

/// Raw samples of one quantity. Percentiles sort the samples
/// themselves, so no bucketing error enters a reported value.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

/// One percentile of a [`Samples`] set.
#[derive(Debug, Clone, Copy)]
pub struct Pct {
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Nearest-rank percentile: the smallest sample with at least
    /// `q` of the set at or below it. `None` on an empty set.
    pub fn pct(&self, q: f64) -> Option<Pct> {
        if self.0.is_empty() {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(Pct {
            value: sorted[rank - 1],
            n,
            beyond: n - rank,
        })
    }

    pub fn median(&self) -> Option<f64> {
        self.pct(0.5).map(|p| p.value)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that failed outside any single operation.
    broken: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records percentile `q` of `samples` as `name`, with its sample
    /// count and the samples beyond it as a note. An empty set is a
    /// broken check, reported as NaN.
    pub fn pct_metric(&mut self, name: &str, samples: &Samples, q: f64, unit: &'static str) {
        match samples.pct(q) {
            Some(p) => {
                self.note(format!(
                    "{name} = p{} over {} samples, {} beyond",
                    q * 100.0,
                    p.n,
                    p.beyond
                ));
                self.metric(name, p.value, unit);
            }
            None => {
                self.check(false, || format!("{name}: no samples"));
                self.metric(name, f64::NAN, unit);
            }
        }
    }

    /// Counts one operation, failed unless `ok`; `what` describes a
    /// failure and is only built when there is one.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(format!("FAILED: {}", what()));
        }
    }

    /// A check that belongs to no single operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            self.note(format!("CHECK FAILED: {msg}"));
            self.broken.push(msg);
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.broken.extend(other.broken);
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.broken.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// Prints the notes as `#` lines, then the result line last.
    pub fn print(&self) {
        for line in &self.notes {
            println!("# {line}");
        }
        let mut metrics = String::from("{");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            let entry = format!("{{\"value\":{},\"unit\":{}}}", fmt_f64(*value), quote(unit));
            metrics.push_str(&format!("{}:{entry}", quote(name)));
        }
        metrics.push('}');
        println!(
            "{}",
            JsonObject::new()
                .bool("correct", self.correct())
                .u64("attempted", self.attempted)
                .u64("failed", self.failed)
                .raw("metrics", &metrics)
                .finish()
        );
    }
}

/// A fixed CPU and memory kernel run on each side of every timed unit.
///
/// The shared host this benchmark was tuned on changes speed by up to
/// 40% within a minute as neighbours come and go, and a single-threaded
/// simulation slows with it. A timing is therefore also reported
/// rescaled to a reference host speed: multiplied by
/// [`REFERENCE_KERNEL_NS`] over the kernel's own wall time measured
/// beside it. The kernel is part of the benchmark, so no change to the
/// program moves it.
pub struct Calibrator {
    buf: Vec<u32>,
}

/// The kernel's buffer, fully touched, so it sits in the resident set.
pub const CALIBRATOR_BYTES: usize = 4 << 20;
/// The kernel's reference wall time: about what it takes on the 2.1 GHz
/// Xeon vCPU this benchmark was tuned on, unloaded.
pub const REFERENCE_KERNEL_NS: f64 = 3.0e6;
const CAL_ITERS: u32 = 400_000;

/// One unit timed by a [`Calibrator`].
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall time, seconds.
    pub raw_s: f64,
    /// Wall time rescaled to the reference host speed, seconds.
    pub scaled_s: f64,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            buf: vec![1; CALIBRATOR_BYTES / 4],
        }
    }

    /// Runs the kernel once and returns its wall time in nanoseconds:
    /// xorshift-random read-modify-writes over the buffer.
    fn kernel_ns(&mut self) -> f64 {
        let start = Instant::now();
        let n = self.buf.len() as u64;
        let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
        for _ in 0..CAL_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % n) as usize;
            let v = self.buf[i];
            acc = acc.wrapping_add(u64::from(v) * 31 + (x >> 40));
            self.buf[i] = v.wrapping_add(acc as u32);
            if acc & 1 == 0 {
                acc = acc.rotate_left(3);
            }
        }
        std::hint::black_box(acc);
        start.elapsed().as_nanos() as f64
    }

    /// Times `f` between two kernel runs.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timed) {
        let before = self.kernel_ns();
        let start = Instant::now();
        let out = f();
        let raw_s = start.elapsed().as_secs_f64();
        let after = self.kernel_ns();
        let scaled_s = raw_s * REFERENCE_KERNEL_NS / ((before + after) / 2.0);
        (out, Timed { raw_s, scaled_s })
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_percentiles_on_raw_samples() {
        let s = of(&[5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 9.0, 8.0, 7.0, 6.0]);
        let p50 = s.pct(0.5).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (5.0, 10, 5));
        let p90 = s.pct(0.9).unwrap();
        assert_eq!((p90.value, p90.beyond), (9.0, 1));
        assert_eq!(s.pct(1.0).unwrap().value, 10.0);
        assert_eq!(s.pct(0.0).unwrap().value, 1.0);
        assert!(Samples::default().pct(0.5).is_none());
    }

    #[test]
    fn percentiles_keep_every_digit() {
        let s = of(&[377.51234, 411.0, 427.8]);
        assert_eq!(s.median(), Some(411.0));
        assert_eq!(s.pct(0.1).unwrap().value, 377.51234);
    }

    #[test]
    fn outcome_counts_failures_and_breaks_correctness() {
        let mut o = Outcome::default();
        o.op(true, || unreachable!());
        assert!(o.correct());
        o.op(false, || "digest mismatch".into());
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert!(!o.correct());
        let mut c = Outcome::default();
        c.op(true, String::new);
        c.check(false, || "leak".into());
        assert!(!c.correct());
    }
}
