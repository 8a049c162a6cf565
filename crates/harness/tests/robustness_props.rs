//! Property-based tests for the robustness kit: the backoff schedule
//! and checkpoint/resume, on the in-tree `hetmem_harness::props!` kit.
//!
//! The contracts under test: a [`Backoff`] schedule is monotone
//! non-decreasing, capped, and a pure function of its seed; and a
//! sweep resumed from *any* interruption point — modeled as an
//! arbitrary subset of points already checkpointed — produces output
//! byte-identical to an uninterrupted run, re-running only the
//! missing points.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use hetmem_harness::checkpoint::{run_grid_resumable, CheckpointWriter};
use hetmem_harness::rng::mix;
use hetmem_harness::sweep::SweepOptions;
use hetmem_harness::Backoff;

/// A per-case temp path; `tag` must make the path unique across
/// concurrently running property cases.
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hetmem-props-{}-{tag}.ckpt", std::process::id()))
}

hetmem_harness::props! {
    cases = 64;

    /// Backoff delays never shrink as attempts grow, and never exceed
    /// the cap: additive jitter is bounded by the raw delay, and the
    /// raw delay doubles, so attempt n+1's floor is attempt n's
    /// ceiling.
    fn backoff_is_monotone_and_capped(
        base in 1u64..500,
        cap in 1u64..60_000,
        seed in 0u64..u64::MAX,
    ) {
        let b = Backoff::new(base, cap, seed);
        let schedule: Vec<u64> = (0..24).map(|a| b.delay_ms(a)).collect();
        for w in schedule.windows(2) {
            assert!(w[0] <= w[1], "schedule must be non-decreasing: {schedule:?}");
        }
        for (attempt, &d) in schedule.iter().enumerate() {
            assert!(d <= cap.max(1), "attempt {attempt} delay {d} exceeds cap {cap}");
            assert!(d >= 1, "delays are at least 1ms");
        }
    }

    /// The schedule is a pure function of (base, cap, seed): equal
    /// seeds agree on every attempt.
    fn backoff_is_deterministic_per_seed(
        base in 1u64..500,
        cap in 1u64..60_000,
        seed in 0u64..u64::MAX,
    ) {
        let a = Backoff::new(base, cap, seed);
        let b = Backoff::new(base, cap, seed);
        for attempt in 0..32 {
            assert_eq!(a.delay_ms(attempt), b.delay_ms(attempt));
        }
    }

    /// Resuming from an arbitrary checkpointed subset — any
    /// interruption the crash-safe writer could have survived — yields
    /// bytes identical to an uninterrupted run and re-runs exactly the
    /// missing points.
    fn resume_from_any_subset_is_byte_identical(
        total in 1usize..24,
        done_mask in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
        threads in 1usize..5,
        case_tag in 0u64..u64::MAX,
    ) {
        let points: Vec<usize> = (0..total).collect();
        let opts = SweepOptions { threads, ..SweepOptions::default() };
        let key = |p: &usize| format!("point-{p}");
        let label = |p: &usize| p.to_string();
        // Each point's output depends on a seed derived from the point,
        // so a resume that ran the wrong point would show up as a byte
        // diff.
        let seed_of = |p: usize| mix(seed ^ mix(p as u64));
        let run = |p: &usize| format!("{{\"point\":{p},\"seed\":{}}}", seed_of(*p));

        let path = temp_path(&format!("{total}-{done_mask:x}-{case_tag:x}"));
        let _ = std::fs::remove_file(&path);

        // From-scratch reference (empty checkpoint).
        let fresh = CheckpointWriter::open(&path, false).unwrap();
        let expected = run_grid_resumable(&points, &opts, key, label, run, &fresh).unwrap();
        drop(fresh);
        let _ = std::fs::remove_file(&path);

        // Model the interrupted run: an arbitrary subset completed.
        let prior = CheckpointWriter::open(&path, false).unwrap();
        for &p in &points {
            if done_mask >> (p % 64) & 1 == 1 {
                prior.append(&key(&p), &format!("{{\"point\":{p},\"seed\":{}}}",
                    seed_of(p))).unwrap();
            }
        }
        let already = prior.len();

        let ran = AtomicU64::new(0);
        let counted_run = |p: &usize| {
            ran.fetch_add(1, Ordering::Relaxed);
            run(p)
        };
        let resumed =
            run_grid_resumable(&points, &opts, key, label, counted_run, &prior).unwrap();
        assert_eq!(resumed, expected, "resume must be byte-identical");
        assert_eq!(
            ran.load(Ordering::Relaxed) as usize,
            total - already,
            "resume must re-run exactly the missing points"
        );
        let _ = std::fs::remove_file(&path);
    }
}
