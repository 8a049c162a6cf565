//! The deterministic parallel sweep engine.
//!
//! Every figure of the paper is a grid — workloads × configurations —
//! whose points are independent simulations. This module executes such
//! grids on a scoped-thread worker pool (std only) with two hard
//! guarantees:
//!
//! 1. **Stable order**: results come back in grid order, regardless of
//!    thread count or scheduling. A sweep at 1, 2, or 8 threads produces
//!    identical output bytes, provided a point's result depends on the
//!    point alone (a workload carries its own trace seed).
//! 2. **Fail fast with identity**: a panic in one grid point aborts the
//!    sweep and surfaces as a [`SweepError`] naming the point, instead
//!    of poisoning a lock or hanging the pool.
//!
//! ```
//! use hetmem_harness::sweep::{run_grid, SweepOptions};
//!
//! let points: Vec<u64> = (0..32).collect();
//! let opts = SweepOptions { threads: 4, ..SweepOptions::default() };
//! let squares =
//!     run_grid(&points, &opts, |p| format!("point {p}"), |p| p * p).unwrap();
//! assert_eq!(squares[5], 25);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sweep-wide execution options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Print one progress line per completed point to stderr.
    pub progress: bool,
    /// Cooperative deadline, checked at grid-point boundaries: no new
    /// point starts after this instant (a point already running finishes
    /// — single points are never interrupted mid-simulation). When the
    /// deadline expires before the grid completes, the sweep returns
    /// [`SweepError::DeadlineExceeded`].
    pub deadline: Option<Instant>,
}

/// Why a sweep failed: a panicking point, or the deadline expiring
/// before the grid completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// One grid point panicked.
    Panic {
        /// Grid index of the failing point.
        index: usize,
        /// The failing point's label.
        label: String,
        /// The panic message raised inside the point.
        message: String,
    },
    /// The cooperative deadline expired with points still pending.
    DeadlineExceeded {
        /// Points that completed before the deadline.
        completed: usize,
        /// Total points in the grid.
        total: usize,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Panic {
                index,
                label,
                message,
            } => write!(f, "grid point {index} ({label}) panicked: {message}"),
            SweepError::DeadlineExceeded { completed, total } => write!(
                f,
                "deadline exceeded with {completed}/{total} grid points completed"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

/// Resolves a requested thread count: `0` = available parallelism,
/// never more threads than points.
pub fn effective_threads(requested: usize, points: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n = if requested == 0 { hw } else { requested };
    n.clamp(1, points.max(1))
}

/// Executes `run` over every point of the grid on a worker pool and
/// returns the results **in grid order**.
///
/// `label` names a point for progress lines and errors. `run` must not
/// rely on execution order; everything else — thread count, scheduling,
/// work stealing — is invisible in the output.
///
/// # Errors
///
/// Returns [`SweepError::Panic`] naming the first failing point (in
/// grid order) if any point panics; in-flight points finish, queued
/// points are abandoned. Returns [`SweepError::DeadlineExceeded`] when
/// [`SweepOptions::deadline`] expires with points still pending (the
/// check is cooperative, at grid-point boundaries).
pub fn run_grid<T, R, L, F>(
    points: &[T],
    opts: &SweepOptions,
    label: L,
    run: F,
) -> Result<Vec<R>, SweepError>
where
    T: Sync,
    R: Send,
    L: Fn(&T) -> String + Sync,
    F: Fn(&T) -> R + Sync,
{
    let total = points.len();
    if total == 0 {
        return Ok(Vec::new());
    }
    let threads = effective_threads(opts.threads, total);
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let expired = AtomicBool::new(false);
    let completed = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, String>>>> =
        (0..total).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                if let Some(deadline) = opts.deadline {
                    if Instant::now() >= deadline {
                        expired.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= total {
                    break;
                }
                let point = &points[index];
                let started = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| run(point)));
                let entry = match outcome {
                    Ok(result) => {
                        if opts.progress {
                            let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                            eprintln!(
                                "  [{done}/{total}] {} ({:.2}s)",
                                label(point),
                                started.elapsed().as_secs_f64()
                            );
                        }
                        Ok(result)
                    }
                    Err(payload) => {
                        abort.store(true, Ordering::Relaxed);
                        Err(panic_message(payload))
                    }
                };
                *slots[index].lock().unwrap_or_else(|e| e.into_inner()) = Some(entry);
            });
        }
    });

    let mut entries = Vec::with_capacity(total);
    for slot in slots {
        entries.push(slot.into_inner().unwrap_or_else(|e| e.into_inner()));
    }
    // Surface the earliest failure in *grid* order for a stable message.
    if let Some((index, message)) = entries.iter().enumerate().find_map(|(i, e)| match e {
        Some(Err(m)) => Some((i, m.clone())),
        _ => None,
    }) {
        return Err(SweepError::Panic {
            index,
            label: label(&points[index]),
            message,
        });
    }
    if expired.load(Ordering::Relaxed) {
        let done = entries.iter().filter(|e| e.is_some()).count();
        if done < total {
            return Err(SweepError::DeadlineExceeded {
                completed: done,
                total,
            });
        }
        // Every point finished despite the flag (a worker raced the
        // deadline after the last point was claimed): a full result set
        // is a success.
    }
    Ok(entries
        .into_iter()
        .map(|e| match e {
            Some(Ok(r)) => r,
            // Unreachable: every slot is filled unless a failure
            // aborted the sweep, which returned above.
            _ => unreachable!("unfilled grid slot without a sweep error"),
        })
        .collect())
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_grid_is_fine() {
        let r: Vec<u64> = run_grid(
            &[],
            &SweepOptions::default(),
            |_: &u64| String::new(),
            |p| *p,
        )
        .unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn results_in_grid_order() {
        let points: Vec<usize> = (0..100).collect();
        let opts = SweepOptions {
            threads: 7,
            ..SweepOptions::default()
        };
        let out = run_grid(&points, &opts, |p| p.to_string(), |p| p * 3).unwrap();
        assert_eq!(out, (0..100).map(|p| p * 3).collect::<Vec<_>>());
    }

    #[test]
    fn expired_deadline_fails_before_starting_points() {
        let points: Vec<u64> = (0..8).collect();
        let opts = SweepOptions {
            threads: 2,
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..SweepOptions::default()
        };
        let err = run_grid(&points, &opts, |p| p.to_string(), |p| *p).unwrap_err();
        match err {
            SweepError::DeadlineExceeded { completed, total } => {
                assert_eq!(total, 8);
                assert_eq!(completed, 0, "no point may start past the deadline");
            }
            other => panic!("expected deadline error, got {other}"),
        }
    }

    #[test]
    fn generous_deadline_does_not_perturb_results() {
        let points: Vec<u64> = (0..16).collect();
        let opts = SweepOptions {
            threads: 4,
            deadline: Some(Instant::now() + std::time::Duration::from_secs(600)),
            ..SweepOptions::default()
        };
        let out = run_grid(&points, &opts, |p| p.to_string(), |p| p * 2).unwrap();
        assert_eq!(out, (0..16).map(|p| p * 2).collect::<Vec<_>>());
    }

    #[test]
    fn mid_sweep_deadline_reports_progress() {
        let points: Vec<u64> = (0..64).collect();
        let opts = SweepOptions {
            threads: 1,
            deadline: Some(Instant::now() + std::time::Duration::from_millis(30)),
            ..SweepOptions::default()
        };
        // Each point sleeps long enough that the grid cannot finish.
        let result = run_grid(
            &points,
            &opts,
            |p| p.to_string(),
            |p| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                *p
            },
        );
        match result {
            Err(SweepError::DeadlineExceeded { completed, total }) => {
                assert_eq!(total, 64);
                assert!(completed < 64, "the deadline must cut the grid short");
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(5, 0), 1);
    }
}
