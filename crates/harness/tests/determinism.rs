//! The harness's core guarantees, tested end-to-end: byte-identical
//! JSONL at any thread count, and panic-with-identity instead of hangs.

use hetmem_harness::json::{array, JsonObject};
use hetmem_harness::sweep::{run_grid, SweepError, SweepOptions};
use hetmem_harness::telemetry::fnv1a;

/// A stand-in for one simulated grid point: deterministic "work" whose
/// JSONL line depends only on the point and the seed derived from it.
fn simulate(workload: usize, config: usize, seed: u64) -> String {
    let mut rng = hetmem_harness::Xoshiro256StarStar::new(seed);
    let cycles = 10_000 + rng.next_below(5_000) + (workload * 137 + config * 11) as u64;
    let pools = array([JsonObject::new()
        .str("name", "BO")
        .u64("bytes_read", cycles * 3)
        .u64("bytes_written", cycles / 7)
        .f64("achieved_gbps", cycles as f64 / 1003.0)
        .f64("row_hit_rate", 0.9)
        .finish()]);
    let hash = fnv1a(format!("w{workload}/c{config}").as_bytes());
    JsonObject::new()
        .str("record", "run")
        .str("sweep", "test")
        .str("workload", &format!("w{workload}"))
        .str("config", &format!("c{config}"))
        .str("config_hash", &format!("{hash:016x}"))
        .u64("cycles", cycles)
        .bool("completed", true)
        .u64("mem_ops", 1000)
        .f64("achieved_gbps", cycles as f64 / 997.0)
        .f64("l1_hit_rate", 0.5)
        .f64("l2_hit_rate", 0.25)
        .u64("mshr_stalls", cycles % 13)
        .f64("energy_joules", cycles as f64 * 1e-9)
        .raw("pools", &pools)
        .finish()
}

fn sweep_jsonl(threads: usize) -> String {
    let grid: Vec<(usize, usize)> = (0..6).flat_map(|w| (0..5).map(move |c| (w, c))).collect();
    let opts = SweepOptions {
        threads,
        ..SweepOptions::default()
    };
    let lines = run_grid(
        &grid,
        &opts,
        |(w, c)| format!("w{w}/c{c}"),
        |&(w, c)| simulate(w, c, hetmem_harness::rng::mix((w * 5 + c) as u64)),
    )
    .expect("sweep succeeds");
    lines.iter().map(|l| format!("{l}\n")).collect()
}

#[test]
fn same_sweep_at_1_2_and_8_threads_is_byte_identical() {
    let base = sweep_jsonl(1);
    assert_eq!(base.lines().count(), 30);
    assert_eq!(base, sweep_jsonl(2), "2 threads diverged from 1");
    assert_eq!(base, sweep_jsonl(8), "8 threads diverged from 1");
    // And across repeated runs at the same thread count.
    assert_eq!(base, sweep_jsonl(1), "repeat run diverged");
}

#[test]
fn panicking_point_fails_the_sweep_with_its_identity() {
    let grid: Vec<usize> = (0..10).collect();
    let opts = SweepOptions {
        threads: 4,
        ..SweepOptions::default()
    };
    let err = run_grid(
        &grid,
        &opts,
        |p| format!("point-{p}"),
        |&p| {
            if p == 7 {
                panic!("injected failure in point {p}");
            }
            p * 2
        },
    )
    .expect_err("sweep must fail");
    let SweepError::Panic {
        index,
        label,
        message,
    } = &err
    else {
        panic!("expected a panic error, got {err}");
    };
    assert_eq!(*index, 7);
    assert_eq!(label, "point-7");
    assert!(
        message.contains("injected failure in point 7"),
        "panic message lost: {message}"
    );
    // Display carries the identity too (what a caller would print).
    let shown = err.to_string();
    assert!(shown.contains("point-7") && shown.contains('7'), "{shown}");
}

#[test]
fn multiple_panics_report_earliest_grid_point() {
    let grid: Vec<usize> = (0..16).collect();
    let opts = SweepOptions {
        threads: 8,
        ..SweepOptions::default()
    };
    let err = run_grid(
        &grid,
        &opts,
        |p| p.to_string(),
        |&p| {
            if p % 5 == 3 {
                panic!("boom {p}");
            }
            p
        },
    )
    .expect_err("sweep must fail");
    // Points 3, 8, 13 panic; with 8 threads several may run before the
    // abort lands, but the reported one must be the earliest *started*
    // failure in grid order — and point 3 always starts (threads >=
    // 4 pick up indices 0..8 immediately).
    let SweepError::Panic { index, message, .. } = &err else {
        panic!("expected a panic error, got {err}");
    };
    assert_eq!(index % 5, 3);
    assert!(message.contains("boom"));
}
