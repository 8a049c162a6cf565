//! Property-based tests over the whole workload catalog, on the
//! in-tree `hetmem_harness::props!` kit.

use gpusim::{WarpId, WarpOp, WarpProgram};
use hetmem_harness::prop::{any_u64, vec_of};
use hmtypes::VirtAddr;
use mempolicy::{AddressSpace, NumaTopology, VmaRange};
use workloads::{
    catalog, DataStructureSpec, Pattern, Sensitivity, Suite, TraceProgram, WorkloadSpec,
};

/// `spec`'s structures allocated the way the runtime allocates them:
/// one `mmap_named` each, in spec order.
fn mapped(spec: &WorkloadSpec) -> Vec<VmaRange> {
    let mut mm = AddressSpace::new(NumaTopology::paper_baseline(1, 1));
    spec.structures
        .iter()
        .map(|s| mm.mmap_named(s.bytes, s.name).expect("nonzero size"))
        .collect()
}

fn structure_bases(spec: &WorkloadSpec) -> Vec<VirtAddr> {
    mapped(spec).iter().map(|r| r.start).collect()
}

/// A spec over `structs` = `(choice, lines)` pairs. The low bits of
/// `choice` pick the pattern (stream, uniform, Zipf — shuffled on odd
/// weights — or clustered) and the next ones a weight of 0-3; the first
/// structure always carries weight so the total is positive, and odd
/// line counts leave part of the structure dead.
fn random_spec(structs: &[(u64, u64)], compute: u32, mem_ops: u64, seed: u64) -> WorkloadSpec {
    let structures = structs
        .iter()
        .enumerate()
        .map(|(i, &(choice, lines))| {
            let weight = ((choice >> 2) % 4) as u32;
            let pattern = match choice % 4 {
                0 => Pattern::Stream,
                1 => Pattern::Uniform,
                2 => Pattern::Zipf {
                    s: 0.6 + f64::from(weight) * 0.3,
                    shuffled: weight % 2 == 1,
                },
                _ => Pattern::Clustered {
                    hot_frac: 0.2,
                    hot_prob: 0.85,
                },
            };
            let weight = f64::from(weight) + if i == 0 { 1.0 } else { 0.0 };
            let live = if lines % 2 == 1 { 0.6 } else { 1.0 };
            DataStructureSpec::new("s", lines * 128, weight, pattern).with_live_frac(live)
        })
        .collect();
    WorkloadSpec {
        name: "prop",
        suite: Suite::Rodinia,
        class: Sensitivity::Bandwidth,
        structures,
        compute_per_mem: compute,
        warps_per_sm: 2,
        mlp: 2,
        write_frac: 0.3,
        mem_ops,
        seed,
    }
}

/// Consumes up to `n` ops with `next_op` alone, as `skip_ops` counts them.
fn drain(prog: &mut TraceProgram, w: WarpId, n: u64) -> (u64, u64) {
    let (mut ops, mut mem) = (0, 0);
    while ops < n {
        match prog.next_op(w) {
            Some(WarpOp::Mem { .. }) => (ops, mem) = (ops + 1, mem + 1),
            Some(WarpOp::Compute(_)) => ops += 1,
            None => break,
        }
    }
    (ops, mem)
}

hetmem_harness::props! {
    cases = 16;

    /// Every catalog workload generates only in-range, line-aligned
    /// addresses and honors its per-warp quota, for any SM count.
    fn any_workload_generates_valid_traces(idx in 0usize..19, num_sms in 1u32..6) {
        let mut spec = catalog::all().swap_remove(idx);
        spec.mem_ops = 4_000;
        let ranges = mapped(&spec);
        let mut prog = TraceProgram::new(&spec, &structure_bases(&spec), num_sms);
        let expected = prog.total_ops();
        let mut mem_count = 0u64;
        for w in 0..(num_sms * spec.warps_per_sm) {
            loop {
                match prog.next_op(WarpId(w)) {
                    Some(WarpOp::Mem { addr, .. }) => {
                        mem_count += 1;
                        assert_eq!(addr.raw() % 128, 0, "line aligned");
                        assert!(
                            ranges.iter().any(|r| r.contains(addr)),
                            "address {} outside structures",
                            addr
                        );
                    }
                    Some(WarpOp::Compute(c)) => assert!(c > 0),
                    None => break,
                }
            }
            assert!(prog.next_op(WarpId(w)).is_none(), "stays retired");
        }
        assert_eq!(mem_count, expected);
    }

    /// Trace generation is deterministic for a fixed spec.
    fn traces_are_reproducible(idx in 0usize..19) {
        let mut spec = catalog::all().swap_remove(idx);
        spec.mem_ops = 2_000;
        let bases = structure_bases(&spec);
        let mut a = TraceProgram::new(&spec, &bases, 2);
        let mut b = TraceProgram::new(&spec, &bases, 2);
        for w in 0..(2 * spec.warps_per_sm) {
            loop {
                let (oa, ob) = (a.next_op(WarpId(w)), b.next_op(WarpId(w)));
                assert_eq!(oa, ob);
                if oa.is_none() {
                    break;
                }
            }
        }
    }

    /// Dataset variants keep the workload well-formed and distinct seeds.
    fn dataset_variants_validate(name_idx in 0usize..4) {
        let name = ["bfs", "xsbench", "minife", "mummergpu"][name_idx];
        let sets = catalog::datasets(name);
        assert!(sets.len() >= 3);
        let mut seeds = std::collections::HashSet::new();
        for s in &sets {
            s.validate();
            assert!(seeds.insert(s.seed), "duplicate seed across datasets");
        }
    }
}

hetmem_harness::props! {
    cases = 256;

    /// `skip_ops` is exactly a run of `next_op` calls: on random specs
    /// (1-8 structures of every pattern, with and without compute ops,
    /// small quotas), skips of every kind of length — zero, odd, even,
    /// past the quota, `u64::MAX` — interleaved with real ops return the
    /// counts a `next_op`-only drain sees and leave the generator where
    /// that drain leaves it, down to the last op of every warp.
    fn skip_ops_equals_a_next_op_drain(
        structs in vec_of((any_u64(), 1u64..3000), 1..9),
        compute in any_u64(),
        mem_ops in 1u64..600,
        steps in vec_of(any_u64(), 1..24),
        seed in any_u64(),
    ) {
        // Categorical choices come from full-range draws, which the
        // kit's size ramp does not narrow to their first values.
        let spec = random_spec(&structs, (compute % 3) as u32, mem_ops, seed);
        let bases = structure_bases(&spec);
        let mut skipped = TraceProgram::new(&spec, &bases, 3);
        let mut looped = TraceProgram::new(&spec, &bases, 3);
        let quota = skipped.total_ops();
        for w in (0..6).map(WarpId) {
            for &step in &steps {
                let n = match step % 8 {
                    0 => 0,
                    1 => 1,
                    2 => 2,
                    3 => 7,
                    4 => 10,
                    5 => 2 * quota + 3,
                    6 => u64::MAX,
                    _ => {
                        assert_eq!(skipped.next_op(w), looped.next_op(w), "interleaved op");
                        continue;
                    }
                };
                assert_eq!(skipped.skip_ops(w, n), drain(&mut looped, w, n), "skip {n}");
            }
            loop {
                let op = looped.next_op(w);
                assert_eq!(skipped.next_op(w), op, "streams diverge after the skips");
                if op.is_none() {
                    break;
                }
            }
        }
    }
}
