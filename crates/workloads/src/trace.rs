//! Trace generation: turning a [`WorkloadSpec`] into a [`WarpProgram`].
//!
//! Each warp owns an independent, seeded RNG stream, so the generated
//! trace is deterministic regardless of how the simulator interleaves
//! warp execution — a property the reproduction's experiments (and the
//! two-phase oracle, which replays the same trace twice) depend on.
//!
//! Sampled runs drain most of each warp's stream through
//! [`WarpProgram::skip_ops`] without materializing it. The drain leaves
//! the generator exactly where `next_op` would, at a fraction of the
//! cost: op and memory-op counts and the compute phase come in closed
//! form from the quota; when every memory op consumes the same number
//! of RNG outputs and no structure streams (xsbench), the RNG moves in
//! one bulk skip; otherwise only the structure picks are replayed —
//! integer compares on the 53-bit draw, with the next pick's output
//! computed up front for every possible output count so the pick feeds
//! the RNG chain through a select instead of a SplitMix64 round — and
//! each stream cursor jumps its whole share at the end (DESIGN §9.3).

use std::hint::select_unpredictable;

use gpusim::{WarpId, WarpOp, WarpProgram};
use hmtypes::{AccessKind, SplitMix64, VirtAddr, LINE_SIZE, PAGE_SIZE};

use crate::spec::{Pattern, WorkloadSpec};

/// Lines per work tile for streaming patterns (2 kB, one DRAM row).
const TILE_LINES: u64 = 16;
/// Interleaved pick counters per run in `skip_ops` (see [`SkipPlan`]).
const LANES: usize = 4;
/// Lines per page.
const LINES_PER_PAGE: u64 = (PAGE_SIZE / LINE_SIZE) as u64;

/// RNG outputs one memory op on a `pattern` structure consumes: the
/// structure pick, `sample_line`'s draws, and the read/write draw.
fn op_steps(pattern: Pattern) -> u64 {
    match pattern {
        // The cursor draws nothing.
        Pattern::Stream => 2,
        // page (or Zipf rank) + line-in-page.
        Pattern::Uniform | Pattern::Zipf { .. } => 4,
        // hot test + page + line-in-page.
        Pattern::Clustered { .. } => 5,
    }
}

#[derive(Debug, Clone)]
struct StructureState {
    base_line: u64,
    live_lines: u64,
    live_pages: u64,
    pattern: Pattern,
    /// Page-rank sampler for the Zipf pattern (empty otherwise).
    zipf: ZipfTable,
    /// Multiplier for the rank→page bijection when shuffled.
    shuffle_mult: u64,
}

impl StructureState {
    fn sample_line(&self, rng: &mut SplitMix64, cursor: &mut StreamCursor, warps: u64) -> u64 {
        let page = match self.pattern {
            Pattern::Stream => {
                return self.base_line + cursor.next(self.live_lines, warps);
            }
            Pattern::Uniform => rng.next_below(self.live_pages),
            Pattern::Zipf { shuffled, .. } => {
                let rank = self.zipf.rank(rng.next_f64()) as u64;
                let rank = rank.min(self.live_pages - 1);
                if shuffled {
                    // Bijective rank→page spread over the structure.
                    (rank * self.shuffle_mult) % self.live_pages
                } else {
                    rank
                }
            }
            Pattern::Clustered { hot_frac, hot_prob } => {
                let hot_pages = ((self.live_pages as f64 * hot_frac) as u64).max(1);
                if rng.next_f64() < hot_prob || hot_pages >= self.live_pages {
                    rng.next_below(hot_pages)
                } else {
                    hot_pages + rng.next_below(self.live_pages - hot_pages)
                }
            }
        };
        let line_in_page = rng.next_below(LINES_PER_PAGE);
        let line = page * LINES_PER_PAGE + line_in_page;
        self.base_line + line.min(self.live_lines - 1)
    }
}

/// Inverse-CDF sampler over Zipf page ranks.
///
/// `rank(u)` is the first rank whose cumulative probability is `>= u`,
/// i.e. `cum.partition_point(|&c| c < u)`. A guide table narrows that
/// binary search to one bucket of the unit interval: `guide[k]` is the
/// answer for `u = k / G`, and since the answer is monotone in `u`, any
/// `u` in `[k / G, (k + 1) / G)` has its answer in
/// `guide[k]..=guide[k + 1]`. `G` is a power of two and `u` a multiple
/// of 2^-53, so `k = floor(u * G)` and `k / G` are exact and the result
/// is bit-identical to the full search.
#[derive(Debug, Clone, Default)]
struct ZipfTable {
    /// Cumulative probability by page rank, nondecreasing, ending at 1.
    cum: Vec<f64>,
    /// `G + 1` entries: `guide[k] = cum.partition_point(|&c| c < k / G)`.
    guide: Vec<u32>,
}

impl ZipfTable {
    /// The sampler for `n` ranks with exponent `s`.
    fn new(n: u64, s: f64) -> Self {
        let cum = zipf_cumulative(n, s);
        // One to two ranks per bucket: the guide is at most half the
        // size of `cum` in bytes.
        let buckets = (cum.len() / 2).max(1).next_power_of_two();
        let guide = (0..=buckets)
            .map(|k| {
                let u = k as f64 / buckets as f64;
                u32::try_from(cum.partition_point(|&c| c < u)).expect("rank fits u32")
            })
            .collect();
        ZipfTable { cum, guide }
    }

    #[inline]
    fn rank(&self, u: f64) -> usize {
        let buckets = self.guide.len() - 1;
        let k = (u * buckets as f64) as usize;
        let lo = self.guide[k] as usize;
        let hi = self.guide[k + 1] as usize;
        lo + self.cum[lo..hi].partition_point(|&c| c < u)
    }
}

/// Per-(warp, structure) streaming cursor: tiles round-robin over warps,
/// wrapping at the end of the structure.
///
/// Warp `warp_index` owns tiles `warp_index + j * warps` for
/// `j < my_tiles`, visited in order of `slot = j`. Everything but the
/// slot and the in-tile offset is fixed per cursor, so `next` does no
/// division on its hot path.
#[derive(Debug, Clone, Copy)]
struct StreamCursor {
    /// The owned tile being streamed: the `slot`-th, counting from 0
    /// and wrapping at `my_tiles`.
    slot: u64,
    off: u64,
    warp_index: u64,
    /// Number of tiles owned by this warp (round-robin assignment),
    /// at least 1.
    my_tiles: u64,
}

impl StreamCursor {
    fn new(warp_index: u64, live_lines: u64, warps: u64) -> Self {
        let tiles = live_lines.div_ceil(TILE_LINES).max(1);
        let base = tiles / warps;
        let extra = u64::from(warp_index < tiles % warps);
        StreamCursor {
            slot: 0,
            off: 0,
            warp_index,
            my_tiles: (base + extra).max(1),
        }
    }

    #[inline]
    fn next(&mut self, live_lines: u64, warps: u64) -> u64 {
        let tiles = live_lines.div_ceil(TILE_LINES).max(1);
        // A warp that owns tiles has them all below `tiles`; only a warp
        // beyond the last tile (owning none, `my_tiles` forced to 1)
        // wraps.
        let tile = self.warp_index + self.slot * warps;
        let tile = if tile < tiles { tile } else { tile % tiles };
        let line = (tile * TILE_LINES + self.off).min(live_lines - 1);
        if self.off + 1 < TILE_LINES && tile * TILE_LINES + self.off + 1 < live_lines {
            self.off += 1;
        } else {
            self.off = 0;
            self.slot += 1;
            if self.slot == self.my_tiles {
                self.slot = 0;
            }
        }
        line
    }

    /// Moves the cursor `k` lines on, exactly as `k` calls of `next`
    /// would, in O(1).
    ///
    /// Only the structure's last tile can be short, and a warp that
    /// owns it visits it in its final slot (it is the highest tile);
    /// a warp owning no tiles wraps onto one tile. So every slot but
    /// the final one holds `TILE_LINES` lines, and `(slot, off)` is the
    /// offset `slot * TILE_LINES + off` into a cycle of fixed length.
    fn advance(&mut self, k: u64, live_lines: u64, warps: u64) {
        let tiles = live_lines.div_ceil(TILE_LINES).max(1);
        let last = self.warp_index + (self.my_tiles - 1) * warps;
        let last = if last < tiles { last } else { last % tiles };
        let cycle =
            (self.my_tiles - 1) * TILE_LINES + (live_lines - last * TILE_LINES).min(TILE_LINES);
        let pos = (self.slot * TILE_LINES + self.off + k % cycle) % cycle;
        self.slot = pos / TILE_LINES;
        self.off = pos % TILE_LINES;
    }
}

/// A [`WarpProgram`] that plays a [`WorkloadSpec`]'s access stream over
/// concrete base addresses (one per structure, in spec order).
///
/// # Examples
///
/// ```
/// use gpusim::{WarpId, WarpProgram};
/// use mempolicy::{AddressSpace, NumaTopology};
/// use workloads::{catalog, TraceProgram};
///
/// let spec = catalog::by_name("bfs").unwrap();
/// // One mapping per structure, as the runtime's `cudaMalloc` makes.
/// let mut mm = AddressSpace::new(NumaTopology::paper_baseline(1, 1));
/// let mut bases = Vec::new();
/// for s in &spec.structures {
///     bases.push(mm.mmap_named(s.bytes, s.name)?.start);
/// }
/// let mut prog = TraceProgram::new(&spec, &bases, 15);
/// assert!(prog.next_op(WarpId(0)).is_some());
/// # Ok::<(), mempolicy::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceProgram {
    warps_per_sm: u32,
    mlp: u32,
    compute: u32,
    write_frac: f64,
    total_warps: u64,
    /// Structure-pick thresholds on a 53-bit draw; see [`pick`].
    pick_limits: Vec<u64>,
    structures: Vec<StructureState>,
    warps: Vec<WarpGen>,
    cursors: Vec<StreamCursor>,
    /// Built by the first `skip_ops`: full-fidelity runs never skip and
    /// so never allocate it.
    skip: Option<SkipPlan>,
}

/// One warp's generator state, packed so an op touches one entry.
#[derive(Debug, Clone)]
struct WarpGen {
    rng: SplitMix64,
    /// Memory ops this warp has left.
    quota: u64,
    /// Whether the compute op preceding the next memory op was emitted.
    compute_phase: bool,
}

impl TraceProgram {
    /// Builds the trace generator for `spec`, with each structure based
    /// at the corresponding address in `bases`, running on `num_sms` SMs.
    ///
    /// # Panics
    ///
    /// Panics if `bases.len()` differs from the spec's structure count or
    /// the spec fails validation.
    pub fn new(spec: &WorkloadSpec, bases: &[VirtAddr], num_sms: u32) -> Self {
        spec.validate();
        assert_eq!(
            bases.len(),
            spec.structures.len(),
            "one base address per structure"
        );
        let total_warps = u64::from(num_sms) * u64::from(spec.warps_per_sm);
        assert!(total_warps > 0, "need at least one warp");

        let total_weight = spec.total_weight();
        let mut cum = 0.0;
        let mut pick_limits = Vec::with_capacity(spec.structures.len());
        let mut structures = Vec::with_capacity(spec.structures.len());
        for (ds, &base) in spec.structures.iter().zip(bases) {
            cum += ds.weight / total_weight;
            // A draw `u = x / 2^53` (x a 53-bit integer) lies past
            // cumulative weight `c` iff `c < u`, iff `c * 2^53 < x`
            // (scaling by a power of two is exact), iff
            // `floor(c * 2^53) < x` since `x` is an integer.
            pick_limits.push((cum * (1u64 << 53) as f64).floor() as u64);

            let lines = (ds.bytes / LINE_SIZE as u64).max(1);
            let live_lines = ((lines as f64 * ds.live_frac) as u64).max(1);
            let live_pages = live_lines.div_ceil(LINES_PER_PAGE).max(1);
            let zipf = if let Pattern::Zipf { s, .. } = ds.pattern {
                ZipfTable::new(live_pages, s)
            } else {
                ZipfTable::default()
            };
            structures.push(StructureState {
                base_line: base.line_index(),
                live_lines,
                live_pages,
                pattern: ds.pattern,
                zipf,
                shuffle_mult: coprime_multiplier(live_pages),
            });
        }
        // The last structure catches every draw the others leave.
        pick_limits.pop();

        let per_warp = (spec.mem_ops / total_warps).max(1);
        let mut seed_rng = SplitMix64::new(spec.seed);
        let warps = (0..total_warps)
            .map(|_| WarpGen {
                rng: seed_rng.fork(),
                quota: per_warp,
                compute_phase: false,
            })
            .collect();
        let mut cursors = Vec::with_capacity((total_warps as usize) * structures.len());
        for w in 0..total_warps {
            for st in &structures {
                cursors.push(StreamCursor::new(w, st.live_lines, total_warps));
            }
        }
        TraceProgram {
            warps_per_sm: spec.warps_per_sm,
            mlp: spec.mlp,
            compute: spec.compute_per_mem,
            write_frac: spec.write_frac,
            total_warps,
            pick_limits,
            structures,
            warps,
            cursors,
            skip: None,
        }
    }

    /// Total memory operations this program will issue.
    pub fn total_ops(&self) -> u64 {
        self.warps.iter().map(|g| g.quota).sum()
    }
}

impl WarpProgram for TraceProgram {
    fn warps_per_sm(&self) -> u32 {
        self.warps_per_sm
    }

    fn mem_level_parallelism(&self) -> u32 {
        self.mlp
    }

    #[inline]
    fn next_op(&mut self, warp: WarpId) -> Option<WarpOp> {
        let w = warp.index();
        let gen = &mut self.warps[w];
        if gen.quota == 0 {
            return None;
        }
        if self.compute > 0 && !gen.compute_phase {
            gen.compute_phase = true;
            return Some(WarpOp::Compute(self.compute));
        }
        gen.compute_phase = false;
        gen.quota -= 1;

        let rng = &mut gen.rng;
        let s_idx = pick(&self.pick_limits, rng.next_u64() >> 11);
        let cursor = &mut self.cursors[w * self.structures.len() + s_idx];
        let line = self.structures[s_idx].sample_line(rng, cursor, self.total_warps);
        let kind = if rng.next_f64() < self.write_frac {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        Some(WarpOp::Mem {
            addr: VirtAddr::new(line * LINE_SIZE as u64),
            kind,
        })
    }

    fn skip_ops(&mut self, warp: WarpId, n: u64) -> (u64, u64) {
        let w = warp.index();
        let gen = &mut self.warps[w];
        // With compute ops, the stream alternates compute and memory
        // ops, and `compute_phase` means the next op is the memory one.
        // In u128, `n = u64::MAX` and the quota doubling cannot wrap.
        let (ops, mem) = if self.compute > 0 {
            let phase = u128::from(gen.compute_phase);
            let ops = u128::from(n).min(2 * u128::from(gen.quota) - phase);
            gen.compute_phase = (ops + phase) % 2 == 1;
            (ops as u64, ((ops + phase) / 2) as u64)
        } else {
            let mem = n.min(gen.quota);
            (mem, mem)
        };
        gen.quota -= mem;
        if mem == 0 {
            return (ops, mem);
        }
        let SkipPlan {
            step_sizes,
            first_class,
            runs,
            streams,
            counts,
        } = self.skip.get_or_insert_with(|| {
            SkipPlan::new(
                self.structures.iter().map(|st| st.pattern),
                &self.pick_limits,
            )
        });
        let (rng, class) = (&mut gen.rng, *first_class);
        match *step_sizes.as_slice() {
            [steps] if streams.is_empty() => {
                rng.skip(mem.wrapping_mul(steps));
                return (ops, mem);
            }
            [a] => replay_runs(runs, class, counts, rng, [a], mem),
            [a, b] => replay_runs(runs, class, counts, rng, [a, b], mem),
            [a, b, c] => replay_runs(runs, class, counts, rng, [a, b, c], mem),
            _ => unreachable!("patterns have three op step sizes"),
        }
        let cursors = &mut self.cursors[w * self.structures.len()..];
        for &(run, s) in streams.iter() {
            let count = counts[run * LANES..][..LANES].iter().sum();
            let st = &self.structures[s];
            cursors[s].advance(count, st.live_lines, self.total_warps);
        }
        counts.fill(0);
        (ops, mem)
    }
}

/// The structure a 53-bit draw `x` picks: the number of `limits` below
/// it. `limits` (one per structure but the last) is nondecreasing, so
/// that count is the first structure whose cumulative weight reaches
/// the draw — a few compares, no search.
#[inline]
fn pick(limits: &[u64], x: u64) -> usize {
    limits.iter().map(|&l| usize::from(l < x)).sum()
}

/// What `skip_ops` needs to replay memory ops without generating them.
///
/// A skip only has to follow the RNG and the stream cursors, so it
/// tells structures apart only by their step class and whether they
/// stream. Consecutive structures with the same class and no cursor
/// form one *run*; every stream structure is a run of its own. A
/// 53-bit draw's run is the number of run limits below it, just as
/// [`pick`] counts structures.
#[derive(Debug, Clone)]
struct SkipPlan {
    /// The distinct [`op_steps`] values over the structures, in first-
    /// seen order: at most three (2, 4 and 5).
    step_sizes: Vec<u64>,
    /// The step class (index into `step_sizes`) of the first run.
    first_class: u64,
    /// Per run after the first: the pick limit where it starts, and its
    /// class minus the previous run's (wrapping). A draw's class is
    /// `first_class` plus the deltas of the limits below it.
    runs: Vec<(u64, u64)>,
    /// `(run, structure)` for every stream structure.
    streams: Vec<(usize, usize)>,
    /// Scratch: picks per run over one skip, `LANES` interleaved
    /// counters each, so consecutive picks of one run do not wait on
    /// each other's increment.
    counts: Vec<u64>,
}

impl SkipPlan {
    /// The plan for structures with these patterns and `pick_limits`.
    fn new(patterns: impl Iterator<Item = Pattern>, pick_limits: &[u64]) -> Self {
        let mut plan = SkipPlan {
            step_sizes: Vec::new(),
            first_class: 0,
            runs: Vec::new(),
            streams: Vec::new(),
            counts: Vec::new(),
        };
        let mut prev_class = None;
        for (i, pattern) in patterns.enumerate() {
            let steps = op_steps(pattern);
            let class = match plan.step_sizes.iter().position(|&s| s == steps) {
                Some(c) => c,
                None => {
                    plan.step_sizes.push(steps);
                    plan.step_sizes.len() - 1
                }
            } as u64;
            let stream = pattern == Pattern::Stream;
            match prev_class {
                None => plan.first_class = class,
                // Streams have a step count of their own, so a class
                // change also ends a stream's run.
                Some(prev) if stream || class != prev => {
                    plan.runs
                        .push((pick_limits[i - 1], class.wrapping_sub(prev)));
                }
                Some(_) => {}
            }
            if stream {
                plan.streams.push((plan.runs.len(), i));
            }
            prev_class = Some(class);
        }
        plan.counts = vec![0; LANES * (plan.runs.len() + 1)];
        plan
    }
}

/// Replays `mem` memory ops' picks from `rng` over a [`SkipPlan`]'s
/// `runs` and `first_class`, adding each run's count to its lanes in
/// `counts` and leaving `rng` past the last op. `steps` is the plan's
/// `step_sizes` as an array.
///
/// An op consumes `steps[c]` outputs, `c` being its run's class, so
/// where the next pick's output lies depends on this pick. Rather than
/// wait for it, the loop computes the next pick's output for every step
/// size from the current state (pure [`SplitMix64::peek`]s the pick
/// does not feed) and then selects one. The pick therefore reaches the
/// RNG chain through a compare per run and a select, not through a
/// SplitMix64 round. The plan's parts come in as separate borrows so
/// the compiler knows the counts alias neither the runs nor the state.
#[inline]
fn replay_runs<const K: usize>(
    runs: &[(u64, u64)],
    first_class: u64,
    counts: &mut [u64],
    rng: &mut SplitMix64,
    steps: [u64; K],
    mem: u64,
) {
    // A local copy keeps the state in a register across the loop.
    let mut state = rng.clone();
    let mut x = state.peek(0);
    for k in 0..mem {
        let v = x >> 11;
        let (run, c) = runs
            .iter()
            .fold((0, first_class), |(run, c), &(limit, delta)| {
                let past = limit < v;
                (
                    run + usize::from(past),
                    select_unpredictable(past, c.wrapping_add(delta), c),
                )
            });
        // Class 0 unless a later class matches: with one step size
        // the state never waits on the draw.
        let mut after = state.clone();
        after.skip(steps[0]);
        let mut out = after.peek(0);
        for (j, &step) in steps.iter().enumerate().skip(1) {
            let mut r = state.clone();
            r.skip(step);
            let hit = c == j as u64;
            out = select_unpredictable(hit, r.peek(0), out);
            after = select_unpredictable(hit, r, after);
        }
        state = after;
        x = out;
        counts[run * LANES + (k % LANES as u64) as usize] += 1;
    }
    *rng = state;
}

/// Cumulative Zipf distribution over `n` ranks with exponent `s`.
fn zipf_cumulative(n: u64, s: f64) -> Vec<f64> {
    let n = n as usize;
    let mut cum = Vec::with_capacity(n);
    let mut total = 0.0;
    for i in 0..n {
        total += 1.0 / ((i + 1) as f64).powf(s);
        cum.push(total);
    }
    for c in &mut cum {
        *c /= total;
    }
    cum
}

/// A multiplier coprime with `n`, used as a cheap bijective permutation
/// `rank -> (rank * m) % n` to spread hot ranks over a structure.
fn coprime_multiplier(n: u64) -> u64 {
    if n <= 2 {
        return 1;
    }
    // Start near the golden-ratio point and walk to coprimality.
    let mut m = (n as f64 * 0.618_033_99) as u64 | 1;
    while gcd(m, n) != 1 {
        m += 2;
    }
    m % n
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use mempolicy::{AddressSpace, NumaTopology, VmaRange};
    use std::collections::HashMap;

    /// `spec`'s structures allocated the way the runtime allocates
    /// them: one `mmap_named` each, in spec order.
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

    fn histogram(spec: &WorkloadSpec, ops_cap: u64) -> HashMap<u64, u64> {
        let mut prog = TraceProgram::new(spec, &structure_bases(spec), 4);
        let mut hist = HashMap::new();
        let mut issued = 0;
        'outer: for w in 0..(4 * spec.warps_per_sm) {
            while let Some(op) = prog.next_op(WarpId(w)) {
                if let WarpOp::Mem { addr, .. } = op {
                    *hist.entry(addr.page().index()).or_insert(0) += 1;
                    issued += 1;
                    if issued >= ops_cap {
                        break 'outer;
                    }
                }
            }
        }
        hist
    }

    #[test]
    fn zipf_cumulative_is_monotone_and_normalized() {
        let cum = zipf_cumulative(100, 1.2);
        assert_eq!(cum.len(), 100);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
        assert!((cum[99] - 1.0).abs() < 1e-12);
        // Rank 0 dominates.
        assert!(cum[0] > 0.1);
    }

    #[test]
    fn zipf_guide_table_matches_the_full_search() {
        let ulp = 1.0 / (1u64 << 53) as f64;
        let mut rng = SplitMix64::new(11);
        for (n, s) in [
            (1u64, 1.0),
            (2, 0.5),
            (3, 2.5),
            (100, 1.2),
            (5000, 0.8),
            (40_000, 1.0),
        ] {
            let table = ZipfTable::new(n, s);
            let buckets = table.guide.len() - 1;
            assert!(buckets.is_power_of_two());
            let mut probes: Vec<f64> = (0..2000).map(|_| rng.next_f64()).collect();
            // Bucket edges and the values just below them, plus the
            // cumulative values themselves (the `c < u` boundary).
            for k in 0..buckets {
                let edge = k as f64 / buckets as f64;
                probes.push(edge);
                if k > 0 {
                    probes.push(edge - ulp);
                }
            }
            probes.push(1.0 - ulp);
            probes.extend(table.cum.iter().copied().filter(|&c| c < 1.0));
            for u in probes {
                let want = table.cum.partition_point(|&c| c < u);
                assert_eq!(table.rank(u), want, "n {n} s {s} u {u}");
            }
        }
    }

    #[test]
    fn stream_cursor_matches_the_modular_tile_formula() {
        // The original formulation: an unbounded tile ordinal and two
        // modular reductions per call.
        fn reference(ord: &mut u64, off: &mut u64, w: u64, live: u64, warps: u64) -> u64 {
            let tiles = live.div_ceil(TILE_LINES).max(1);
            let my_tiles = (tiles / warps + u64::from(w < tiles % warps)).max(1);
            let tile = (w + (*ord % my_tiles) * warps) % tiles;
            let line = (tile * TILE_LINES + *off).min(live - 1);
            if *off + 1 < TILE_LINES && tile * TILE_LINES + *off + 1 < live {
                *off += 1;
            } else {
                *off = 0;
                *ord += 1;
            }
            line
        }
        for live in [1u64, 5, 16, 17, 100, 1000, 4099] {
            for warps in [1u64, 3, 8, 64, 480] {
                for w in [0, warps / 2, warps - 1] {
                    let mut cursor = StreamCursor::new(w, live, warps);
                    let (mut ord, mut off) = (0, 0);
                    for step in 0..3000 {
                        assert_eq!(
                            cursor.next(live, warps),
                            reference(&mut ord, &mut off, w, live, warps),
                            "live {live} warps {warps} warp {w} step {step}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stream_cursor_advance_matches_repeated_next() {
        for live in [1u64, 5, 16, 17, 100, 1000, 4099] {
            for warps in [1u64, 3, 8, 64, 480] {
                for w in [0, warps / 2, warps - 1] {
                    let mut stepped = StreamCursor::new(w, live, warps);
                    let mut jumped = stepped;
                    for k in [0u64, 1, 2, 15, 16, 17, 31, 100, 1001, 5000] {
                        for _ in 0..k {
                            stepped.next(live, warps);
                        }
                        jumped.advance(k, live, warps);
                        assert_eq!(
                            (jumped.slot, jumped.off),
                            (stepped.slot, stepped.off),
                            "live {live} warps {warps} warp {w} k {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn coprime_multiplier_is_bijective() {
        for n in [2u64, 3, 7, 16, 100, 1024, 4097] {
            let m = coprime_multiplier(n);
            let mut seen = std::collections::HashSet::new();
            for r in 0..n {
                assert!(seen.insert((r * m) % n));
            }
            assert_eq!(seen.len() as u64, n);
        }
    }

    #[test]
    fn trace_is_deterministic_per_warp_regardless_of_interleave() {
        let spec = catalog::by_name("bfs").unwrap();
        let bases = structure_bases(&spec);
        let mut a = TraceProgram::new(&spec, &bases, 2);
        let mut b = TraceProgram::new(&spec, &bases, 2);
        // Drain a's warp 0 fully first; interleave b's warps 0 and 1.
        let seq_a: Vec<_> = std::iter::from_fn(|| a.next_op(WarpId(0)))
            .take(500)
            .collect();
        let mut seq_b = Vec::new();
        while seq_b.len() < 500 {
            if let Some(op) = b.next_op(WarpId(0)) {
                seq_b.push(op);
            } else {
                break;
            }
            let _ = b.next_op(WarpId(1));
        }
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn skip_ops_leaves_state_identical_to_next_op() {
        // Every catalog pattern must agree: skipping n ops and then
        // generating must produce exactly what generating n ops and
        // discarding them would. The sampled fast-forward engine's
        // detail-window byte-identity depends on this.
        for name in ["bfs", "hotspot", "lbm", "sgemm", "spmv", "xsbench"] {
            let spec = catalog::by_name(name).unwrap();
            let bases = structure_bases(&spec);
            let mut skipped = TraceProgram::new(&spec, &bases, 2);
            let mut looped = TraceProgram::new(&spec, &bases, 2);
            for w in [WarpId(0), WarpId(3)] {
                for n in [1u64, 7, 64, 333] {
                    let a = skipped.skip_ops(w, n);
                    let mut ops = 0;
                    let mut mem = 0;
                    while ops < n {
                        match looped.next_op(w) {
                            Some(WarpOp::Mem { .. }) => {
                                ops += 1;
                                mem += 1;
                            }
                            Some(_) => ops += 1,
                            None => break,
                        }
                    }
                    assert_eq!(a, (ops, mem), "{name}: skip counts diverge");
                    // Resynchronize on real ops: identical state must
                    // yield identical streams.
                    for _ in 0..16 {
                        assert_eq!(
                            skipped.next_op(w),
                            looped.next_op(w),
                            "{name}: streams diverge after skip"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quota_limits_total_ops() {
        let spec = catalog::by_name("hotspot").unwrap();
        let bases = structure_bases(&spec);
        let mut prog = TraceProgram::new(&spec, &bases, 4);
        let expected = prog.total_ops();
        let mut count = 0;
        for w in 0..(4 * spec.warps_per_sm) {
            while let Some(op) = prog.next_op(WarpId(w)) {
                if matches!(op, WarpOp::Mem { .. }) {
                    count += 1;
                }
            }
            assert!(prog.next_op(WarpId(w)).is_none(), "warp stays retired");
        }
        assert_eq!(count, expected);
    }

    #[test]
    fn accesses_stay_within_structures() {
        let spec = catalog::by_name("xsbench").unwrap();
        let ranges = mapped(&spec);
        let mut prog = TraceProgram::new(&spec, &structure_bases(&spec), 2);
        for w in 0..(2 * spec.warps_per_sm) {
            for _ in 0..200 {
                match prog.next_op(WarpId(w)) {
                    Some(WarpOp::Mem { addr, .. }) => {
                        assert!(
                            ranges.iter().any(|r| r.contains(addr)),
                            "address {addr} outside all structures"
                        );
                    }
                    Some(WarpOp::Compute(_)) => {}
                    None => break,
                }
            }
        }
    }

    #[test]
    fn skewed_workload_concentrates_traffic() {
        // bfs: the paper reports >60% of traffic from ~10% of pages.
        let spec = catalog::by_name("bfs").unwrap();
        let hist = histogram(&spec, 60_000);
        let mut counts: Vec<u64> = hist.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top10 = counts.len() / 10;
        let hot: u64 = counts.iter().take(top10).sum();
        assert!(
            hot as f64 / total as f64 > 0.5,
            "top 10% of pages carry {:.2} of traffic",
            hot as f64 / total as f64
        );
    }

    #[test]
    fn linear_workload_spreads_traffic() {
        // needle: fairly linear CDF.
        let spec = catalog::by_name("needle").unwrap();
        let hist = histogram(&spec, 60_000);
        let mut counts: Vec<u64> = hist.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top10 = (counts.len() / 10).max(1);
        let hot: u64 = counts.iter().take(top10).sum();
        assert!(
            (hot as f64 / total as f64) < 0.35,
            "needle should be near-linear, top-10% carries {:.2}",
            hot as f64 / total as f64
        );
    }

    #[test]
    fn dead_ranges_are_never_touched() {
        let spec = catalog::by_name("mummergpu").unwrap();
        let dead_structure = spec
            .structures
            .iter()
            .position(|s| s.live_frac < 1.0)
            .expect("mummergpu models dead ranges");
        let range = mapped(&spec)[dead_structure];
        let (start, end) = (range.start, range.end());
        let live_end = start.raw()
            + ((end.raw() - start.raw()) as f64 * spec.structures[dead_structure].live_frac) as u64;
        let mut prog = TraceProgram::new(&spec, &structure_bases(&spec), 2);
        for w in 0..(2 * spec.warps_per_sm) {
            for _ in 0..500 {
                match prog.next_op(WarpId(w)) {
                    Some(WarpOp::Mem { addr, .. }) => {
                        let a = addr.raw();
                        if a >= start.raw() && a < end.raw() {
                            assert!(
                                a < live_end + LINE_SIZE as u64,
                                "access into dead range at {addr}"
                            );
                        }
                    }
                    Some(_) => {}
                    None => break,
                }
            }
        }
    }
}
