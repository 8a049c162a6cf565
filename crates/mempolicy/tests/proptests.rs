//! Property-based tests for the mempolicy substrate, on the in-tree
//! `hetmem_harness::props!` kit.

use std::collections::HashSet;

use hmtypes::{Bandwidth, MemKind, PageNum, Percent, PAGE_SIZE};
use mempolicy::{
    AddressSpace, FrameAllocator, MemError, Mempolicy, MigrateSpec, NumaTopology, ZoneId, ZoneSpec,
};

/// Builds a 1-4 zone topology from generated `(pages, gbps, latency)`
/// triples; zone 0 is the BO pool, the rest CO.
fn topo_from(zones: Vec<(u64, u32, u64)>) -> NumaTopology {
    let mut b = NumaTopology::builder();
    for (i, (pages, gbps, lat)) in zones.into_iter().enumerate() {
        let kind = if i == 0 {
            MemKind::BandwidthOptimized
        } else {
            MemKind::CapacityOptimized
        };
        b = b.zone(ZoneSpec::new(
            format!("z{i}"),
            kind,
            pages,
            Bandwidth::from_gbps(f64::from(gbps)),
            lat,
        ));
    }
    b.build()
}

/// The generator feeding [`topo_from`]: 1-4 zones, each with 1..512
/// pages and 0..512 GB/s.
fn arb_zones() -> hetmem_harness::prop::VecOf<(
    std::ops::Range<u64>,
    std::ops::Range<u32>,
    std::ops::Range<u64>,
)> {
    hetmem_harness::vec_of((1u64..512, 0u32..512, 0u64..300), 1..4)
}

hetmem_harness::props! {
    cases = 48;

    /// The allocator never hands out the same frame twice and never
    /// exceeds each zone's capacity.
    fn allocator_never_double_allocates(zones in arb_zones(), requests in 1usize..2048) {
        let topo = topo_from(zones);
        let mut alloc = FrameAllocator::new(&topo);
        let mut seen = HashSet::new();
        let zonelist: Vec<ZoneId> = topo.zone_ids().collect();
        let mut granted = 0u64;
        for i in 0..requests {
            match alloc.allocate_with_fallback(&zonelist, PageNum::new(i as u64)) {
                Ok((frame, zone)) => {
                    assert!(seen.insert(frame), "duplicate frame {frame}");
                    assert_eq!(alloc.zone_of(frame), Some(zone));
                    granted += 1;
                }
                Err(MemError::OutOfMemory { .. }) => {
                    assert_eq!(granted, topo.total_pages());
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
    }

    /// Freeing everything returns every zone to fully-free state, and the
    /// freed frames can all be re-allocated.
    fn allocator_free_restores_capacity(zones in arb_zones()) {
        let topo = topo_from(zones);
        let mut alloc = FrameAllocator::new(&topo);
        let zonelist: Vec<ZoneId> = topo.zone_ids().collect();
        let mut frames = Vec::new();
        while let Ok((f, _)) = alloc.allocate_with_fallback(&zonelist, PageNum::new(0)) {
            frames.push(f);
        }
        for &f in &frames {
            alloc.free(f);
        }
        for z in topo.zone_ids() {
            assert_eq!(alloc.allocated(z), 0);
        }
        let mut again = 0;
        while alloc.allocate_with_fallback(&zonelist, PageNum::new(0)).is_ok() {
            again += 1;
        }
        assert_eq!(again as u64, topo.total_pages());
    }

    /// INTERLEAVE is an exact round-robin: after n*k allocations each of
    /// the k zones received exactly n pages (capacity permitting).
    fn interleave_is_exact(rounds in 1u64..64) {
        let topo = NumaTopology::paper_baseline(4096, 4096);
        let mut mm = AddressSpace::new(topo.clone());
        mm.set_mempolicy(Mempolicy::interleave_all(&topo));
        let r = mm.mmap(rounds * 2 * PAGE_SIZE as u64).unwrap();
        mm.populate(r).unwrap();
        assert_eq!(mm.placement_histogram(), vec![rounds, rounds]);
    }

    /// BW-AWARE with ratio xC converges to x% CO placement within
    /// statistical tolerance.
    fn bw_aware_ratio_converges(co_pct in 0u8..=100, seed in 0u64..1000) {
        let pages = 4000u64;
        let topo = NumaTopology::paper_baseline(pages, pages);
        let mut mm = AddressSpace::new(topo);
        mm.set_mempolicy(Mempolicy::ratio_co(Percent::new(co_pct)).with_seed(seed));
        let r = mm.mmap(pages / 2 * PAGE_SIZE as u64).unwrap();
        mm.populate(r).unwrap();
        let hist = mm.placement_histogram();
        let co_frac = hist[1] as f64 / (pages / 2) as f64;
        // 2000 Bernoulli draws: allow 4 sigma ~ 4.5% absolute.
        assert!(
            (co_frac - f64::from(co_pct) / 100.0).abs() < 0.05,
            "co_pct={co_pct} got {co_frac}"
        );
    }

    /// Translation round-trips: a mapped page translates to a physical
    /// address whose frame maps back to the same page's zone.
    fn translate_roundtrip(offset in 0u64..(PAGE_SIZE as u64)) {
        let mut mm = AddressSpace::new(NumaTopology::paper_baseline(64, 64));
        let r = mm.mmap(8 * PAGE_SIZE as u64).unwrap();
        mm.populate(r).unwrap();
        let va = r.start.offset(3 * PAGE_SIZE as u64 + offset);
        let pa = mm.translate(va).unwrap();
        assert_eq!(pa.page_offset(), offset);
        let zone = mm.zone_of_page(va.page()).unwrap();
        assert_eq!(mm.allocator().zone_of(pa.frame()), Some(zone));
    }

    /// The placement histogram always sums to the number of mapped pages
    /// regardless of which policy produced it.
    fn histogram_sums_to_mapped(policy_idx in 0usize..4, pages in 1u64..256) {
        let topo = NumaTopology::paper_baseline(512, 512);
        let mut mm = AddressSpace::new(topo.clone());
        let policy = match policy_idx {
            0 => Mempolicy::local(),
            1 => Mempolicy::interleave_all(&topo),
            2 => Mempolicy::bw_aware_for(&topo),
            _ => Mempolicy::preferred(ZoneId::new(1)),
        };
        mm.set_mempolicy(policy);
        let r = mm.mmap(pages * PAGE_SIZE as u64).unwrap();
        mm.populate(r).unwrap();
        let hist = mm.placement_histogram();
        assert_eq!(hist.iter().sum::<u64>(), pages);
    }

    /// The placement histogram (the allocator's per-zone counts) equals
    /// a per-zone count over the page table after every fault, explicit
    /// placement and migration, failed ones included, and `mapped_pages`
    /// equals the page table's size. Zone 3 is out of range for smaller
    /// topologies, so unknown-zone errors are exercised too.
    fn histogram_matches_page_table(
        zones in arb_zones(),
        seed in 0u64..1000,
        ops in hetmem_harness::vec_of((0u8..3, 0u64..64, 0usize..4), 1..200),
    ) {
        let topo = topo_from(zones);
        let mut mm = AddressSpace::new(topo.clone());
        mm.set_mempolicy(Mempolicy::bw_aware_for(&topo).with_seed(seed));
        let base = mm.mmap(64 * PAGE_SIZE as u64).unwrap().start.page().index();
        for (op, offset, zone) in ops {
            let (page, zone) = (PageNum::new(base + offset), ZoneId::new(zone));
            let _ = match op {
                0 => mm.ensure_mapped(page),
                1 => mm.ensure_mapped_in(page, &[zone]),
                _ => mm.migrate_page(page, zone),
            };
            let mut expected = vec![0u64; topo.num_zones()];
            for (_, frame) in mm.mappings() {
                expected[mm.allocator().zone_of(frame).unwrap().index()] += 1;
            }
            assert_eq!(mm.placement_histogram(), expected);
            assert_eq!(mm.mapped_pages(), mm.mappings().count() as u64);
        }
    }

    /// SBIT per-mille weights always sum to exactly 1000.
    fn sbit_weights_total_1000(gbps in hetmem_harness::vec_of(0u32..2000, 1..6)) {
        let mut b = NumaTopology::builder();
        for (i, g) in gbps.iter().enumerate() {
            b = b.zone(ZoneSpec::new(
                format!("z{i}"),
                MemKind::CapacityOptimized,
                1,
                Bandwidth::from_gbps(f64::from(*g)),
                0,
            ));
        }
        let topo = b.build();
        assert_eq!(topo.bw_weights_per_mille().iter().sum::<u32>(), 1000);
    }
}

/// Characters no `MIGRATE:` spec uses: none is a letter, a digit, `-`,
/// `+`, `,`, `=` or whitespace.
const GARBLE: [char; 7] = ['#', '\0', ';', '~', '"', '(', '\u{fffd}'];

/// A policy from generated knobs: base 0 is `LOCAL`, 1 `INTERLEAVE`,
/// 2 the `xC-yB` ratio with `co` percent in the CO zone; `migrate`
/// (epoch, hot, cold, batch, remap) attaches online migration, with a
/// `hot` of 0 meaning `never` and a `remap` of 0 meaning `None`.
fn policy_from(
    base: u64,
    co: u8,
    migrate: Option<(u64, u64, u64, u64, u64)>,
    topo: &NumaTopology,
) -> Mempolicy {
    let policy = match base {
        0 => Mempolicy::local(),
        1 => Mempolicy::interleave_all(topo),
        _ => Mempolicy::ratio_co(Percent::new(co)),
    };
    match migrate {
        None => policy,
        Some((epoch, hot, cold, batch, remap)) => policy.with_migrate(MigrateSpec {
            epoch_cycles: epoch,
            hot_threshold: if hot == 0 { u64::MAX } else { hot },
            cold_threshold: cold,
            batch_pages: batch,
            remap_cycles: (remap > 0).then_some(remap),
        }),
    }
}

/// [`Mempolicy::name`]'s label rewritten into [`Mempolicy::parse`]'s
/// grammar: `BW-AWARE(xC-yB)` → `xC-yB` and
/// `MIGRATE(k=v,..,base=B)` → `MIGRATE:k=v+..+base=B'`, with
/// `separator` between the pairs.
fn spec_of_label(label: &str, separator: char) -> String {
    if let Some(inner) = label.strip_prefix("MIGRATE(") {
        let inner = inner.strip_suffix(')').expect("closing parenthesis");
        let (knobs, base) = inner.split_once(",base=").expect("base last");
        let knobs = knobs.replace(',', &separator.to_string());
        return format!(
            "MIGRATE:{knobs}{separator}base={}",
            spec_of_label(base, separator)
        );
    }
    match label.strip_prefix("BW-AWARE(") {
        Some(ratio) => ratio
            .strip_suffix(')')
            .expect("closing parenthesis")
            .to_string(),
        None => label.to_string(),
    }
}

/// Asserts that `spec`, which names the `MIGRATE` grammar, either
/// parses or fails as [`MemError::InvalidPolicySpec`].
fn migrate_spec_fails_cleanly(spec: &str, topo: &NumaTopology) {
    if let Err(e) = Mempolicy::parse(spec, topo) {
        assert!(
            matches!(e, MemError::InvalidPolicySpec { .. }),
            "{spec:?} failed as {e:?}"
        );
    }
}

hetmem_harness::props! {
    cases = 256;

    /// Every policy's label, in the parser's grammar, parses back to an
    /// equal policy: the same mode, the same migration knobs and the
    /// same label. (The SBIT-weighted `BW-AWARE` of a topology whose
    /// weights are not whole percents rounds in its label, so ratios
    /// stand in for it here.)
    fn policy_labels_parse_back(
        base in 0u64..3,
        co in 0u8..=100,
        knobs in (1u64..1_000_000, 0u64..64, 0u64..64, 1u64..512),
        remap in 0u64..5000,
        migrate in 0u64..2,
        plus in 0u64..2,
    ) {
        let topo = NumaTopology::paper_baseline(1 << 10, 1 << 12);
        let (epoch, hot, cold, batch) = knobs;
        let migrate = (migrate == 1).then_some((epoch, hot, cold, batch, remap));
        let policy = policy_from(base, co, migrate, &topo);
        let label = policy.name();
        let spec = spec_of_label(&label, if plus == 1 { '+' } else { ',' });
        let back = Mempolicy::parse(&spec, &topo)
            .unwrap_or_else(|e| panic!("{label} as {spec:?}: {e}"));
        assert_eq!(back.mode(), policy.mode(), "{spec:?}");
        assert_eq!(back.migrate_spec(), policy.migrate_spec(), "{spec:?}");
        assert_eq!(back.name(), label);
    }

    /// Truncated, garbled and garbage `MIGRATE:` specs never panic the
    /// parser, and every one it refuses is `InvalidPolicySpec` (which
    /// serve answers as `invalid-policy-spec`). Any text at all never
    /// panics it.
    fn malformed_migrate_specs_are_invalid_policy_specs(
        base in 0u64..3,
        co in 0u8..=100,
        knobs in (1u64..1_000_000, 0u64..64, 0u64..64, 1u64..512),
        remap in 0u64..5000,
        garble in 0usize..GARBLE.len(),
        tail in hetmem_harness::vec_of(0u8..=255, 0..40),
    ) {
        let topo = NumaTopology::paper_baseline(1 << 10, 1 << 12);
        let (epoch, hot, cold, batch) = knobs;
        let policy = policy_from(base, co, Some((epoch, hot, cold, batch, remap)), &topo);
        let spec = spec_of_label(&policy.name(), '+');
        assert!(Mempolicy::parse(&spec, &topo).is_ok(), "{spec:?}");
        let lower = spec.to_ascii_lowercase();
        for whole in [&spec, &lower] {
            for cut in "MIGRATE:".len()..=whole.len() {
                migrate_spec_fails_cleanly(&whole[..cut], &topo);
            }
        }
        for at in "MIGRATE:".len()..spec.len() {
            let garbled: String = spec
                .chars()
                .enumerate()
                .map(|(i, c)| if i == at { GARBLE[garble] } else { c })
                .collect();
            migrate_spec_fails_cleanly(&garbled, &topo);
        }
        let noise = String::from_utf8_lossy(&tail);
        migrate_spec_fails_cleanly(&format!("MIGRATE:{noise}"), &topo);
        migrate_spec_fails_cleanly(&format!("{spec}+{noise}"), &topo);
        let _ = Mempolicy::parse(&noise, &topo);
    }
}
