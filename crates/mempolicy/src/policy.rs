//! Page placement policies (`set_mempolicy` modes).
//!
//! Linux ships `LOCAL`, `INTERLEAVE`, `BIND`, and `PREFERRED`. The paper
//! adds `MPOL_BWAWARE` (§3.2.1): on each page allocation draw a random
//! number and pick a zone with probability proportional to its share of
//! total system bandwidth, so steady-state placement matches the
//! bandwidth-service ratio of the pools — without tracking any history or
//! page-access frequency (it stays on the allocation fast path).

use core::fmt;

use crate::error::MemError;
use crate::topology::{NumaTopology, ZoneId};
use hmtypes::{Percent, SplitMix64};

/// Which placement algorithm a [`Mempolicy`] runs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PolicyMode {
    /// Allocate from the lowest-latency (GPU-local) zone, spilling to the
    /// next-nearest zone only on capacity exhaustion. Linux's default.
    Local,
    /// Round-robin pages across `nodes` (Linux `MPOL_INTERLEAVE`).
    Interleave {
        /// The zones to stripe across, in stripe order.
        nodes: Vec<ZoneId>,
    },
    /// The paper's `MPOL_BWAWARE`: randomized placement weighted by each
    /// zone's share of aggregate bandwidth.
    BwAware {
        /// Per-zone placement weights in per-mille (sum to 1000),
        /// index-aligned with the topology's zones.
        weights_per_mille: Vec<u32>,
    },
    /// Allocate only from `nodes`; fail rather than fall back elsewhere.
    Bind {
        /// The only zones allocation may use.
        nodes: Vec<ZoneId>,
    },
    /// Prefer `node`, falling back by latency when it is full.
    Preferred {
        /// The preferred zone.
        node: ZoneId,
    },
}

/// Tuning knobs for the online page-migration engine, attached to a
/// base placement policy by the `MIGRATE:` spec grammar (see
/// [`Mempolicy::parse`]). The base policy decides first-touch
/// placement; the engine then promotes/demotes pages between zones at
/// epoch boundaries based on observed DRAM access counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrateSpec {
    /// Epoch length in SM cycles between migration decisions.
    pub epoch_cycles: u64,
    /// DRAM accesses within one epoch at or above which a
    /// capacity-zone page becomes a promotion candidate
    /// (`u64::MAX` = never promote).
    pub hot_threshold: u64,
    /// DRAM accesses within one epoch strictly below which a
    /// bandwidth-zone page becomes a demotion candidate (0 = never
    /// demote by coldness; eviction under capacity pressure still
    /// applies).
    pub cold_threshold: u64,
    /// Maximum pages promoted per epoch.
    pub batch_pages: u64,
    /// Cycles a migrated page stalls its next access while the mapping
    /// is rewritten; `None` derives it from the shared migration cost
    /// model's pipeline latency.
    pub remap_cycles: Option<u64>,
}

impl Default for MigrateSpec {
    fn default() -> Self {
        MigrateSpec {
            epoch_cycles: 100_000,
            hot_threshold: 8,
            cold_threshold: 0,
            batch_pages: 64,
            remap_cycles: None,
        }
    }
}

/// A memory placement policy plus its per-task mutable state (interleave
/// cursor, fast-path RNG).
///
/// # Examples
///
/// ```
/// use mempolicy::{Mempolicy, NumaTopology};
///
/// let topo = NumaTopology::paper_baseline(1024, 4096);
/// let mut pol = Mempolicy::bw_aware_for(&topo);
/// // The first zone in the returned list is the policy's pick; the rest
/// // is the capacity-exhaustion fallback order.
/// let zl = pol.zonelist(&topo)?;
/// assert_eq!(zl.len(), 2);
/// # Ok::<(), mempolicy::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mempolicy {
    mode: PolicyMode,
    interleave_next: usize,
    rng: SplitMix64,
    migrate: Option<MigrateSpec>,
}

impl Mempolicy {
    /// Default RNG seed for the BW-AWARE fast-path draw; fix it so
    /// simulations are reproducible, override with [`Mempolicy::with_seed`].
    const DEFAULT_SEED: u64 = 0x9A9A_2015_01EF_55AA;

    /// Creates the Linux default `LOCAL` policy.
    pub fn local() -> Self {
        Mempolicy::from_mode(PolicyMode::Local)
    }

    /// Creates an `INTERLEAVE` policy striping over all zones of `topo`.
    pub fn interleave_all(topo: &NumaTopology) -> Self {
        Mempolicy::from_mode(PolicyMode::Interleave {
            nodes: topo.zone_ids().collect(),
        })
    }

    /// Creates an `INTERLEAVE` policy over an explicit node set.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::EmptyNodeSet`] when `nodes` is empty.
    pub fn interleave(nodes: Vec<ZoneId>) -> Result<Self, MemError> {
        if nodes.is_empty() {
            return Err(MemError::EmptyNodeSet);
        }
        Ok(Mempolicy::from_mode(PolicyMode::Interleave { nodes }))
    }

    /// Creates `MPOL_BWAWARE` with weights read from the topology's SBIT
    /// bandwidths ([`NumaTopology::bw_weights_per_mille`]) —
    /// what the kernel would do when an application selects the mode
    /// (paper §3.2.1: "allocate pages from the two memory zones in the
    /// ratio of their bandwidths").
    pub fn bw_aware_for(topo: &NumaTopology) -> Self {
        Mempolicy::from_mode(PolicyMode::BwAware {
            weights_per_mille: topo.bw_weights_per_mille(),
        })
    }

    /// Creates a BW-AWARE-style policy with an explicit `xC-yB` split for
    /// a two-zone `[BO, CO]` topology — the knob Fig. 3 sweeps.
    ///
    /// `co_pct` is *x*, the percentage of pages placed in the
    /// capacity-optimized zone (zone 1); the rest go to zone 0.
    pub fn ratio_co(co_pct: Percent) -> Self {
        let co = u32::from(co_pct.value()) * 10;
        Mempolicy::from_mode(PolicyMode::BwAware {
            weights_per_mille: vec![1000 - co, co],
        })
    }

    /// Creates a `BIND` policy restricted to `nodes`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::EmptyNodeSet`] when `nodes` is empty.
    pub fn bind(nodes: Vec<ZoneId>) -> Result<Self, MemError> {
        if nodes.is_empty() {
            return Err(MemError::EmptyNodeSet);
        }
        Ok(Mempolicy::from_mode(PolicyMode::Bind { nodes }))
    }

    /// Creates a `PREFERRED` policy for `node`.
    pub fn preferred(node: ZoneId) -> Self {
        Mempolicy::from_mode(PolicyMode::Preferred { node })
    }

    /// Creates a policy directly from a mode.
    pub fn from_mode(mode: PolicyMode) -> Self {
        Mempolicy {
            mode,
            interleave_next: 0,
            rng: SplitMix64::new(Self::DEFAULT_SEED),
            migrate: None,
        }
    }

    /// Attaches online-migration tuning to this (base) policy.
    pub fn with_migrate(mut self, spec: MigrateSpec) -> Self {
        self.migrate = Some(spec);
        self
    }

    /// The online-migration tuning, when this is a `MIGRATE` policy.
    pub fn migrate_spec(&self) -> Option<&MigrateSpec> {
        self.migrate.as_ref()
    }

    /// Replaces the fast-path RNG seed (for independent experiment trials).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = SplitMix64::new(seed);
        self
    }

    /// The policy's mode.
    pub fn mode(&self) -> &PolicyMode {
        &self.mode
    }

    /// Whether zonelist fallback past the policy's chosen zones is allowed
    /// (everything except `BIND`).
    pub fn allows_fallback(&self) -> bool {
        !matches!(self.mode, PolicyMode::Bind { .. })
    }

    /// Computes the zone preference order for the *next* page allocation,
    /// advancing policy state (interleave cursor / RNG draw).
    ///
    /// The first element is the policy's pick; later elements are the
    /// capacity-exhaustion fallback order (latency order, as Linux builds
    /// zonelists from the SLIT). For `BIND` the list contains only the
    /// bound nodes.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchZone`] if the policy references a zone
    /// absent from `topo`.
    pub fn zonelist(&mut self, topo: &NumaTopology) -> Result<Vec<ZoneId>, MemError> {
        let check = |zone: ZoneId| -> Result<ZoneId, MemError> {
            if zone.index() < topo.num_zones() {
                Ok(zone)
            } else {
                Err(MemError::NoSuchZone { zone })
            }
        };
        match &self.mode {
            PolicyMode::Local => Ok(topo.zonelist()),
            PolicyMode::Preferred { node } => {
                let node = check(*node)?;
                Ok(Self::preferring(node, topo))
            }
            PolicyMode::Interleave { nodes } => {
                let pick = check(nodes[self.interleave_next % nodes.len()])?;
                self.interleave_next = (self.interleave_next + 1) % nodes.len();
                Ok(Self::preferring(pick, topo))
            }
            PolicyMode::BwAware { weights_per_mille } => {
                if weights_per_mille.len() != topo.num_zones() {
                    return Err(MemError::NoSuchZone {
                        zone: ZoneId::new(weights_per_mille.len().max(topo.num_zones()) - 1),
                    });
                }
                // The paper's fast path: one random draw, no history.
                let draw = self.rng.next_below(1000) as u32;
                let mut acc = 0u32;
                let mut pick = ZoneId::new(topo.num_zones() - 1);
                for (i, &w) in weights_per_mille.iter().enumerate() {
                    acc += w;
                    if draw < acc {
                        pick = ZoneId::new(i);
                        break;
                    }
                }
                Ok(Self::preferring(pick, topo))
            }
            PolicyMode::Bind { nodes } => {
                let mut list = Vec::with_capacity(nodes.len());
                for &n in nodes {
                    list.push(check(n)?);
                }
                Ok(list)
            }
        }
    }

    /// Zonelist that tries `pick` first, then the rest in SLIT order.
    fn preferring(pick: ZoneId, topo: &NumaTopology) -> Vec<ZoneId> {
        let mut list = Vec::with_capacity(topo.num_zones());
        list.push(pick);
        list.extend(topo.zonelist().into_iter().filter(|&z| z != pick));
        list
    }

    /// Parses a policy from the paper's nomenclature — the inverse of
    /// the simple [`Mempolicy::name`] forms, plus the explicit `xC-yB`
    /// ratio labels figure sweeps use. Accepted (case-insensitive):
    /// `LOCAL`, `INTERLEAVE`, `BW-AWARE` (SBIT weights from `topo`), and
    /// `xC-yB` with `x + y == 100` (e.g. `30C-70B`).
    ///
    /// This is how `hetmem-serve` turns a request's policy string into a
    /// concrete policy without clients ever naming zones.
    ///
    /// The online-migration engine is requested with `MIGRATE` (all
    /// defaults) or `MIGRATE:key=value,...` where pairs are separated
    /// by `,` or `+` (the latter survives comma-split CLI lists) and
    /// keys are `epoch`, `hot` (integer or `never`), `cold`, `batch`,
    /// `remap`, and `base` (any non-`MIGRATE` spec this function
    /// accepts; default `BW-AWARE`). Example:
    /// `MIGRATE:epoch=50000+hot=4+base=LOCAL`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidPolicySpec`] for a malformed
    /// `MIGRATE:` spec and [`MemError::EmptyNodeSet`] for anything else
    /// (the spec resolves to no usable node set).
    pub fn parse(spec: &str, topo: &NumaTopology) -> Result<Self, MemError> {
        let upper = spec.trim().to_ascii_uppercase();
        if upper == "MIGRATE" || upper.starts_with("MIGRATE:") {
            return Self::parse_migrate(spec.trim(), &upper, topo);
        }
        match upper.as_str() {
            "LOCAL" => return Ok(Mempolicy::local()),
            "INTERLEAVE" => return Ok(Mempolicy::interleave_all(topo)),
            "BW-AWARE" | "BWAWARE" | "BW" => return Ok(Mempolicy::bw_aware_for(topo)),
            _ => {}
        }
        // xC-yB ratio labels, e.g. "30C-70B".
        if let Some((co, bo)) = upper.split_once("C-") {
            if let (Ok(co), Some(bo)) = (co.parse::<u8>(), bo.strip_suffix('B')) {
                if let Ok(bo) = bo.parse::<u8>() {
                    if u32::from(co) + u32::from(bo) == 100 {
                        return Ok(Mempolicy::ratio_co(Percent::new(co)));
                    }
                }
            }
        }
        Err(MemError::EmptyNodeSet)
    }

    /// Parses the body of a `MIGRATE[:k=v...]` spec. `orig` is the
    /// trimmed original (for error messages), `upper` its uppercased
    /// form (what the grammar matches on).
    fn parse_migrate(orig: &str, upper: &str, topo: &NumaTopology) -> Result<Self, MemError> {
        let err = |reason: String| MemError::InvalidPolicySpec {
            spec: orig.to_string(),
            reason,
        };
        let int = |key: &str, val: &str| -> Result<u64, MemError> {
            val.parse::<u64>()
                .map_err(|_| err(format!("{key} wants an unsigned integer, got '{val}'")))
        };
        let mut ms = MigrateSpec::default();
        let mut base: Option<Mempolicy> = None;
        if let Some(body) = upper.strip_prefix("MIGRATE:") {
            if body.trim().is_empty() {
                return Err(err("empty parameter list after ':'".into()));
            }
            for pair in body.split(['+', ',']) {
                let pair = pair.trim();
                let Some((key, val)) = pair.split_once('=') else {
                    return Err(err(format!("'{pair}' is not a key=value pair")));
                };
                let (key, val) = (key.trim(), val.trim());
                match key {
                    "EPOCH" => {
                        ms.epoch_cycles = int("epoch", val)?;
                        if ms.epoch_cycles == 0 {
                            return Err(err("epoch must be positive".into()));
                        }
                    }
                    "HOT" => {
                        ms.hot_threshold = if val == "NEVER" {
                            u64::MAX
                        } else {
                            int("hot", val)?
                        };
                    }
                    "COLD" => ms.cold_threshold = int("cold", val)?,
                    "BATCH" => {
                        ms.batch_pages = int("batch", val)?;
                        if ms.batch_pages == 0 {
                            return Err(err("batch must be positive".into()));
                        }
                    }
                    "REMAP" => ms.remap_cycles = Some(int("remap", val)?),
                    "BASE" => {
                        if val.starts_with("MIGRATE") {
                            return Err(err("base policy cannot itself be MIGRATE".into()));
                        }
                        base = Some(Mempolicy::parse(val, topo).map_err(|_| {
                            err(format!(
                                "unknown base policy '{}'",
                                val.to_ascii_lowercase()
                            ))
                        })?);
                    }
                    other => {
                        return Err(err(format!("unknown key '{}'", other.to_ascii_lowercase())));
                    }
                }
            }
        }
        Ok(base
            .unwrap_or_else(|| Mempolicy::bw_aware_for(topo))
            .with_migrate(ms))
    }

    /// A short name in the paper's nomenclature, e.g. `LOCAL`,
    /// `INTERLEAVE`, `BW-AWARE(286/714)`, or for migration policies the
    /// canonical `MIGRATE(epoch=..,hot=..,cold=..,batch=..,base=..)`
    /// form (every knob spelled out, so equal configurations always
    /// produce equal labels).
    pub fn name(&self) -> String {
        let base = self.base_name();
        match &self.migrate {
            None => base,
            Some(m) => {
                let hot = if m.hot_threshold == u64::MAX {
                    "never".to_string()
                } else {
                    m.hot_threshold.to_string()
                };
                let remap = m
                    .remap_cycles
                    .map(|r| format!("remap={r},"))
                    .unwrap_or_default();
                format!(
                    "MIGRATE(epoch={},hot={hot},cold={},batch={},{remap}base={base})",
                    m.epoch_cycles, m.cold_threshold, m.batch_pages
                )
            }
        }
    }

    /// [`Mempolicy::name`] of the base placement mode, ignoring any
    /// attached migration tuning.
    pub fn base_name(&self) -> String {
        match &self.mode {
            PolicyMode::Local => "LOCAL".to_string(),
            PolicyMode::Interleave { .. } => "INTERLEAVE".to_string(),
            PolicyMode::BwAware { weights_per_mille } => {
                if weights_per_mille.len() == 2 {
                    // xC-yB with zone0 = BO, zone1 = CO.
                    format!(
                        "BW-AWARE({}C-{}B)",
                        (weights_per_mille[1] + 5) / 10,
                        (weights_per_mille[0] + 5) / 10
                    )
                } else {
                    format!("BW-AWARE{weights_per_mille:?}")
                }
            }
            PolicyMode::Bind { nodes } => format!("BIND{nodes:?}"),
            PolicyMode::Preferred { node } => format!("PREFERRED({node})"),
        }
    }
}

impl fmt::Display for Mempolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NumaTopology;

    fn topo() -> NumaTopology {
        NumaTopology::paper_baseline(1 << 14, 1 << 16)
    }

    #[test]
    fn parse_accepts_paper_nomenclature() {
        let t = topo();
        assert_eq!(Mempolicy::parse("LOCAL", &t).unwrap().name(), "LOCAL");
        assert_eq!(Mempolicy::parse("local", &t).unwrap().name(), "LOCAL");
        assert_eq!(
            Mempolicy::parse("interleave", &t).unwrap().name(),
            "INTERLEAVE"
        );
        assert_eq!(
            Mempolicy::parse("BW-AWARE", &t).unwrap().name(),
            Mempolicy::bw_aware_for(&t).name()
        );
        assert_eq!(
            Mempolicy::parse("30C-70B", &t).unwrap().name(),
            Mempolicy::ratio_co(Percent::new(30)).name()
        );
        assert_eq!(
            Mempolicy::parse(" 0c-100b ", &t).unwrap().name(),
            Mempolicy::ratio_co(Percent::new(0)).name()
        );
    }

    #[test]
    fn parse_rejects_garbage_and_bad_ratios() {
        let t = topo();
        for bad in ["", "oracle", "30C-60B", "130C--30B", "C-B", "30C-70"] {
            assert!(Mempolicy::parse(bad, &t).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_migrate_defaults_and_name_round_trip() {
        let t = topo();
        let p = Mempolicy::parse("MIGRATE", &t).unwrap();
        let spec = *p.migrate_spec().expect("migrate spec");
        assert_eq!(spec, MigrateSpec::default());
        assert_eq!(
            p.name(),
            format!(
                "MIGRATE(epoch=100000,hot=8,cold=0,batch=64,base={})",
                Mempolicy::bw_aware_for(&t).name()
            )
        );
        // The canonical name parses back to an equivalent policy.
        let again = Mempolicy::parse(&p.name(), &t);
        assert!(again.is_err(), "parens form is a label, not a spec");
    }

    #[test]
    fn parse_migrate_accepts_both_separators_and_base() {
        let t = topo();
        let comma = Mempolicy::parse("MIGRATE:epoch=50000,hot=4,base=LOCAL", &t).unwrap();
        let plus = Mempolicy::parse("migrate:epoch=50000+hot=4+base=local", &t).unwrap();
        assert_eq!(comma.name(), plus.name());
        assert_eq!(comma.base_name(), "LOCAL");
        let spec = comma.migrate_spec().unwrap();
        assert_eq!(spec.epoch_cycles, 50_000);
        assert_eq!(spec.hot_threshold, 4);

        let ratio = Mempolicy::parse("MIGRATE:base=30C-70B+cold=2+remap=900", &t).unwrap();
        let spec = ratio.migrate_spec().unwrap();
        assert_eq!(ratio.base_name(), "BW-AWARE(30C-70B)");
        assert_eq!(spec.cold_threshold, 2);
        assert_eq!(spec.remap_cycles, Some(900));

        let never = Mempolicy::parse("MIGRATE:hot=never", &t).unwrap();
        assert_eq!(never.migrate_spec().unwrap().hot_threshold, u64::MAX);
        assert!(never.name().contains("hot=never"));
    }

    #[test]
    fn parse_migrate_rejects_malformed_specs() {
        let t = topo();
        for bad in [
            "MIGRATE:",
            "MIGRATE:epoch",
            "MIGRATE:epoch=0",
            "MIGRATE:batch=0",
            "MIGRATE:hot=x",
            "MIGRATE:bogus=1",
            "MIGRATE:base=oracle",
            "MIGRATE:base=MIGRATE",
            "MIGRATE:epoch=100000,",
        ] {
            let got = Mempolicy::parse(bad, &t);
            assert!(
                matches!(got, Err(MemError::InvalidPolicySpec { .. })),
                "{bad:?} -> {got:?}"
            );
        }
        // Non-MIGRATE garbage keeps the historical error variant.
        assert_eq!(
            Mempolicy::parse("oracle", &t).unwrap_err(),
            MemError::EmptyNodeSet
        );
    }

    #[test]
    fn local_prefers_gpu_zone() {
        let t = topo();
        let mut p = Mempolicy::local();
        let zl = p.zonelist(&t).unwrap();
        assert_eq!(zl, vec![ZoneId::new(0), ZoneId::new(1)]);
    }

    #[test]
    fn interleave_alternates_exactly() {
        let t = topo();
        let mut p = Mempolicy::interleave_all(&t);
        let picks: Vec<ZoneId> = (0..6).map(|_| p.zonelist(&t).unwrap()[0]).collect();
        assert_eq!(
            picks,
            vec![
                ZoneId::new(0),
                ZoneId::new(1),
                ZoneId::new(0),
                ZoneId::new(1),
                ZoneId::new(0),
                ZoneId::new(1)
            ]
        );
    }

    #[test]
    fn bw_aware_converges_to_bandwidth_ratio() {
        let t = topo();
        let mut p = Mempolicy::bw_aware_for(&t);
        let n = 100_000;
        let bo_picks = (0..n)
            .filter(|_| p.zonelist(&t).unwrap()[0] == ZoneId::new(0))
            .count();
        let frac = bo_picks as f64 / n as f64;
        // Expect 200/280 = 0.714 within 1%.
        assert!((frac - 5.0 / 7.0).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn ratio_co_30_70_split() {
        let t = topo();
        let mut p = Mempolicy::ratio_co(Percent::new(30));
        let n = 100_000;
        let co_picks = (0..n)
            .filter(|_| p.zonelist(&t).unwrap()[0] == ZoneId::new(1))
            .count();
        let frac = co_picks as f64 / n as f64;
        assert!((frac - 0.30).abs() < 0.01, "got {frac}");
        assert_eq!(p.name(), "BW-AWARE(30C-70B)");
    }

    #[test]
    fn ratio_co_extremes_are_deterministic() {
        let t = topo();
        let mut all_bo = Mempolicy::ratio_co(Percent::new(0));
        let mut all_co = Mempolicy::ratio_co(Percent::new(100));
        for _ in 0..100 {
            assert_eq!(all_bo.zonelist(&t).unwrap()[0], ZoneId::new(0));
            assert_eq!(all_co.zonelist(&t).unwrap()[0], ZoneId::new(1));
        }
    }

    #[test]
    fn bind_restricts_fallback() {
        let t = topo();
        let mut p = Mempolicy::bind(vec![ZoneId::new(1)]).unwrap();
        assert!(!p.allows_fallback());
        assert_eq!(p.zonelist(&t).unwrap(), vec![ZoneId::new(1)]);
    }

    #[test]
    fn preferred_falls_back_by_latency() {
        let t = topo();
        let mut p = Mempolicy::preferred(ZoneId::new(1));
        assert_eq!(
            p.zonelist(&t).unwrap(),
            vec![ZoneId::new(1), ZoneId::new(0)]
        );
    }

    #[test]
    fn empty_node_sets_rejected() {
        assert_eq!(
            Mempolicy::interleave(vec![]).unwrap_err(),
            MemError::EmptyNodeSet
        );
        assert_eq!(Mempolicy::bind(vec![]).unwrap_err(), MemError::EmptyNodeSet);
    }

    #[test]
    fn unknown_zone_in_policy_errors() {
        let t = topo();
        let mut p = Mempolicy::preferred(ZoneId::new(9));
        assert!(matches!(p.zonelist(&t), Err(MemError::NoSuchZone { .. })));
    }

    #[test]
    fn with_seed_changes_draw_sequence() {
        let t = topo();
        let mut a = Mempolicy::bw_aware_for(&t).with_seed(1);
        let mut b = Mempolicy::bw_aware_for(&t).with_seed(2);
        let seq_a: Vec<_> = (0..64).map(|_| a.zonelist(&t).unwrap()[0]).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.zonelist(&t).unwrap()[0]).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn names_match_paper_nomenclature() {
        let t = topo();
        assert_eq!(Mempolicy::local().name(), "LOCAL");
        assert_eq!(Mempolicy::interleave_all(&t).name(), "INTERLEAVE");
        assert_eq!(
            Mempolicy::ratio_co(Percent::new(50)).name(),
            "BW-AWARE(50C-50B)"
        );
    }
}
