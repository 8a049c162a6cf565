//! Property-based tests for the `--faults` spec parser, which
//! `hetmem-serve`, `hetmem-fleet` and `hetmem-sweep` reach from the
//! command line, on the in-tree `hetmem_harness::props!` kit.
//!
//! The contracts under test: a parsed plan renders ([`FaultPlan`]'s
//! `Display`) to a canonical spec that parses back to the same plan —
//! the router hands its backends exactly that rendering — and the
//! parser answers truncated, garbled or arbitrary text with `Ok` or a
//! message, never a panic. A cut inside a key or right after its `=`,
//! and any byte of a canonical spec replaced by a character no spec
//! uses, is an `Err`; a cut at a pair boundary or inside a number is
//! a shorter valid spec.

use hetmem_harness::{any_u64, vec_of, FaultPlan};

/// [`FaultPlan::parse`]'s keys, in its canonical order.
const KEYS: [&str; 9] = [
    "seed",
    "panic",
    "latency",
    "latency-ms",
    "wire",
    "corrupt",
    "conn-drop",
    "stall",
    "refuse",
];

/// Characters no spec contains: none is a digit, a letter, `.`, `+`,
/// `-`, `,` or `=`.
const GARBLE: [char; 8] = ['#', ' ', '\0', ';', '~', '"', '/', '\u{fffd}'];

/// A spec over the keys `mask` selects, starting at key `rotate` and
/// wrapping: probabilities written as `0`, `1`, a full-precision draw
/// or a three-decimal one (`kinds`/`draws`), and a `latency-ms` that is
/// 0 for `ms_kind` 0 (a latency probability then gets the 20 ms
/// default bound).
fn spec_from(
    mask: u64,
    rotate: usize,
    seed: u64,
    probs: &[(u64, f64)],
    (ms_kind, ms): (u64, u64),
) -> String {
    let mut probs = probs.iter().map(|&(kind, x)| match kind {
        0 => "0".to_string(),
        1 => "1".to_string(),
        2 => x.to_string(),
        _ => format!("{x:.3}"),
    });
    let values: Vec<String> = KEYS
        .iter()
        .map(|&key| match key {
            "seed" => seed.to_string(),
            "latency-ms" => (if ms_kind == 0 { 0 } else { ms }).to_string(),
            _ => probs.next().expect("seven probabilities"),
        })
        .collect();
    (0..KEYS.len())
        .map(|i| (i + rotate) % KEYS.len())
        .filter(|&i| mask >> i & 1 == 1)
        .map(|i| format!("{}={}", KEYS[i], values[i]))
        .collect::<Vec<_>>()
        .join(",")
}

/// The plan `spec` parses to, which must parse.
fn plan_of(spec: &str) -> FaultPlan {
    FaultPlan::parse(spec).unwrap_or_else(|e| panic!("'{spec}' must parse: {e}"))
}

hetmem_harness::props! {
    cases = 256;

    /// `parse(&plan.to_string()) == Ok(plan)` for every parsed plan,
    /// and the rendering is a fixed point.
    fn rendered_plans_parse_back(
        mask in any_u64(),
        rotate in 0usize..9,
        seed in any_u64(),
        probs in vec_of((0u64..4, 0.0f64..1.0), 7..8),
        ms in (0u64..3, 1u64..100_000),
    ) {
        let spec = spec_from(mask, rotate, seed, &probs, ms);
        let plan = plan_of(&spec);
        let text = plan.to_string();
        assert_eq!(FaultPlan::parse(&text), Ok(plan.clone()), "'{spec}' rendered '{text}'");
        assert_eq!(plan_of(&text).to_string(), text);
        if plan.latency_prob > 0.0 {
            let bound_given = mask >> 3 & 1 == 1 && ms.0 != 0;
            assert_eq!(plan.latency_ms == 20, !bound_given || ms.1 == 20, "'{spec}'");
        }
    }

    /// Every prefix of a canonical spec parses without a panic; a cut
    /// inside a key or right after its `=` is refused, and any prefix
    /// that parses renders and parses back like a whole spec.
    fn truncated_specs_fail_cleanly(
        mask in any_u64(),
        seed in any_u64(),
        probs in vec_of((0u64..4, 0.0f64..1.0), 7..8),
        ms in (0u64..3, 1u64..100_000),
    ) {
        let text = plan_of(&spec_from(mask, 0, seed, &probs, ms)).to_string();
        for cut in 0..=text.len() {
            let prefix = &text[..cut];
            let last = prefix.rsplit(',').next().unwrap_or("");
            match FaultPlan::parse(prefix) {
                Ok(plan) => {
                    let cut_pair = !last.is_empty() && (!last.contains('=') || last.ends_with('='));
                    assert!(!cut_pair, "accepted the cut pair '{last}' of '{text}'");
                    assert_eq!(FaultPlan::parse(&plan.to_string()), Ok(plan));
                }
                Err(e) => assert!(!e.is_empty()),
            }
        }
    }

    /// Replacing any one character of a canonical spec with one no spec
    /// uses is refused, and arbitrary bytes never panic the parser.
    fn garbled_specs_are_refused(
        mask in any_u64(),
        seed in any_u64(),
        probs in vec_of((0u64..4, 0.0f64..1.0), 7..8),
        ms in (0u64..3, 1u64..100_000),
        garble in 0usize..GARBLE.len(),
        bytes in vec_of(0u8..=255, 0..48),
    ) {
        let text = plan_of(&spec_from(mask, 0, seed, &probs, ms)).to_string();
        for at in 0..text.len() {
            let garbled: String = text
                .chars()
                .enumerate()
                .map(|(i, c)| if i == at { GARBLE[garble] } else { c })
                .collect();
            assert!(FaultPlan::parse(&garbled).is_err(), "accepted '{garbled}'");
        }
        let _ = FaultPlan::parse(&String::from_utf8_lossy(&bytes));
    }
}
