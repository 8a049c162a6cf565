//! Property-based tests for the `--faults` spec parser, which
//! `hetmem-serve`, `hetmem-fleet` and `hetmem-sweep` reach from the
//! command line, on the in-tree `hetmem_harness::props!` kit.
//!
//! The contracts under test: a parsed plan renders ([`FaultPlan`]'s
//! `Display`) to a canonical spec that parses back to the same plan —
//! the router hands its backends exactly that rendering — and the
//! parser answers truncated, garbled or arbitrary text with `Ok` or a
//! message, never a panic. A cut inside a key or right after its `=`,
//! any byte of a canonical spec replaced by a character no spec uses,
//! and a repeated key are each an `Err`; a cut at a pair boundary or
//! inside a number is a shorter valid spec, and whitespace around a key
//! or a value changes nothing.

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
/// `-`, `,`, `=` or whitespace (which pads keys and values).
const GARBLE: [char; 7] = ['#', '\0', ';', '~', '"', '/', '\u{fffd}'];

/// Whitespace the parser trims around keys and values.
const PADDING: [&str; 4] = ["", " ", "  ", "\t"];

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

    /// Padding every key and value of a spec with whitespace on either
    /// side parses to the same plan as the bare spec.
    fn padded_specs_parse_like_bare_ones(
        mask in any_u64(),
        rotate in 0usize..9,
        seed in any_u64(),
        probs in vec_of((0u64..4, 0.0f64..1.0), 7..8),
        ms in (0u64..3, 1u64..100_000),
        pads in vec_of(0usize..PADDING.len(), 36..37),
    ) {
        let spec = spec_from(mask, rotate, seed, &probs, ms);
        let mut pad = pads.iter().map(|&i| PADDING[i]);
        let mut next = || pad.next().expect("four pads per pair");
        let padded = spec
            .split(',')
            .filter(|pair| !pair.is_empty())
            .map(|pair| {
                let (key, value) = pair.split_once('=').expect("key=value");
                format!("{}{key}{}={}{value}{}", next(), next(), next(), next())
            })
            .collect::<Vec<_>>()
            .join(",");
        assert_eq!(FaultPlan::parse(&padded), Ok(plan_of(&spec)), "'{padded}'");
    }

    /// A spec that names any key twice is refused with a message naming
    /// that key, whatever the two values and wherever the repeat sits.
    fn repeated_keys_are_refused(
        mask in any_u64(),
        seed in any_u64(),
        probs in vec_of((0u64..4, 0.0f64..1.0), 7..8),
        ms in (0u64..3, 1u64..100_000),
        key in 0usize..KEYS.len(),
        at in 0usize..10,
        value in 0u64..2,
    ) {
        let spec = spec_from(mask, 0, seed, &probs, ms);
        let mut pairs: Vec<String> = spec
            .split(',')
            .filter(|pair| !pair.is_empty())
            .map(str::to_string)
            .collect();
        let name = KEYS[key];
        let extra = format!("{name}={value}");
        if !pairs.iter().any(|p| p.split('=').next() == Some(name)) {
            pairs.insert(at % (pairs.len() + 1), extra.clone());
        }
        pairs.insert(at % (pairs.len() + 1), extra);
        let repeated = pairs.join(",");
        let err = FaultPlan::parse(&repeated).expect_err(&repeated);
        assert!(err.contains(&format!("'{name}' is repeated")), "'{repeated}': {err}");
    }
}

#[test]
fn edge_whitespace_is_trimmed_and_repeats_are_refused() {
    let wire = FaultPlan::parse("wire=0.5").unwrap();
    for spec in [" wire=0.5 ", "wire= 0.5", "wire =0.5", "\twire = 0.5\t,"] {
        assert_eq!(FaultPlan::parse(spec), Ok(wire.clone()), "'{spec}'");
    }
    assert_eq!(
        FaultPlan::parse("panic=0.1,panic=0.9"),
        Err("fault spec key 'panic' is repeated".to_string())
    );
    assert_eq!(
        FaultPlan::parse("seed=1, seed =1"),
        Err("fault spec key 'seed' is repeated".to_string())
    );
    // A space inside a value is still not a number.
    assert!(FaultPlan::parse("wire=0. 5").is_err());
}
