//! Property-based tests for the `hetmem-serve` wire protocol, on the
//! in-tree `hetmem_harness::props!` kit.
//!
//! The properties the server relies on: every request/response
//! round-trips `encode -> decode` losslessly, re-encoding a decoded
//! line reproduces the original bytes (the result-cache byte-identity
//! guarantee), and the decoders never panic on arbitrary or truncated
//! input — they fail with a structured [`ProtocolError`].

use hetmem_harness::json::{quote, validate_jsonl, JsonValue};
use hetmem_harness::{batch_request, vec_of, Request, Response, PROTO_V2};

/// Characters the generators draw strings from: identifiers, JSON
/// syntax, every escape class the writer handles (quotes, backslashes,
/// control characters), and multi-byte UTF-8.
const PALETTE: &[char] = &[
    'a', 'z', 'A', 'Z', '0', '9', ' ', '_', '-', '.', '/', ':', ',', '"', '\\', '\n', '\r', '\t',
    '\u{8}', '\u{c}', '\u{1}', '\u{1f}', '{', '}', '[', ']', 'é', 'Ω', '—', '🦀',
];

fn text(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|&i| PALETTE[i % PALETTE.len()])
        .collect()
}

/// Index strings into [`PALETTE`]; `min_len >= 1` gives non-empty text.
fn arb_text(min_len: usize) -> hetmem_harness::prop::VecOf<std::ops::Range<usize>> {
    vec_of(0usize..PALETTE.len(), min_len..24)
}

type FieldDraw = (usize, Vec<usize>, u64, f64);

/// A params/result object with unique keys and mixed value types.
fn object_from(fields: Vec<FieldDraw>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .enumerate()
            .map(|(i, (kind, txt, n, x))| {
                let value = match kind % 4 {
                    0 => JsonValue::Str(text(&txt)),
                    1 => JsonValue::Num(n as f64),
                    2 => JsonValue::Num(x),
                    _ => JsonValue::Bool(n % 2 == 0),
                };
                // Index-prefixed keys: unique by construction, so
                // JsonValue equality is well-defined.
                (format!("k{i}_{}", text(&txt).len()), value)
            })
            .collect(),
    )
}

/// The generator of one [`FieldDraw`].
type FieldGen = (
    std::ops::Range<usize>,
    hetmem_harness::prop::VecOf<std::ops::Range<usize>>,
    std::ops::Range<u64>,
    std::ops::Range<f64>,
);

fn arb_fields() -> hetmem_harness::prop::VecOf<FieldGen> {
    // u64 values stay below 2^50: `as_u64` only accepts integers
    // below 2^53, each of which an f64 holds exactly.
    vec_of(
        (0usize..4, arb_text(0), 0u64..(1 << 50), 0.0f64..1.0e9),
        0..6,
    )
}

hetmem_harness::props! {
    cases = 64;

    /// Any request round-trips encode -> decode -> re-encode with
    /// identical struct and identical bytes.
    fn request_roundtrips(id in 0u64..(1 << 50), op in arb_text(1), fields in arb_fields()) {
        let req = Request::with_params(id, &text(&op), object_from(fields));
        let line = req.encode();
        let decoded = Request::decode(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(decoded, req);
        assert_eq!(decoded.encode(), line, "re-encode must be byte-stable");
        assert_eq!(validate_jsonl(&line), Ok(1));
    }

    /// Success responses round-trip and re-encode byte-identically —
    /// the property the result cache depends on.
    fn response_ok_roundtrips(id in 0u64..(1 << 50), fields in arb_fields()) {
        let resp = Response::ok(id, object_from(fields).render());
        let line = resp.encode();
        let decoded = Response::decode(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(decoded, resp);
        assert_eq!(decoded.encode(), line, "re-encode must be byte-stable");
        assert!(decoded.is_ok());
        assert_eq!(decoded.id(), id);
    }

    /// Error responses carry their code and message through unchanged.
    fn response_err_roundtrips(id in 0u64..(1 << 50), code in arb_text(1), msg in arb_text(0)) {
        let resp = Response::err(id, &text(&code), &text(&msg));
        let line = resp.encode();
        let decoded = Response::decode(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(decoded, resp);
        assert_eq!(decoded.encode(), line);
        assert!(!decoded.is_ok());
    }

    /// Arbitrary garbage never panics the decoders; it yields a
    /// structured error (or, rarely, a valid envelope) — never a crash.
    fn decode_survives_garbage(soup in arb_text(0)) {
        let line = text(&soup);
        if let Err(e) = Request::decode(&line) {
            assert!(matches!(e.code(), "bad-json" | "bad-request"));
        }
        if let Err(e) = Response::decode(&line) {
            assert!(matches!(e.code(), "bad-json" | "bad-request"));
        }
    }

    /// Truncating a valid request at any char boundary never panics the
    /// decoder; only the full line decodes back to the original.
    fn decode_survives_truncation(
        id in 0u64..(1 << 50),
        op in arb_text(1),
        fields in arb_fields(),
        at in 0usize..4096,
    ) {
        let req = Request::with_params(id, &text(&op), object_from(fields));
        let line = req.encode();
        let mut cut = at.min(line.len());
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        match Request::decode(&line[..cut]) {
            Ok(got) => assert_eq!(
                cut,
                line.len(),
                "a strict parser cannot accept a proper prefix, got {got:?}"
            ),
            Err(e) => assert!(matches!(e.code(), "bad-json" | "bad-request")),
        }
    }

    /// The protocol version field stays off the wire at its default:
    /// v1 requests encode without a `proto` key (byte compatibility
    /// with pre-v2 peers), every other version is carried explicitly,
    /// and both shapes round-trip byte-stably.
    fn proto_field_roundtrips(id in 0u64..(1 << 50), op in arb_text(1), proto in 0u64..16) {
        let req = Request::new(id, &text(&op)).proto(proto);
        let line = req.encode();
        assert_eq!(line.contains("\"proto\""), proto != 1, "{line}");
        let decoded = Request::decode(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(decoded, req);
        assert_eq!(decoded.encode(), line, "re-encode must be byte-stable");
    }

    /// Batch envelopes are plain v2 requests on the wire: they
    /// round-trip like any other line, and the sub-request array
    /// survives re-encoding with its length intact.
    fn batch_envelopes_roundtrip(id in 0u64..(1 << 50), n in 1usize..6, fields in arb_fields()) {
        let subs: Vec<Request> = (0..n as u64)
            .map(|i| Request::with_params(i + 1, "simulate", object_from(fields.clone())))
            .collect();
        let env = batch_request(id, &subs);
        let line = env.encode();
        let decoded = Request::decode(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(decoded, env);
        assert_eq!(decoded.encode(), line, "re-encode must be byte-stable");
        assert_eq!(decoded.proto, PROTO_V2);
        let arr = decoded.params.get("requests").and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("no requests array: {line}"));
        assert_eq!(arr.len(), n);
    }

    /// `json::quote` and the parser agree on every string the palette
    /// can produce (escapes, control chars, multi-byte UTF-8).
    fn quoted_strings_roundtrip(s in arb_text(0)) {
        let s = text(&s);
        let parsed = JsonValue::parse(&quote(&s)).unwrap();
        assert_eq!(parsed, JsonValue::Str(s));
    }
}
