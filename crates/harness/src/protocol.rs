//! The `hetmem-serve` wire protocol: one JSON object per line, in both
//! directions.
//!
//! A **request** names an operation and carries an opaque parameter
//! object; the `id` is echoed on the response so clients can pipeline:
//!
//! ```text
//! {"id":1,"op":"simulate","params":{"workload":"bfs","policy":"BW-AWARE"}}
//! ```
//!
//! A **response** is either a result or a structured error — never a
//! bare string, so clients can always branch on `ok` and machine-read
//! `error.code`:
//!
//! ```text
//! {"id":1,"ok":true,"result":{...}}
//! {"id":1,"ok":false,"error":{"code":"overloaded","message":"queue full"}}
//! ```
//!
//! Both directions round-trip through the strict in-tree JSON layer
//! ([`json`](crate::json)): encoding is byte-deterministic (a cached
//! `result` re-encodes to identical bytes) and decoding rejects
//! malformed lines with an offset-carrying error.
//!
//! ## Versioning and batching (protocol v2)
//!
//! The envelope carries an optional `proto` field (default `1`, omitted
//! on the wire at the default so v1 bytes are unchanged). Version 2
//! adds the `batch` op: `params.requests` holds an array of full
//! request envelopes, the result is `{"responses":[...]}` with one full
//! response object per sub-request, **in sub-request order**. Each
//! element encodes to exactly the bytes the bare single-request
//! response line would have, so a batch of one is byte-equivalent to an
//! unbatched call. Servers answer unknown major versions with the
//! stable `unsupported-protocol` code and oversized batches with
//! `batch-too-large`.

use crate::json::{JsonError, JsonObject, JsonValue};

/// The protocol version implied by an envelope with no `proto` field.
pub const PROTO_V1: u64 = 1;
/// The newest protocol version this crate speaks (adds `batch`).
pub const PROTO_V2: u64 = 2;

/// One decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// Protocol major version of this envelope. Defaults to
    /// [`PROTO_V1`] and is omitted from the wire at the default, so
    /// pre-versioning request bytes are unchanged. Version
    /// [`PROTO_V2`] unlocks the `batch` op; servers refuse anything
    /// they don't speak with the `unsupported-protocol` code.
    pub proto: u64,
    /// Operation name (e.g. `place`, `simulate`, `stats`, `shutdown`).
    pub op: String,
    /// Optional per-request deadline budget, milliseconds from the
    /// moment the server decodes the line. The server refuses to start
    /// work past the deadline and answers `deadline-exceeded`; work is
    /// cut cooperatively at grid-point boundaries, so an in-flight
    /// simulation point still runs to completion.
    pub deadline_ms: Option<u64>,
    /// Optional request-scoped trace id, echoed in error responses,
    /// success responses, and every server telemetry line touching this
    /// request — the join key between client retry logs and server-side
    /// records. Unlike `id` (a per-connection pipelining counter), a
    /// `request_id` is globally meaningful; the server generates one
    /// (`srv-N`) for telemetry when the client omits it, but only
    /// client-supplied ids are echoed on responses (so responses stay
    /// byte-identical for identical request lines).
    pub request_id: Option<String>,
    /// Opt-in per-request span logging: when set, the server emits
    /// `serve-span` telemetry lines covering every phase of this
    /// request, renderable onto a Chrome trace timeline
    /// (`hetmem-trace spans`).
    pub trace: bool,
    /// Operation parameters; `{}` when the line omits `params`.
    pub params: JsonValue,
}

impl Request {
    /// Builds a request with empty params and no deadline.
    pub fn new(id: u64, op: &str) -> Self {
        Request {
            id,
            proto: PROTO_V1,
            op: op.to_string(),
            deadline_ms: None,
            request_id: None,
            trace: false,
            params: JsonValue::Object(Vec::new()),
        }
    }

    /// Builds a request with the given params object and no deadline.
    pub fn with_params(id: u64, op: &str, params: JsonValue) -> Self {
        Request {
            params,
            ..Request::new(id, op)
        }
    }

    /// Sets the request's deadline budget in milliseconds.
    #[must_use]
    pub fn deadline(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the envelope's protocol major version.
    #[must_use]
    pub fn proto(mut self, version: u64) -> Self {
        self.proto = version;
        self
    }

    /// Sets the request-scoped trace id.
    #[must_use]
    pub fn request_id(mut self, rid: &str) -> Self {
        self.request_id = Some(rid.to_string());
        self
    }

    /// Enables per-request span logging.
    #[must_use]
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Encodes the request as one JSON line (no trailing newline).
    /// `request_id` and `trace` are emitted only when set, so requests
    /// that don't use them encode to the same bytes as before they
    /// existed.
    pub fn encode(&self) -> String {
        let mut obj = JsonObject::new().u64("id", self.id).str("op", &self.op);
        if self.proto != PROTO_V1 {
            obj = obj.u64("proto", self.proto);
        }
        if let Some(rid) = &self.request_id {
            obj = obj.str("request_id", rid);
        }
        if let Some(ms) = self.deadline_ms {
            obj = obj.u64("deadline_ms", ms);
        }
        if self.trace {
            obj = obj.bool("trace", true);
        }
        obj.raw("params", &self.params.render()).finish()
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadJson`] when the line is not valid JSON,
    /// [`ProtocolError::BadRequest`] when it is JSON but not a valid
    /// request envelope (missing/ill-typed `id` or `op`).
    pub fn decode(line: &str) -> Result<Request, ProtocolError> {
        let v = JsonValue::parse(line).map_err(ProtocolError::BadJson)?;
        Request::from_value(&v)
    }

    /// Decodes a request envelope from an already-parsed JSON value —
    /// the same validation as [`Request::decode`], used for the
    /// elements of a `batch` op's `requests` array.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadRequest`] when the value is not a valid
    /// request envelope.
    pub fn from_value(v: &JsonValue) -> Result<Request, ProtocolError> {
        let id = v
            .get("id")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ProtocolError::bad_request("missing or non-integer 'id'"))?;
        let op = v
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ProtocolError::bad_request("missing or non-string 'op'"))?
            .to_string();
        if op.is_empty() {
            return Err(ProtocolError::bad_request("empty 'op'"));
        }
        let proto = match v.get("proto") {
            None => PROTO_V1,
            Some(p) => p.as_u64().ok_or_else(|| {
                ProtocolError::bad_request("'proto' must be a non-negative integer")
            })?,
        };
        let deadline_ms = match v.get("deadline_ms") {
            None => None,
            Some(d) => Some(d.as_u64().ok_or_else(|| {
                ProtocolError::bad_request("'deadline_ms' must be a non-negative integer")
            })?),
        };
        let request_id = match v.get("request_id") {
            None => None,
            Some(r) => {
                let rid = r
                    .as_str()
                    .ok_or_else(|| ProtocolError::bad_request("'request_id' must be a string"))?;
                if rid.is_empty() {
                    return Err(ProtocolError::bad_request("'request_id' must be non-empty"));
                }
                Some(rid.to_string())
            }
        };
        let trace = match v.get("trace") {
            None => false,
            Some(t) => t
                .as_bool()
                .ok_or_else(|| ProtocolError::bad_request("'trace' must be a boolean"))?,
        };
        let params = match v.get("params") {
            Some(JsonValue::Object(fields)) => JsonValue::Object(fields.clone()),
            None => JsonValue::Object(Vec::new()),
            Some(_) => return Err(ProtocolError::bad_request("'params' must be an object")),
        };
        Ok(Request {
            id,
            proto,
            op,
            deadline_ms,
            request_id,
            trace,
            params,
        })
    }
}

/// Wraps sub-requests into one protocol-v2 `batch` envelope. The
/// server dispatches each sub-request as if it had arrived on its own
/// line and answers with `{"responses":[...]}` in sub-request order.
pub fn batch_request(id: u64, subs: &[Request]) -> Request {
    let requests: Vec<JsonValue> = subs
        .iter()
        .map(|sub| JsonValue::parse(&sub.encode()).expect("request encoding is valid JSON"))
        .collect();
    Request::with_params(
        id,
        "batch",
        JsonValue::Object(vec![("requests".to_string(), JsonValue::Array(requests))]),
    )
    .proto(PROTO_V2)
}

/// One response line: a result or a structured error.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success; `result` is a pre-serialized JSON value.
    Ok {
        /// Echoed request id.
        id: u64,
        /// Echoed client-supplied trace id (never server-generated, so
        /// identical request lines keep byte-identical responses).
        request_id: Option<String>,
        /// The result body, already serialized (often straight from the
        /// result cache, so bytes are stable).
        result: String,
    },
    /// Failure with a machine-readable code.
    Err {
        /// Echoed request id (0 when the request never parsed).
        id: u64,
        /// Echoed client-supplied trace id, so retry logs can be joined
        /// against server-side telemetry.
        request_id: Option<String>,
        /// Stable error code (e.g. `overloaded`, `unknown-workload`).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Builds a success response from a pre-serialized result.
    pub fn ok(id: u64, result: String) -> Self {
        Response::Ok {
            id,
            request_id: None,
            result,
        }
    }

    /// Builds an error response.
    pub fn err(id: u64, code: &str, message: &str) -> Self {
        Response::Err {
            id,
            request_id: None,
            code: code.to_string(),
            message: message.to_string(),
        }
    }

    /// Attaches (or clears) the echoed trace id.
    #[must_use]
    pub fn with_request_id(mut self, rid: Option<String>) -> Self {
        match &mut self {
            Response::Ok { request_id, .. } | Response::Err { request_id, .. } => {
                *request_id = rid;
            }
        }
        self
    }

    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Ok { id, .. } | Response::Err { id, .. } => *id,
        }
    }

    /// The echoed trace id, if the request carried one.
    pub fn request_id(&self) -> Option<&str> {
        match self {
            Response::Ok { request_id, .. } | Response::Err { request_id, .. } => {
                request_id.as_deref()
            }
        }
    }

    /// Whether this is a success response.
    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Ok { .. })
    }

    /// Encodes the response as one JSON line (no trailing newline).
    /// `request_id` is emitted only when present, keeping responses to
    /// id-less requests byte-identical to the pre-`request_id` wire
    /// format.
    pub fn encode(&self) -> String {
        match self {
            Response::Ok {
                id,
                request_id,
                result,
            } => {
                let mut obj = JsonObject::new().u64("id", *id).bool("ok", true);
                if let Some(rid) = request_id {
                    obj = obj.str("request_id", rid);
                }
                obj.raw("result", result).finish()
            }
            Response::Err {
                id,
                request_id,
                code,
                message,
            } => {
                let mut obj = JsonObject::new().u64("id", *id).bool("ok", false);
                if let Some(rid) = request_id {
                    obj = obj.str("request_id", rid);
                }
                obj.raw(
                    "error",
                    &JsonObject::new()
                        .str("code", code)
                        .str("message", message)
                        .finish(),
                )
                .finish()
            }
        }
    }

    /// Decodes one response line.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadJson`] for malformed JSON,
    /// [`ProtocolError::BadRequest`] for a JSON value that is not a
    /// valid response envelope.
    pub fn decode(line: &str) -> Result<Response, ProtocolError> {
        let v = JsonValue::parse(line).map_err(ProtocolError::BadJson)?;
        Response::from_value(&v)
    }

    /// Decodes a response envelope from an already-parsed JSON value —
    /// used for the elements of a batch result's `responses` array.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadRequest`] when the value is not a valid
    /// response envelope.
    pub fn from_value(v: &JsonValue) -> Result<Response, ProtocolError> {
        let id = v
            .get("id")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ProtocolError::bad_request("missing or non-integer 'id'"))?;
        let request_id = match v.get("request_id") {
            None => None,
            Some(r) => Some(
                r.as_str()
                    .ok_or_else(|| ProtocolError::bad_request("'request_id' must be a string"))?
                    .to_string(),
            ),
        };
        match v.get("ok").and_then(JsonValue::as_bool) {
            Some(true) => {
                let result = v
                    .get("result")
                    .ok_or_else(|| ProtocolError::bad_request("ok response without 'result'"))?;
                Ok(Response::Ok {
                    id,
                    request_id,
                    result: result.render(),
                })
            }
            Some(false) => {
                let error = v
                    .get("error")
                    .ok_or_else(|| ProtocolError::bad_request("err response without 'error'"))?;
                let code = error
                    .get("code")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| ProtocolError::bad_request("error without 'code'"))?;
                let message = error
                    .get("message")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("");
                Ok(Response::err(id, code, message).with_request_id(request_id))
            }
            None => Err(ProtocolError::bad_request("missing or non-boolean 'ok'")),
        }
    }

    /// Splits a successful `batch` response into its per-sub-request
    /// responses, in sub-request order.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadRequest`] when this response is an error
    /// envelope or its result does not carry a `responses` array of
    /// valid response objects.
    pub fn batch_responses(&self) -> Result<Vec<Response>, ProtocolError> {
        let result = match self {
            Response::Ok { result, .. } => result,
            Response::Err { code, .. } => {
                return Err(ProtocolError::BadRequest(format!(
                    "batch failed as a whole: {code}"
                )))
            }
        };
        let v = JsonValue::parse(result).map_err(ProtocolError::BadJson)?;
        let items = v
            .get("responses")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| ProtocolError::bad_request("batch result without 'responses' array"))?;
        items.iter().map(Response::from_value).collect()
    }
}

/// A protocol-layer decode failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The line was not valid JSON.
    BadJson(JsonError),
    /// The line was JSON but not a valid envelope.
    BadRequest(String),
}

impl ProtocolError {
    fn bad_request(message: &str) -> Self {
        ProtocolError::BadRequest(message.to_string())
    }

    /// The stable error code for a structured error response.
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::BadJson(_) => "bad-json",
            ProtocolError::BadRequest(_) => "bad-request",
        }
    }
}

impl core::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtocolError::BadJson(e) => write!(f, "malformed json: {e}"),
            ProtocolError::BadRequest(m) => write!(f, "bad request: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::BadJson(e) => Some(e),
            ProtocolError::BadRequest(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let params = JsonValue::parse(r#"{"workload":"bfs","capacity_pct":10}"#).unwrap();
        let req = Request::with_params(7, "simulate", params);
        let line = req.encode();
        assert_eq!(
            line,
            r#"{"id":7,"op":"simulate","params":{"workload":"bfs","capacity_pct":10}}"#
        );
        assert_eq!(Request::decode(&line).unwrap(), req);
    }

    #[test]
    fn request_params_default_to_empty() {
        let req = Request::decode(r#"{"id":1,"op":"stats"}"#).unwrap();
        assert_eq!(req.params, JsonValue::Object(Vec::new()));
        assert_eq!(req.encode(), r#"{"id":1,"op":"stats","params":{}}"#);
    }

    #[test]
    fn request_deadline_roundtrips_and_is_optional() {
        let req = Request::new(5, "simulate").deadline(1500);
        let line = req.encode();
        assert_eq!(
            line,
            r#"{"id":5,"op":"simulate","deadline_ms":1500,"params":{}}"#
        );
        assert_eq!(Request::decode(&line).unwrap(), req);
        assert_eq!(Request::decode(&line).unwrap().deadline_ms, Some(1500));
        // Absent deadline stays absent.
        let plain = Request::decode(r#"{"id":1,"op":"stats"}"#).unwrap();
        assert_eq!(plain.deadline_ms, None);
        assert!(!plain.encode().contains("deadline_ms"));
    }

    #[test]
    fn request_id_and_trace_roundtrip() {
        let req = Request::new(9, "simulate").request_id("cli-42").trace();
        let line = req.encode();
        assert_eq!(
            line,
            r#"{"id":9,"op":"simulate","request_id":"cli-42","trace":true,"params":{}}"#
        );
        assert_eq!(Request::decode(&line).unwrap(), req);
        // Absent fields stay absent — old wire bytes are unchanged.
        let plain = Request::new(1, "stats");
        assert_eq!(plain.encode(), r#"{"id":1,"op":"stats","params":{}}"#);
        let decoded = Request::decode(&plain.encode()).unwrap();
        assert_eq!(decoded.request_id, None);
        assert!(!decoded.trace);
    }

    #[test]
    fn response_echoes_request_id_only_when_present() {
        let ok = Response::ok(2, "{}".to_string()).with_request_id(Some("cli-42".into()));
        assert_eq!(
            ok.encode(),
            r#"{"id":2,"ok":true,"request_id":"cli-42","result":{}}"#
        );
        assert_eq!(Response::decode(&ok.encode()).unwrap(), ok);
        assert_eq!(ok.request_id(), Some("cli-42"));

        let err =
            Response::err(3, "overloaded", "queue full").with_request_id(Some("cli-43".into()));
        assert_eq!(
            err.encode(),
            r#"{"id":3,"ok":false,"request_id":"cli-43","error":{"code":"overloaded","message":"queue full"}}"#
        );
        assert_eq!(Response::decode(&err.encode()).unwrap(), err);

        // Without an id the wire format is exactly the old one.
        let bare = Response::ok(2, "{}".to_string());
        assert_eq!(bare.encode(), r#"{"id":2,"ok":true,"result":{}}"#);
        assert_eq!(bare.request_id(), None);
    }

    #[test]
    fn request_rejects_bad_envelopes() {
        assert!(matches!(
            Request::decode("not json"),
            Err(ProtocolError::BadJson(_))
        ));
        for bad in [
            r#"{"op":"x"}"#,
            r#"{"id":"one","op":"x"}"#,
            r#"{"id":1}"#,
            r#"{"id":1,"op":""}"#,
            r#"{"id":1,"op":"x","params":[1]}"#,
            r#"{"id":1,"op":"x","deadline_ms":"soon"}"#,
            r#"{"id":1,"op":"x","deadline_ms":-5}"#,
            r#"{"id":1,"op":"x","request_id":7}"#,
            r#"{"id":1,"op":"x","request_id":""}"#,
            r#"{"id":1,"op":"x","trace":"yes"}"#,
        ] {
            assert!(
                matches!(Request::decode(bad), Err(ProtocolError::BadRequest(_))),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn response_roundtrip_ok_and_err() {
        let ok = Response::ok(3, r#"{"cycles":100}"#.to_string());
        assert_eq!(ok.encode(), r#"{"id":3,"ok":true,"result":{"cycles":100}}"#);
        assert_eq!(Response::decode(&ok.encode()).unwrap(), ok);
        assert!(ok.is_ok());

        let err = Response::err(4, "overloaded", "queue full");
        assert_eq!(
            err.encode(),
            r#"{"id":4,"ok":false,"error":{"code":"overloaded","message":"queue full"}}"#
        );
        assert_eq!(Response::decode(&err.encode()).unwrap(), err);
        assert!(!err.is_ok());
        assert_eq!(err.id(), 4);
    }

    #[test]
    fn response_rejects_bad_envelopes() {
        for bad in [
            r#"{"id":1}"#,
            r#"{"id":1,"ok":true}"#,
            r#"{"id":1,"ok":false}"#,
            r#"{"id":1,"ok":false,"error":{}}"#,
        ] {
            assert!(Response::decode(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn proto_defaults_to_v1_and_is_omitted_on_the_wire() {
        let plain = Request::new(1, "stats");
        assert_eq!(plain.proto, PROTO_V1);
        assert_eq!(plain.encode(), r#"{"id":1,"op":"stats","params":{}}"#);
        assert_eq!(Request::decode(&plain.encode()).unwrap().proto, PROTO_V1);

        let v2 = Request::new(2, "stats").proto(PROTO_V2);
        assert_eq!(
            v2.encode(),
            r#"{"id":2,"op":"stats","proto":2,"params":{}}"#
        );
        assert_eq!(Request::decode(&v2.encode()).unwrap(), v2);

        // Any non-negative integer decodes; acceptance is the server's
        // call (it answers `unsupported-protocol`).
        let future = Request::decode(r#"{"id":3,"op":"stats","proto":9}"#).unwrap();
        assert_eq!(future.proto, 9);
        for bad in [
            r#"{"id":1,"op":"x","proto":"two"}"#,
            r#"{"id":1,"op":"x","proto":-1}"#,
            r#"{"id":1,"op":"x","proto":1.5}"#,
        ] {
            assert!(
                matches!(Request::decode(bad), Err(ProtocolError::BadRequest(_))),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn batch_request_wraps_subs_verbatim_and_in_order() {
        let subs = [
            Request::new(1, "stats"),
            Request::with_params(
                2,
                "simulate",
                JsonValue::parse(r#"{"workload":"bfs"}"#).unwrap(),
            )
            .deadline(500)
            .request_id("cli-7"),
        ];
        let batch = batch_request(40, &subs);
        assert_eq!(batch.op, "batch");
        assert_eq!(batch.proto, PROTO_V2);
        let line = batch.encode();
        assert_eq!(
            line,
            concat!(
                r#"{"id":40,"op":"batch","proto":2,"params":{"requests":["#,
                r#"{"id":1,"op":"stats","params":{}},"#,
                r#"{"id":2,"op":"simulate","request_id":"cli-7","deadline_ms":500,"params":{"workload":"bfs"}}"#,
                r#"]}}"#
            )
        );
        // The embedded envelopes decode back to the originals.
        let decoded = Request::decode(&line).unwrap();
        let items = decoded.params.get("requests").unwrap().as_array().unwrap();
        for (item, sub) in items.iter().zip(&subs) {
            assert_eq!(&Request::from_value(item).unwrap(), sub);
        }
    }

    #[test]
    fn batch_responses_split_in_order_and_reject_whole_batch_errors() {
        let body = concat!(
            r#"{"responses":["#,
            r#"{"id":1,"ok":true,"result":{"cycles":9}},"#,
            r#"{"id":2,"ok":false,"error":{"code":"overloaded","message":"queue full"}}"#,
            r#"]}"#
        );
        let resp = Response::ok(40, body.to_string());
        let subs = resp.batch_responses().unwrap();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0], Response::ok(1, r#"{"cycles":9}"#.to_string()));
        assert_eq!(subs[1], Response::err(2, "overloaded", "queue full"));

        let whole = Response::err(40, "batch-too-large", "too many");
        assert!(whole.batch_responses().is_err());
        let not_batch = Response::ok(40, "{}".to_string());
        assert!(not_batch.batch_responses().is_err());
    }
}
