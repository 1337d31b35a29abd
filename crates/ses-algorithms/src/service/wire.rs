//! Versioned JSON-lines wire codec for the service protocol.
//!
//! One request or response per line, wrapped in a tiny version envelope:
//!
//! ```text
//! {"v":1,"req":{"Schedule":{"algorithm":"INC","k":5,"threads":null,"gate":false,"profile":false}}}
//! {"v":1,"resp":{"Scheduled":{"algorithm":"INC","k":5,...}}}
//! ```
//!
//! The payload under `req`/`resp` is the externally-tagged serde encoding
//! of [`Request`]/[`Response`]. Rules:
//!
//! * Every line **must** carry `"v"`; a missing or non-integer version is
//!   a [`ServiceError::Protocol`] error, a version other than
//!   [`VERSION`] is [`ServiceError::UnsupportedVersion`] — so a v2 client
//!   gets a precise rejection instead of a field-level parse error.
//! * Encoding is deterministic: object keys keep declaration order and
//!   floats print in Rust's shortest round-trip form, so equal values
//!   encode to equal bytes (the golden-transcript tests byte-compare whole
//!   response logs).
//! * Decoding ignores unknown envelope keys (forward-compatible padding)
//!   but is strict about the payload shape.

use super::{Request, Response};
use serde::{Deserialize, Serialize, Value};
use ses_core::error::{ServiceError, SERVICE_PROTOCOL_VERSION};

/// The protocol version this build speaks.
pub const VERSION: u64 = SERVICE_PROTOCOL_VERSION;

/// Hard ceiling on JSON nesting depth accepted on the wire. The parser's
/// recursion is bounded by input depth, so a pathological `[[[[…` line
/// must be rejected by a flat pre-scan before parsing ever starts —
/// answering a protocol error instead of overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Flat single-pass depth check: counts `{`/`[` nesting outside string
/// literals (escape-aware). Runs in O(len) with no allocation.
fn depth_guard(line: &str) -> Result<(), ServiceError> {
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for b in line.bytes() {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => {
                depth += 1;
                if depth > MAX_DEPTH {
                    return Err(ServiceError::protocol(format!(
                        "JSON nesting deeper than {MAX_DEPTH} levels"
                    )));
                }
            }
            b'}' | b']' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    Ok(())
}

/// Ordered-object key lookup.
fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Wraps a payload in the `{"v":VERSION, <key>: payload}` envelope.
fn encode(key: &str, payload: Value) -> String {
    let envelope =
        Value::Object(vec![("v".to_string(), Value::UInt(VERSION)), (key.to_string(), payload)]);
    serde_json::to_string(&envelope).expect("wire payloads contain only finite floats")
}

/// Unwraps the `{"v":VERSION, <key>: payload}` envelope — depth guard,
/// parse, object and version checks — and moves the payload out of the
/// parsed tree (no clone — `ApplyOps` batches can carry full per-user
/// interest vectors). Returns the payload and the envelope's other keys,
/// which callers read or ignore (unknown keys are padding by rule).
fn decode(line: &str, key: &str) -> Result<(Value, Vec<(String, Value)>), ServiceError> {
    depth_guard(line)?;
    let value: Value =
        serde_json::from_str(line).map_err(|e| ServiceError::protocol(e.to_string()))?;
    let Value::Object(mut obj) = value else {
        return Err(ServiceError::protocol("envelope must be a JSON object"));
    };
    let v = get(&obj, "v").ok_or_else(|| ServiceError::protocol("missing version field \"v\""))?;
    let got = v
        .as_u64()
        .ok_or_else(|| ServiceError::protocol("version field \"v\" must be an integer"))?;
    if got != VERSION {
        return Err(ServiceError::UnsupportedVersion { got, supported: VERSION });
    }
    let idx = obj
        .iter()
        .position(|(k, _)| k == key)
        .ok_or_else(|| ServiceError::protocol(format!("missing payload field \"{key}\"")))?;
    let payload = obj.swap_remove(idx).1;
    Ok((payload, obj))
}

/// Encodes one request line.
pub fn encode_request(req: &Request) -> String {
    encode("req", req.to_value())
}

/// Encodes one request line addressed to a named session: the same
/// envelope as [`encode_request`] plus a `"session"` key. Stdio servers
/// (which pre-date the field) decode it unchanged — unknown envelope keys
/// are forward-compatible padding by rule.
pub fn encode_request_for(session: &str, req: &Request) -> String {
    let envelope = Value::Object(vec![
        ("v".to_string(), Value::UInt(VERSION)),
        ("session".to_string(), Value::String(session.to_string())),
        ("req".to_string(), req.to_value()),
    ]);
    serde_json::to_string(&envelope).expect("wire payloads contain only finite floats")
}

/// Decodes one request line.
///
/// # Errors
/// [`ServiceError::Protocol`] for malformed lines,
/// [`ServiceError::UnsupportedVersion`] for a version mismatch.
pub fn decode_request(line: &str) -> Result<Request, ServiceError> {
    let (payload, _) = decode(line, "req")?;
    Request::from_value(&payload).map_err(|e| ServiceError::protocol(e.to_string()))
}

/// Decodes one request line together with the optional `"session"`
/// envelope field — the address a multi-session server routes on. A line
/// without the field is exactly the v1 stdio shape and comes back as
/// `None` (the connection's default session), which is what lets v1
/// transcripts replay byte-identically against a networked server.
///
/// # Errors
/// As [`decode_request`]; additionally [`ServiceError::Protocol`] when
/// `"session"` is present but not a string.
pub fn decode_request_routed(line: &str) -> Result<(Request, Option<String>), ServiceError> {
    let (payload, rest) = decode(line, "req")?;
    let session = match get(&rest, "session") {
        None => None,
        Some(Value::String(s)) => Some(s.clone()),
        Some(_) => {
            return Err(ServiceError::protocol("envelope field \"session\" must be a string"))
        }
    };
    let req = Request::from_value(&payload).map_err(|e| ServiceError::protocol(e.to_string()))?;
    Ok((req, session))
}

/// Encodes one response line.
pub fn encode_response(resp: &Response) -> String {
    encode("resp", resp.to_value())
}

/// Decodes one response line.
///
/// # Errors
/// [`ServiceError::Protocol`] for malformed lines,
/// [`ServiceError::UnsupportedVersion`] for a version mismatch.
pub fn decode_response(line: &str) -> Result<Response, ServiceError> {
    let (payload, _) = decode(line, "resp")?;
    Response::from_value(&payload).map_err(|e| ServiceError::protocol(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Query;
    use ses_core::delta::DeltaOp;
    use ses_core::stats::Stats;
    use ses_core::EventId;

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Schedule {
                algorithm: "INC".into(),
                k: 5,
                threads: Some(4),
                gate: true,
                profile: false,
                constraints: None,
            },
            Request::Schedule {
                algorithm: "ALG".into(),
                k: 3,
                threads: None,
                gate: false,
                profile: false,
                constraints: Some({
                    let mut cs = ses_core::constraints::ConstraintSet::new();
                    cs.set_venue_capacity(ses_core::LocationId::new(0), 2);
                    cs.add_conflict(EventId::new(0), EventId::new(1));
                    cs.add_precedence(EventId::new(1), EventId::new(2));
                    cs
                }),
            },
            Request::ApplyOps {
                ops: vec![DeltaOp::ShiftInterest {
                    event: EventId::new(1),
                    user: 0,
                    interest: 0.25,
                }],
                window: None,
            },
            Request::ApplyOps {
                ops: vec![DeltaOp::RemoveEvent { event: EventId::new(3) }],
                window: Some(16),
            },
            Request::Repair { k: 3, threads: None, gate: false },
            Request::Query { query: Query::Event { event: 2 } },
            Request::Snapshot,
            Request::Reset,
        ];
        for req in reqs {
            let line = encode_request(&req);
            assert!(line.starts_with("{\"v\":1,"), "{line}");
            assert!(!line.contains('\n'));
            assert_eq!(decode_request(&line).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Scheduled {
                algorithm: "HOR".into(),
                k: 2,
                utility: 1.5,
                assignments: vec![],
                stats: Stats::new(),
            },
            Response::ResetDone,
            Response::Error { code: "delta".into(), message: "op 3: bad".into() },
        ];
        for resp in resps {
            let line = encode_response(&resp);
            assert_eq!(decode_response(&line).unwrap(), resp);
        }
    }

    #[test]
    fn omitted_optional_fields_take_defaults() {
        let req =
            decode_request(r#"{"v":1,"req":{"Schedule":{"algorithm":"inc","k":4}}}"#).unwrap();
        assert_eq!(
            req,
            Request::Schedule {
                algorithm: "inc".into(),
                k: 4,
                threads: None,
                gate: false,
                profile: false,
                constraints: None,
            }
        );
        let req = decode_request(r#"{"v":1,"req":{"Repair":{"k":2}}}"#).unwrap();
        assert_eq!(req, Request::Repair { k: 2, threads: None, gate: false });
    }

    #[test]
    fn version_is_mandatory_and_checked() {
        let err = decode_request(r#"{"req":{"Snapshot":null}}"#).unwrap_err();
        assert_eq!(err.code(), "protocol");
        let err = decode_request(r#"{"v":2,"req":{"Snapshot":null}}"#).unwrap_err();
        assert_eq!(err, ServiceError::UnsupportedVersion { got: 2, supported: 1 });
        let err = decode_request(r#"{"v":"one","req":{"Snapshot":null}}"#).unwrap_err();
        assert_eq!(err.code(), "protocol");
    }

    #[test]
    fn malformed_lines_are_protocol_errors() {
        for line in ["", "not json", "[1,2,3]", r#"{"v":1}"#, r#"{"v":1,"req":{"Nope":{}}}"#] {
            let err = decode_request(line).unwrap_err();
            assert_eq!(err.code(), "protocol", "line {line:?} gave {err:?}");
        }
    }

    #[test]
    fn pathological_nesting_is_rejected_flat() {
        // Deeper than MAX_DEPTH: rejected by the pre-scan (a recursive
        // parse would risk the stack), answered as a protocol error.
        let deep = format!(r#"{{"v":1,"req":{}{}"#, "[".repeat(500), "]".repeat(500));
        let err = decode_request(&deep).unwrap_err();
        assert_eq!(err.code(), "protocol");
        assert!(err.to_string().contains("nesting"), "{err}");
        // Unterminated-deep (no closers at all) is rejected the same way.
        let open = format!(r#"{{"v":1,"req":{}"#, "[".repeat(100_000));
        assert_eq!(decode_request(&open).unwrap_err().code(), "protocol");
        // Brackets inside strings don't count toward depth.
        let bracket_string = format!(r#"{{"v":1,"req":{{"Nope":"{}"}}}}"#, r"[\\[".repeat(300));
        let err = decode_request(&bracket_string).unwrap_err();
        assert!(!err.to_string().contains("nesting"), "{err}");
        // Depth within the cap parses normally.
        assert!(decode_request(r#"{"v":1,"req":"Snapshot"}"#).is_ok());
    }

    #[test]
    fn session_envelope_round_trips_and_defaults() {
        // Addressed: the session comes back alongside the request.
        let line = encode_request_for("night-shift", &Request::Snapshot);
        assert_eq!(line, r#"{"v":1,"session":"night-shift","req":"Snapshot"}"#);
        let (req, session) = decode_request_routed(&line).unwrap();
        assert_eq!(req, Request::Snapshot);
        assert_eq!(session.as_deref(), Some("night-shift"));
        // Unaddressed: exactly the v1 shape, session defaults to None.
        let line = encode_request(&Request::Snapshot);
        let (req, session) = decode_request_routed(&line).unwrap();
        assert_eq!(req, Request::Snapshot);
        assert_eq!(session, None);
        // Key order is irrelevant (decode ignores envelope ordering).
        let (_, session) =
            decode_request_routed(r#"{"req":"Snapshot","session":"s","v":1}"#).unwrap();
        assert_eq!(session.as_deref(), Some("s"));
        // A non-string session is a protocol error, not a silent default.
        let err = decode_request_routed(r#"{"v":1,"session":7,"req":"Snapshot"}"#).unwrap_err();
        assert_eq!(err.code(), "protocol");
    }

    #[test]
    fn stdio_decoder_ignores_the_session_key() {
        // The pre-session decoder must keep accepting addressed lines —
        // unknown envelope keys are forward-compatible padding.
        let line = encode_request_for("x", &Request::Snapshot);
        assert_eq!(decode_request(&line).unwrap(), Request::Snapshot);
        // Of any type: only the routed decoder reads the key.
        for session in ["7", "null", "[1]", r#"{"a":1}"#] {
            let line = format!(r#"{{"v":1,"session":{session},"req":"Snapshot"}}"#);
            assert_eq!(decode_request(&line).unwrap(), Request::Snapshot, "{line}");
            assert!(decode_request_routed(&line).is_err(), "{line}");
        }
    }

    #[test]
    fn session_control_requests_round_trip() {
        for req in [
            Request::OpenSession { session: "a".into() },
            Request::CloseSession { session: "a".into() },
            Request::ListSessions,
        ] {
            let line = encode_request(&req);
            assert_eq!(decode_request(&line).unwrap(), req);
        }
        let resp = Response::Sessions {
            sessions: vec![crate::service::SessionInfo {
                session: "a".into(),
                warm: true,
                ops_applied: 9,
                durable: false,
            }],
        };
        let line = encode_response(&resp);
        assert_eq!(decode_response(&line).unwrap(), resp);
    }

    #[test]
    fn unit_variants_encode_compactly() {
        assert_eq!(encode_request(&Request::Snapshot), r#"{"v":1,"req":"Snapshot"}"#);
        assert_eq!(encode_response(&Response::ResetDone), r#"{"v":1,"resp":"ResetDone"}"#);
    }
}
