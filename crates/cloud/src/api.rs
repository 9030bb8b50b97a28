//! The REST-shaped transport: requests, responses, status codes.
//!
//! The paper's cloud instance "exposes REST based APIs which are used by
//! PMS to invoke cloud-hosted modules" (§2.3.3). This module models that
//! boundary faithfully — method + path + bearer token + body — while
//! staying in-process. Bodies are typed [`Payload`] values. The JSON
//! spelling the Django service saw is rendered lazily by
//! [`Request::wire_bytes`]/[`Response::to_bytes`], and parsed back by
//! [`Request::from_bytes`]/[`Response::from_bytes`], which decode the body
//! once, by route (see the [`crate::payload`] module docs).

use std::sync::{Arc, OnceLock};

use serde::{DeError, Deserialize, Serialize};
use serde_json::Value;

use crate::payload::{field, Payload};

/// HTTP-style method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Read.
    Get,
    /// Create/submit.
    Post,
}

impl Method {
    /// Upper-case wire name (`"GET"`/`"POST"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
        }
    }
}

/// Causal-span context riding on a request: the trace it belongs to and
/// the span to parent server-side/in-transit annotations under. Pure
/// diagnostics — never serialized, never compared, zero when no span
/// collector is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanCtx {
    /// Trace id ([`pmware_obs::SpanSink::trace_id`]); `0` = no trace.
    pub trace: u64,
    /// Parent span id within the trace; `0` = root.
    pub parent: u64,
}

impl SpanCtx {
    /// Whether a trace is attached.
    pub fn is_active(self) -> bool {
        self.trace != 0
    }
}

/// A request to the cloud instance.
///
/// Treat a request as immutable once built: [`Request::wire_bytes`]
/// caches the first encoding (the encode-once retry seam), so mutate
/// fields only before the request first hits the wire — the builders
/// ([`Request::with_token`]) reset the cache for you.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Path, e.g. `/api/v1/places/discover`.
    pub path: String,
    /// Bearer token, when authenticated.
    pub token: Option<String>,
    /// Typed body ([`Payload::Empty`] for body-less requests).
    pub body: Payload,
    /// Causal-span context (diagnostics only — not wire state, excluded
    /// from equality and serialization; a wire round-trip resets it and
    /// the fault boundary copies it back across).
    pub ctx: SpanCtx,
    /// Lazily rendered wire bytes; retries reuse the first encoding.
    wire: OnceLock<Arc<[u8]>>,
}

impl Request {
    /// A GET request.
    pub fn get(path: impl Into<String>) -> Request {
        Request {
            method: Method::Get,
            path: path.into(),
            token: None,
            body: Payload::Empty,
            ctx: SpanCtx::default(),
            wire: OnceLock::new(),
        }
    }

    /// A POST request with a typed body.
    pub fn post(path: impl Into<String>, body: impl Into<Payload>) -> Request {
        Request {
            method: Method::Post,
            path: path.into(),
            token: None,
            body: body.into(),
            ctx: SpanCtx::default(),
            wire: OnceLock::new(),
        }
    }

    /// A POST request with a body spelled as raw JSON, decoded by its
    /// route exactly as the wire boundary decodes it
    /// ([`Payload::from_json`]).
    pub fn post_json(path: impl Into<String>, body: Value) -> Request {
        let path = path.into();
        let body = Payload::from_json(Method::Post, &path, &body);
        Request::post(path, body)
    }

    /// Attaches a bearer token.
    pub fn with_token(mut self, token: impl Into<String>) -> Request {
        self.token = Some(token.into());
        self.wire = OnceLock::new();
        self
    }

    /// Attaches a causal-span context (diagnostics; does not touch the
    /// wire cache — the context is not wire state).
    pub fn with_ctx(mut self, ctx: SpanCtx) -> Request {
        self.ctx = ctx;
        self
    }

    /// The request's wire bytes (JSON envelope), rendered once and
    /// cached — every retry attempt at the fault boundary reuses the
    /// first encoding instead of re-serialising the body.
    pub fn wire_bytes(&self) -> &Arc<[u8]> {
        self.wire
            .get_or_init(|| Arc::from(serde_json::to_vec(self).expect("request is serializable")))
    }

    /// Serialises the request to wire bytes (JSON envelope).
    pub fn to_bytes(&self) -> Arc<[u8]> {
        self.wire_bytes().clone()
    }

    /// Parses a request from wire bytes, decoding the body by its route
    /// ([`Payload::from_json`]).
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` for malformed payloads.
    pub fn from_bytes(bytes: &[u8]) -> Result<Request, serde_json::Error> {
        serde_json::from_slice(bytes)
    }
}

/// Wire equality: the byte cache is ignored (it is derived state).
impl PartialEq for Request {
    fn eq(&self, other: &Request) -> bool {
        self.method == other.method
            && self.path == other.path
            && self.token == other.token
            && self.body == other.body
    }
}

impl Serialize for Request {
    fn to_json_value(&self) -> Value {
        let mut map = std::collections::BTreeMap::new();
        map.insert("body".to_owned(), self.body.to_json());
        map.insert("method".to_owned(), self.method.to_json_value());
        map.insert("path".to_owned(), Value::String(self.path.clone()));
        map.insert(
            "token".to_owned(),
            match &self.token {
                Some(token) => Value::String(token.clone()),
                None => Value::Null,
            },
        );
        Value::Object(map)
    }
}

impl<'de> Deserialize<'de> for Request {
    fn from_json_value(value: &Value) -> Result<Request, DeError> {
        let method = field(value, "Request", "method")?;
        let path: String = field(value, "Request", "path")?;
        let body = Payload::from_json(method, &path, &value["body"]);
        Ok(Request {
            method,
            token: field(value, "Request", "token")?,
            path,
            body,
            ctx: SpanCtx::default(),
            wire: OnceLock::new(),
        })
    }
}

/// A response from the cloud instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP-style status code.
    pub status: u16,
    /// Typed body.
    pub body: Payload,
}

impl Response {
    /// A response with an arbitrary status and body.
    pub fn with_status(status: u16, body: impl Into<Payload>) -> Response {
        Response {
            status,
            body: body.into(),
        }
    }

    /// 200 with a body.
    pub fn ok(body: impl Into<Payload>) -> Response {
        Response::with_status(200, body)
    }

    /// 400 with an error message.
    pub fn bad_request(message: impl Into<String>) -> Response {
        Response::error(400, message)
    }

    /// 401 with an error message.
    pub fn unauthorized(message: impl Into<String>) -> Response {
        Response::error(401, message)
    }

    /// 404 with an error message.
    pub fn not_found(message: impl Into<String>) -> Response {
        Response::error(404, message)
    }

    /// 405 for a known path hit with the wrong method; `allow` lists the
    /// methods the path does accept (the HTTP `Allow` header, carried in
    /// the body here).
    pub fn method_not_allowed(allow: &[Method]) -> Response {
        Response::with_status(
            405,
            Payload::MethodNotAllowed {
                allow: allow.to_vec(),
            },
        )
    }

    /// An arbitrary-status error response with the canonical
    /// `{"error": message}` body.
    pub fn error(status: u16, message: impl Into<String>) -> Response {
        Response::with_status(
            status,
            Payload::Error {
                message: message.into(),
            },
        )
    }

    /// Returns `true` for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Renders the body to its JSON wire spelling (exports, goldens,
    /// tests — not the hot path).
    pub fn json(&self) -> Value {
        self.body.to_json()
    }

    /// The error message of an error-shaped body, if any.
    pub fn error_message(&self) -> Option<&str> {
        self.body.error_message()
    }

    /// Serialises the response to wire bytes.
    pub fn to_bytes(&self) -> Arc<[u8]> {
        Arc::from(serde_json::to_vec(self).expect("response is serializable"))
    }

    /// Parses the wire bytes of the reply to a `method` request for
    /// `path`, decoding the body by that route and the status
    /// ([`Payload::reply_from_json`]).
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` for malformed payloads.
    pub fn from_bytes(
        method: Method,
        path: &str,
        bytes: &[u8],
    ) -> Result<Response, serde_json::Error> {
        let envelope: Value = serde_json::from_slice(bytes)?;
        let status = field(&envelope, "Response", "status")?;
        let body = Payload::reply_from_json(method, path, status, &envelope["body"]);
        Ok(Response::with_status(status, body))
    }
}

impl Serialize for Response {
    fn to_json_value(&self) -> Value {
        let mut map = std::collections::BTreeMap::new();
        map.insert("body".to_owned(), self.body.to_json());
        map.insert("status".to_owned(), self.status.to_json_value());
        Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn request_builders() {
        let r = Request::get("/api/v1/places").with_token("tok-1");
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.token.as_deref(), Some("tok-1"));
        assert_eq!(r.body, Payload::Empty);

        let r = Request::post_json("/api/v1/registration", json!({"imei": "x"}));
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body.to_json()["imei"], "x");
    }

    #[test]
    fn wire_round_trip() {
        let r = Request::post_json("/api/v1/places/sync", json!({"places": []})).with_token("abc");
        let bytes = r.to_bytes();
        let back = Request::from_bytes(&bytes).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn wire_bytes_are_cached_across_attempts() {
        let r = Request::post_json("/api/v1/places/sync", json!({"places": []})).with_token("abc");
        let first = r.wire_bytes() as *const Arc<[u8]>;
        let second = r.wire_bytes() as *const Arc<[u8]>;
        assert_eq!(first, second, "second render must reuse the cache");
    }

    #[test]
    fn malformed_bytes_error() {
        assert!(Request::from_bytes(b"{not json").is_err());
        assert!(Response::from_bytes(Method::Get, "/api/v1/places", b"{not json").is_err());
    }

    #[test]
    fn response_helpers() {
        assert!(Response::ok(Payload::Places { places: vec![] }).is_success());
        let e = Response::unauthorized("token expired");
        assert_eq!(e.status, 401);
        assert!(!e.is_success());
        assert_eq!(e.json()["error"], "token expired");
        assert_eq!(e.error_message(), Some("token expired"));
        assert_eq!(Response::bad_request("no").status, 400);
        assert_eq!(Response::not_found("no").status, 404);
    }
}
