//! The REST-shaped transport: requests, responses, status codes.
//!
//! The paper's cloud instance "exposes REST based APIs which are used by
//! PMS to invoke cloud-hosted modules" (§2.3.3). This module models that
//! boundary faithfully — method + path + bearer token + body — while
//! staying in-process. A request and its reply exist in one form only:
//! typed values, bodies included ([`Payload`]). JSON is a rendering of a
//! body ([`Response::json`], [`Payload::to_json`]) for exports, goldens
//! and error text; nothing parses it back into a request or a reply.

use serde_json::Value;

use crate::payload::Payload;

/// HTTP-style method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
/// diagnostics — never rendered, never compared, zero when no span
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
    /// Causal-span context (diagnostics only — not request state, so
    /// excluded from equality).
    pub ctx: SpanCtx,
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
        }
    }

    /// Attaches a bearer token.
    pub fn with_token(mut self, token: impl Into<String>) -> Request {
        self.token = Some(token.into());
        self
    }

    /// Attaches a causal-span context (diagnostics).
    pub fn with_ctx(mut self, ctx: SpanCtx) -> Request {
        self.ctx = ctx;
        self
    }
}

/// Request equality ignores the span context (it is diagnostics); bodies
/// compare by wire equality (see [`Payload`]'s `PartialEq`).
impl PartialEq for Request {
    fn eq(&self, other: &Request) -> bool {
        self.method == other.method
            && self.path == other.path
            && self.token == other.token
            && self.body == other.body
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::RegistrationBody;

    #[test]
    fn request_builders() {
        let r = Request::get("/api/v1/places").with_token("tok-1");
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.token.as_deref(), Some("tok-1"));
        assert_eq!(r.body, Payload::Empty);

        let body = RegistrationBody {
            imei: "x".into(),
            email: String::new(),
        };
        let r = Request::post("/api/v1/registration", body);
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body.to_json()["imei"], "x");
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
