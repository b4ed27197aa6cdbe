//! The structured error contract of the `/v1` API.
//!
//! Every non-2xx response carries one [`ApiError`] body. Clients branch
//! on the machine-readable [`ErrorCode`] (the human message is free to
//! change between releases; a code's meaning is fixed) and on
//! `retryable`, which says whether the identical request may succeed
//! later without modification — backpressure and pending jobs are
//! retryable, contract violations are not.
//!
//! On the wire the message field is named `error` — the key every
//! pre-`/v1` client already reads — so the structured body is a strict
//! superset of the legacy `{"error": "..."}` shape:
//!
//! ```json
//! {"code":"queue_full","error":"job queue is full, retry later","retryable":true}
//! ```

use crate::json::{parse, Json};
use serde::{Deserialize, Serialize};

/// Machine-readable error discriminant. A code, once shipped, never
/// changes meaning or HTTP status within `/v1`; one goes only with the
/// whole feature that produced it (the README's versioning notes list
/// each such removal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The request body is not valid JSON.
    BadJson,
    /// A request field is missing, has the wrong type, or is out of
    /// range (the message names the field).
    BadRequest,
    /// The request carries a field the endpoint does not know —
    /// rejected rather than ignored, so typos fail loudly.
    UnknownField,
    /// The declared request body exceeds the per-request byte budget.
    BodyTooLarge,
    /// The request could not be framed as HTTP at all.
    MalformedRequest,
    /// The path carries a version prefix this server does not serve
    /// (only [`crate::paths::API_VERSION`] is).
    UnsupportedVersion,
    /// No such endpoint.
    NotFound,
    /// No job under that key (never submitted, or evicted).
    UnknownJob,
    /// `app` names no built-in workload.
    UnknownApp,
    /// `program_hash` matches no indexed program (never seen or
    /// evicted) — re-send the source.
    UnknownProgramHash,
    /// Known path, wrong HTTP method (the `Allow:` header lists the
    /// supported ones).
    MethodNotAllowed,
    /// The job exists but has not reached a terminal state yet.
    JobPending,
    /// The job reached `failed`; the message carries the cause.
    JobFailed,
    /// The submission queue is at capacity.
    QueueFull,
    /// The connection limit is reached.
    TooManyConnections,
    /// The durable store has degraded to memory-only mode (its write
    /// circuit breaker is open); the operation needs a writable store.
    /// Transient — the breaker retries half-open with backoff.
    StoreDegraded,
    /// The server violated its own invariants (a bug, not bad input).
    Internal,
}

impl ErrorCode {
    /// The wire name (`snake_case`).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownField => "unknown_field",
            ErrorCode::BodyTooLarge => "body_too_large",
            ErrorCode::MalformedRequest => "malformed_request",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::NotFound => "not_found",
            ErrorCode::UnknownJob => "unknown_job",
            ErrorCode::UnknownApp => "unknown_app",
            ErrorCode::UnknownProgramHash => "unknown_program_hash",
            ErrorCode::MethodNotAllowed => "method_not_allowed",
            ErrorCode::JobPending => "job_pending",
            ErrorCode::JobFailed => "job_failed",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::TooManyConnections => "too_many_connections",
            ErrorCode::StoreDegraded => "store_degraded",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parse a wire name back into the code.
    pub fn parse(name: &str) -> Option<ErrorCode> {
        Some(match name {
            "bad_json" => ErrorCode::BadJson,
            "bad_request" => ErrorCode::BadRequest,
            "unknown_field" => ErrorCode::UnknownField,
            "body_too_large" => ErrorCode::BodyTooLarge,
            "malformed_request" => ErrorCode::MalformedRequest,
            "unsupported_version" => ErrorCode::UnsupportedVersion,
            "not_found" => ErrorCode::NotFound,
            "unknown_job" => ErrorCode::UnknownJob,
            "unknown_app" => ErrorCode::UnknownApp,
            "unknown_program_hash" => ErrorCode::UnknownProgramHash,
            "method_not_allowed" => ErrorCode::MethodNotAllowed,
            "job_pending" => ErrorCode::JobPending,
            "job_failed" => ErrorCode::JobFailed,
            "queue_full" => ErrorCode::QueueFull,
            "too_many_connections" => ErrorCode::TooManyConnections,
            "store_degraded" => ErrorCode::StoreDegraded,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// The HTTP status this code is always served with.
    pub fn http_status(self) -> u16 {
        match self {
            ErrorCode::BadJson
            | ErrorCode::BadRequest
            | ErrorCode::UnknownField
            | ErrorCode::BodyTooLarge
            | ErrorCode::MalformedRequest
            | ErrorCode::UnsupportedVersion
            | ErrorCode::UnknownApp => 400,
            ErrorCode::NotFound | ErrorCode::UnknownJob | ErrorCode::UnknownProgramHash => 404,
            ErrorCode::MethodNotAllowed => 405,
            ErrorCode::JobPending => 409,
            ErrorCode::JobFailed | ErrorCode::Internal => 500,
            ErrorCode::QueueFull | ErrorCode::TooManyConnections | ErrorCode::StoreDegraded => 503,
        }
    }

    /// Whether the identical request may succeed later without change.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::JobPending
                | ErrorCode::QueueFull
                | ErrorCode::TooManyConnections
                | ErrorCode::StoreDegraded
        )
    }
}

/// One structured API error: `{code, message, retryable}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApiError {
    /// Machine-readable discriminant.
    pub code: ErrorCode,
    /// Human-readable cause (wire key `error`, for legacy clients).
    pub message: String,
    /// Whether retrying the identical request can succeed.
    pub retryable: bool,
}

impl ApiError {
    /// Build an error; `retryable` follows the code's default.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ApiError {
        ApiError {
            code,
            message: message.into(),
            retryable: code.retryable(),
        }
    }

    /// Shorthand for the most common code.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(ErrorCode::BadRequest, message)
    }

    /// The HTTP status this error is served with.
    pub fn http_status(&self) -> u16 {
        self.code.http_status()
    }

    /// Canonical wire body.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("code", self.code.as_str().into()),
            ("error", self.message.as_str().into()),
            ("retryable", self.retryable.into()),
        ])
    }

    /// Decode a wire error body. Bodies from pre-`/v1` servers carry
    /// only `error` — no `code` — and decode to `None`, so callers can
    /// tell a structured body from a legacy one.
    pub fn from_json(doc: &Json) -> Option<ApiError> {
        let code = ErrorCode::parse(doc.get("code")?.as_str()?)?;
        let message = doc
            .get("error")
            .or_else(|| doc.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        Some(ApiError {
            code,
            message,
            retryable: doc
                .get("retryable")
                .and_then(Json::as_bool)
                .unwrap_or_else(|| code.retryable()),
        })
    }

    /// Decode from a raw body string (`None` when the body is not a
    /// structured `/v1` error — e.g. a legacy `{"error": ...}` one).
    pub fn from_body(body: &str) -> Option<ApiError> {
        ApiError::from_json(&parse(body).ok()?)
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_round_trip_and_pin_statuses() {
        for code in [
            ErrorCode::BadJson,
            ErrorCode::BadRequest,
            ErrorCode::UnknownField,
            ErrorCode::BodyTooLarge,
            ErrorCode::MalformedRequest,
            ErrorCode::UnsupportedVersion,
            ErrorCode::NotFound,
            ErrorCode::UnknownJob,
            ErrorCode::UnknownApp,
            ErrorCode::UnknownProgramHash,
            ErrorCode::MethodNotAllowed,
            ErrorCode::JobPending,
            ErrorCode::JobFailed,
            ErrorCode::QueueFull,
            ErrorCode::TooManyConnections,
            ErrorCode::StoreDegraded,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
            assert!((400..600).contains(&code.http_status()));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }

    #[test]
    fn wire_body_keeps_the_legacy_error_key() {
        let err = ApiError::new(ErrorCode::QueueFull, "job queue is full, retry later");
        assert!(err.retryable, "queue_full defaults to retryable");
        assert_eq!(
            err.to_json().render(),
            r#"{"code":"queue_full","error":"job queue is full, retry later","retryable":true}"#
        );
        let back = ApiError::from_body(&err.to_json().render()).unwrap();
        assert_eq!(back, err);
        // A legacy body has no code: decodes as None, not a guess.
        assert!(ApiError::from_body(r#"{"error":"no such endpoint"}"#).is_none());
    }
}
