//! # scalana-api — the versioned wire contract of the analysis service
//!
//! Before this crate existed, the daemon's API lived as string literals
//! duplicated across the server, the client, and the CLI. This crate is
//! the single source of truth all three consume:
//!
//! - [`json`] — the canonical JSON value model, serializer, and parser
//!   (byte-stable output; `parse ∘ render` is the identity on its own
//!   output);
//! - [`paths`] — the `/v1` version prefix, every endpoint path/builder,
//!   and query-string helpers;
//! - [`dto`] — typed request/response bodies ([`SubmitRequest`],
//!   [`SubmitAck`], [`JobView`], [`JobPage`], [`ResultView`],
//!   [`StatsResponse`], ...) with explicit, canonical JSON conversions;
//! - [`error`] — the structured error contract: every non-2xx response
//!   is an [`ApiError`] `{code, message, retryable}` whose [`ErrorCode`]
//!   pins the HTTP status;
//! - [`diff`] — the comparison of two finished analyses, a pure
//!   function over two result documents that clients compute
//!   (`scalana diff`); the daemon serves no diff endpoint.
//!
//! ## Versioning
//!
//! Everything current lives under [`paths::PREFIX`] (`/v1`). Within a
//! version the contract only grows: new endpoints, new optional request
//! fields, new response fields, new error codes — never changed meanings
//! or removed fields, short of deleting a whole feature (the README's
//! versioning notes list each such removal). The unversioned spelling
//! of every endpoint answers `308 Permanent Redirect` to its `/v1` path,
//! query string kept.

pub mod diff;
pub mod dto;
pub mod error;
pub mod json;
pub mod paths;
pub mod trace;

pub use dto::{
    JobPage, JobState, JobView, ListQuery, ProgramRef, ResultView, StatsResponse, StoreQuery,
    SubmitAck, SubmitRequest, WaitQuery, DEFAULT_SCALES, MAX_SCALE,
};
pub use error::{ApiError, ErrorCode};
pub use json::Json;
pub use trace::{TraceResponse, TraceSpan};
