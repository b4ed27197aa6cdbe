//! The README's `/v1` API reference must stay in sync with this crate:
//! every endpoint the contract publishes, every DTO named in it, and
//! every error code a handler can answer with has to appear in the
//! repository README — the human-facing mirror of these doc comments.

use scalana_api::{paths, ErrorCode};

const README: &str = include_str!("../../../README.md");

#[test]
fn readme_documents_every_endpoint() {
    for path in [
        paths::JOBS,
        paths::STATS,
        paths::METRICS,
        paths::HEALTHZ,
        paths::SHUTDOWN,
        paths::STORE,
        paths::STORE_GC,
    ] {
        assert!(README.contains(path), "README is missing endpoint `{path}`");
    }
    // Parameterized endpoints appear with their `<id>` placeholders.
    for pattern in [
        "/v1/jobs/<id>",
        "/v1/jobs/<id>/wait",
        "/v1/jobs/<id>/result",
        "/v1/jobs/<id>/profile/<p>",
        "/v1/jobs/<id>/trace",
    ] {
        assert!(README.contains(pattern), "README is missing `{pattern}`");
    }
}

#[test]
fn readme_documents_the_dtos_and_error_codes() {
    for dto in [
        "SubmitRequest",
        "SubmitAck",
        "JobView",
        "JobPage",
        "ListQuery",
        "WaitQuery",
        "ResultView",
        "StatsResponse",
        "StoreQuery",
        "TraceResponse",
        "TraceSpan",
    ] {
        assert!(README.contains(dto), "README is missing DTO `{dto}`");
    }
    // Every code that request handling can produce. (Codes only the
    // transport layer emits — malformed framing, connection shedding —
    // are documented in the crate, not the endpoint table.)
    for code in [
        ErrorCode::BadJson,
        ErrorCode::BadRequest,
        ErrorCode::UnknownField,
        ErrorCode::UnsupportedVersion,
        ErrorCode::NotFound,
        ErrorCode::UnknownJob,
        ErrorCode::UnknownApp,
        ErrorCode::UnknownProgramHash,
        ErrorCode::JobPending,
        ErrorCode::JobFailed,
        ErrorCode::QueueFull,
        ErrorCode::StoreDegraded,
    ] {
        assert!(
            README.contains(code.as_str()),
            "README is missing error code `{}`",
            code.as_str()
        );
    }
    assert!(
        README.contains("unversioned paths redirect"),
        "README must state that unversioned paths redirect"
    );
    assert!(
        README.contains("308"),
        "README must mention the unversioned-path redirects"
    );
}

#[test]
fn readme_documents_the_concurrency_model() {
    assert!(
        README.contains("### Concurrency model"),
        "README is missing the `Concurrency model` section"
    );
    // The serving-layer metric families the event loop publishes; the
    // golden exposition test (`crates/service/tests/obs.rs`) pins the
    // same names on the wire.
    for family in [
        "scalana_accept_errors_total",
        "scalana_epoll_registered_fds",
        "scalana_longpoll_parked",
        "scalana_readiness_round_ns",
    ] {
        assert!(
            README.contains(family),
            "README is missing metric family `{family}`"
        );
    }
    for concept in ["max_connections", "Retry-After", "eventfd", "epoll"] {
        assert!(
            README.contains(concept),
            "README's concurrency model must cover `{concept}`"
        );
    }
}

#[test]
fn readme_documents_durability() {
    assert!(
        README.contains("### Durability & fault tolerance"),
        "README is missing the `Durability & fault tolerance` section"
    );
    // The store's metric families; the golden exposition test
    // (`crates/service/tests/obs.rs`) pins the same names on the wire.
    for family in [
        "scalana_store_writes_total",
        "scalana_store_commits_total",
        "scalana_store_backlog_bytes",
        "scalana_store_write_errors_total",
        "scalana_store_skipped_total",
        "scalana_store_quarantined_total",
        "scalana_store_loaded_total",
        "scalana_store_evicted_total",
        "scalana_store_entries",
        "scalana_store_bytes",
        "scalana_store_degraded",
    ] {
        assert!(
            README.contains(family),
            "README is missing metric family `{family}`"
        );
    }
    for concept in [
        "--store-dir",
        "--store-quota",
        "quarantine",
        "circuit",
        "warm-start",
        "next_after",
    ] {
        assert!(
            README.contains(concept),
            "README's durability section must cover `{concept}`"
        );
    }
}
