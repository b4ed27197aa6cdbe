//! Property test for the per-scale profile cache: *any* split of a
//! scale set into two submissions yields a final report byte-identical
//! to the single cold submission, and `/stats` accounts the per-scale
//! hits and misses exactly.
//!
//! One daemon serves every case (the cache carrying state between
//! submissions is the point); each case uses a unique program, so its
//! cache interactions are fully predicted by the case itself and
//! asserted as `/stats` deltas.

use proptest::prelude::*;
use scalana_api::paths;
use scalana_core::{pipeline, ScalAnaConfig};
use scalana_lang::parse_program;
use scalana_service::json::Json;
use scalana_service::jsonify::report_to_json;
use scalana_service::{client, Server, ServiceConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// The candidate scale pool. Small on purpose: each case runs real
/// simulations for the subset, the full set, and the local reference.
const POOL: [usize; 4] = [2, 3, 4, 6];

fn daemon_addr() -> &'static str {
    static ADDR: OnceLock<String> = OnceLock::new();
    ADDR.get_or_init(|| {
        let server = Server::bind(&ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 3,
            queue_capacity: 32,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        // Runs until the test process exits; shutdown is not needed.
        std::thread::spawn(move || server.run());
        addr
    })
}

/// A unique program per case so cross-case cache hits cannot occur.
fn program_text(case: u64, work: u64) -> String {
    format!(
        "param WORK = {};\n\
         fn main() {{\n\
             for it in 0 .. 3 {{\n\
                 comp(cycles = WORK / nprocs, ins = WORK / nprocs);\n\
                 if rank == 0 {{ comp(cycles = WORK / 6, ins = WORK / 6); }}\n\
                 barrier();\n\
             }}\n\
             allreduce(bytes = 8);\n\
         }}",
        100_000 + case * 1_000 + work
    )
}

fn submit(addr: &str, conn: &mut client::Conn, text: &str, scales: &[usize]) -> Json {
    let body = Json::obj(vec![
        ("source", text.into()),
        ("name", "overlap.mmpi".into()),
        ("scales", scales.to_vec().into()),
    ])
    .render();
    let response = conn
        .request_json("POST", paths::JOBS, &body)
        .unwrap_or_else(|e| panic!("submit to {addr} failed: {e}"));
    let key = response.get("job").unwrap().as_str().unwrap();
    conn.wait_for_job(key, Duration::from_secs(120))
        .unwrap_or_else(|e| panic!("job never finished: {e}"));
    response
}

fn scale_stats(conn: &mut client::Conn) -> (i64, i64) {
    let stats = conn.request_json("GET", paths::STATS, "").unwrap();
    (
        stats.get("scale_hits").and_then(Json::as_i64).unwrap(),
        stats.get("scale_misses").and_then(Json::as_i64).unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Split ⊢ first-part submission, then full-set submission: the
    /// full set's served report and profile images are byte-identical
    /// to a cold local run, and the second submission's per-scale
    /// hits/misses are exactly the overlap/remainder.
    #[test]
    fn any_split_is_byte_identical_to_cold_and_counted(
        subset_mask in 1u8..15,
        extra_mask in 1u8..16,
        work in 0u64..8,
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);

        // full = subset ∪ extra (both non-empty, ascending by pool order).
        let pick = |mask: u8| -> Vec<usize> {
            POOL.iter().enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &s)| s)
                .collect()
        };
        let first = pick(subset_mask);
        let full = pick(subset_mask | extra_mask);
        let overlap = first.len() as i64;
        let fresh = (full.len() - first.len()) as i64;

        let addr = daemon_addr();
        let mut conn = client::Conn::connect(addr).unwrap();
        let text = program_text(case, work);

        // First submission: every scale is a miss (unique program).
        let (h0, m0) = scale_stats(&mut conn);
        submit(addr, &mut conn, &text, &first);
        let (h1, m1) = scale_stats(&mut conn);
        prop_assert_eq!(h1 - h0, 0, "first submission cannot hit");
        prop_assert_eq!(m1 - m0, overlap);

        // Second submission (the full set): hits exactly the overlap,
        // misses exactly the genuinely new scales. Two boundary shapes:
        // an identical scale set is answered by the *whole-job* cache
        // and never consults the per-scale cache at all, and a subset
        // that dropped the smallest scale changes the discovery scale —
        // the refined PSG differs, so *nothing* may be reused.
        let whole_job_hit = full == first;
        let same_discovery = first[0] == full[0];
        let (expected_hits, expected_misses) = if whole_job_hit {
            (0, 0)
        } else if same_discovery {
            (overlap, fresh)
        } else {
            (0, full.len() as i64)
        };
        let response = submit(addr, &mut conn, &text, &full);
        let key = response.get("job").unwrap().as_str().unwrap().to_string();
        let (h2, m2) = scale_stats(&mut conn);
        prop_assert_eq!(h2 - h1, expected_hits, "first {:?} full {:?}", first, full);
        prop_assert_eq!(m2 - m1, expected_misses, "first {:?} full {:?}", first, full);

        // Byte-identity against a cold local run of the full set.
        let program = parse_program("overlap.mmpi", &text).unwrap();
        let config = ScalAnaConfig::default();
        let runs = pipeline::profile_runs(&program, &full, &config).unwrap();
        let expected_images: Vec<bytes::Bytes> = runs
            .profiles
            .iter()
            .map(scalana_profile::store::save)
            .collect();
        let expected_report = report_to_json(&pipeline::assemble(runs, &config).report).render();

        let result = conn
            .request_json("GET", &paths::job_result(&key), "")
            .unwrap();
        prop_assert_eq!(
            result.get("report").unwrap().render(),
            expected_report,
            "assembled-from-cache report diverges from cold run (first {:?}, full {:?})",
            first,
            full
        );
        for (&nprocs, expected) in full.iter().zip(&expected_images) {
            let (code, image) = conn
                .request_raw("GET", &paths::job_profile(&key, nprocs), "")
                .unwrap();
            prop_assert_eq!(code, 200);
            prop_assert_eq!(
                &image[..], &expected[..],
                "profile image at {} scale diverges", nprocs
            );
        }
    }
}
