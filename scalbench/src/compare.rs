//! `scalbench compare A.json B.json`: one row per (end-to-end metric,
//! workload) with both medians, the ratio with its base, and a verdict
//! from the bounds in the contract.

use crate::report::ResultFile;
use crate::spec::{Better, Metric, END_TO_END, WORKLOADS};
use crate::stats::{median, quartile_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within_bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B's values against A's (the base) for one metric.
///
/// Where the run-to-run spread of either side is wider than the bound
/// the pair is `unresolved`, unless every B reads better than every A.
/// Otherwise B is `worse` when its median is worse than A's by more
/// than the bound, `better` when it is better by more than the bound.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    let (base, new) = (median(a), median(b));
    // Positive = B worse, as a share of the base.
    let worse_by = match metric.better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    };
    let spread = [a, b]
        .into_iter()
        .filter_map(quartile_spread)
        .fold(0.0, f64::max);
    let b_always_better = a.iter().all(|&x| {
        b.iter().all(|&y| match metric.better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    if spread > bound {
        if b_always_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Print the table; `Err` when the files cannot be compared, `Ok(false)`
/// when some pair is worse or B failed more ops.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Result<bool, String> {
    a.fingerprint
        .same_host(&b.fingerprint)
        .map_err(|e| format!("fingerprints differ, refusing to compare: {e}"))?;
    if a.seed != b.seed || a.seconds != b.seconds {
        return Err(format!(
            "runs differ, refusing to compare: seed {} for {} s vs seed {} for {} s",
            a.seed, a.seconds, b.seed, b.seconds
        ));
    }
    println!(
        "{:<16} {:<18} {:>12} {:>12} {:>18} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A (base A)", "bound"
    );
    let mut ok = true;
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let (va, vb) = (
                a.values(workload.name, metric.name),
                b.values(workload.name, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{} {} is missing from a file",
                    workload.name, metric.name
                ));
            }
            let verdict = judge(metric, &va, &vb);
            ok &= verdict != Verdict::Worse;
            println!(
                "{:<16} {:<18} {:>12.4} {:>12.4} {:>18} {:>6.0}%  {}",
                workload.name,
                metric.name,
                median(&va),
                median(&vb),
                format!("{:.3}x of {:.4}", median(&vb) / median(&va), median(&va)),
                100.0 * metric.bound.unwrap_or(0.0),
                verdict.as_str()
            );
        }
    }
    println!("failed ops: A {}, B {}", a.failed, b.failed);
    if b.failed > a.failed {
        println!("B failed more ops than A");
        ok = false;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a 10 % bound, whatever the contract's bounds are.
    fn bounded(better: Better) -> Metric {
        Metric {
            name: "m",
            unit: "ms",
            better,
            bound: Some(0.10),
            what: "",
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let latency = &bounded(Better::Lower);
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            judge(latency, &steady, &[10.5, 10.4, 10.6]),
            Verdict::WithinBound
        );
        assert_eq!(judge(latency, &steady, &[11.5, 11.4, 11.6]), Verdict::Worse);
        assert_eq!(judge(latency, &steady, &[8.0, 8.1, 7.9]), Verdict::Better);
        // A spread wider than the bound resolves nothing...
        let noisy = [10.0, 14.0, 8.0, 12.0, 9.0];
        assert_eq!(
            judge(latency, &noisy, &[11.5, 11.4, 11.6]),
            Verdict::Unresolved
        );
        // ...unless every B beats every A.
        assert_eq!(judge(latency, &noisy, &[7.0, 7.5, 6.0]), Verdict::Better);
        let throughput = &bounded(Better::Higher);
        assert_eq!(judge(throughput, &[100.0], &[80.0]), Verdict::Worse);
        assert_eq!(judge(throughput, &[100.0], &[120.0]), Verdict::Better);
        assert_eq!(judge(throughput, &[100.0], &[95.0]), Verdict::WithinBound);
    }
}
