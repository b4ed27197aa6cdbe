//! The job streams of the four `serve_*` workloads. Op `i` of a stream
//! is a pure function of `(seed, i)`, so the two client threads can
//! take ops off one shared counter and the stream still repeats
//! byte for byte.

use crate::rng::{Rng, Zipf};
use scalana_api::SubmitRequest;

/// One submission, in the structured form the in-process reference is
/// computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub name: String,
    pub text: String,
    pub scales: Vec<usize>,
    pub abnorm_thd: Option<f64>,
    /// Which of a stream's fixed base jobs this is (`serve_hot`), for
    /// comparing a response with the warmed one.
    pub slot: Option<usize>,
}

impl Job {
    pub fn request(&self) -> SubmitRequest {
        let mut request = SubmitRequest::source(self.name.clone(), self.text.clone())
            .with_scales(self.scales.clone());
        request.abnorm_thd = self.abnorm_thd;
        request
    }

    /// The `POST /v1/jobs` body.
    pub fn body(&self) -> String {
        self.request().to_json().render()
    }
}

pub trait JobStream: Sync {
    fn job(&self, i: u64) -> Job;
}

/// The daemon's default scale set, used by `serve_unique`, `serve_hot`
/// and `serve_restart`.
pub const DEFAULT_SCALES: [usize; 4] = [4, 8, 16, 32];

fn generated(seed: u64, case: usize) -> String {
    scalana_wgen::generate(seed, case).pretty()
}

/// The generator seed of every generated program. The benchmark seed
/// draws which of them a run uses, in what order, under what names, scale
/// subsets and thresholds, but not the programs themselves, for two
/// reasons. With 48 programs under a Zipf draw (`serve_overlap`), which
/// program lands on rank 0 would otherwise decide a quarter of the run's
/// cost, and two seeds would measure two different workloads. And the
/// generator is not sound on every seed: case 668 of seed 1877698907
/// deadlocks at 4 ranks, so a run on generator seeds nobody has tried
/// fails an op now and then. The cases used here have all been analyzed
/// (`every_pool_program_analyzes`).
const POPULATION_SEED: u64 = 0x5ca1_a7a5;

/// `serve_unique` and `serve_restart` take their generated programs from
/// cases `0..UNIQUE_POOL` of the population, starting at a seeded case
/// and wrapping; names keep the jobs distinct past a wrap.
pub const UNIQUE_POOL: u64 = 1 << 16;

/// Never-seen programs: generated ones under unique names (about 1 ms
/// of analysis each, half of it simulation) and every 8th a paper app's
/// source (1 to 22 ms, nearly all simulation), which is what makes
/// simulation the larger part of a job here. The paper apps take turns,
/// so the 5 % slowest ops are always MG, CG, LU and most of ZMP, and p95
/// sits inside ZMP's band, not on an edge between two apps. SST and NEK
/// are left out: at 100 to 300 ms a job they would be most of the run.
pub struct Unique {
    seed: u64,
    /// Distinguishes the warm-up, fill and any later use of one seed.
    tag: &'static str,
    abnorm_thd: Option<f64>,
    app_sources: Vec<(String, String)>,
    /// The pool case of op 0.
    first_case: u64,
}

pub const APP_EVERY: u64 = 8;

impl Unique {
    pub fn new(seed: u64, tag: &'static str) -> Unique {
        let app_sources = scalana_apps::all_apps()
            .into_iter()
            .filter(|app| app.name != "SST" && app.name != "NEK")
            .map(|app| (app.name.clone(), app.source()))
            .collect();
        Unique {
            seed,
            tag,
            abnorm_thd: None,
            app_sources,
            // A stream no op draws from.
            first_case: Rng::stream(seed, u64::MAX).below(UNIQUE_POOL),
        }
    }

    /// The same programs under the same names, but a different
    /// detection threshold: new job keys whose every scale was profiled
    /// before (`serve_restart`'s re-serve phase).
    pub fn with_abnorm_thd(mut self, thd: f64) -> Unique {
        self.abnorm_thd = Some(thd);
        self
    }
}

impl JobStream for Unique {
    fn job(&self, i: u64) -> Job {
        let (name, text) = if i % APP_EVERY == APP_EVERY - 1 {
            let (app, source) =
                &self.app_sources[(i / APP_EVERY) as usize % self.app_sources.len()];
            (
                format!("{}{}_{i}_{app}.mmpi", self.tag, self.seed),
                source.clone(),
            )
        } else {
            (
                format!("{}{}_{i}.mmpi", self.tag, self.seed),
                generated(
                    POPULATION_SEED,
                    ((self.first_case + i) % UNIQUE_POOL) as usize,
                ),
            )
        };
        Job {
            name,
            text,
            scales: DEFAULT_SCALES.to_vec(),
            abnorm_thd: self.abnorm_thd,
            slot: None,
        }
    }
}

/// `serve_overlap`: 48 base programs (every cache holds them all), a
/// Zipf(1.0) choice among them, a scale subset that contains 2 (the
/// discovery scale must match for per-scale reuse) and a threshold no
/// other op of the run has, so job keys are new while the scales repeat.
///
/// No key may repeat within a run: the daemon answers a repeat `done`
/// from the result cache but leaves the result its old place in the
/// 256-entry FIFO, so the other client's next completion can evict it
/// between the repeat's `wait` and its `GET result`, which is a 404.
pub struct Overlap {
    seed: u64,
    programs: Vec<(String, String)>,
    zipf: Zipf,
    threshold_offset: u64,
}

pub const OVERLAP_PROGRAMS: usize = 48;
pub const OVERLAP_SCALES: [usize; 6] = [2, 4, 8, 16, 32, 64];
/// What set-up profiles of every base program before the timed window.
pub const OVERLAP_PRIMED: [usize; 3] = [2, 8, 32];
/// Thresholds are `1.1 + k / OVERLAP_THRESHOLDS`, `k` a bijection of the
/// op index: distinct for this many ops, 7 minutes at 2500 ops/s.
pub const OVERLAP_THRESHOLDS: u64 = 1 << 20;

impl Overlap {
    pub fn new(seed: u64) -> Overlap {
        Overlap {
            seed,
            programs: (0..OVERLAP_PROGRAMS)
                .map(|p| (format!("overlap_{p}.mmpi"), generated(POPULATION_SEED, p)))
                .collect(),
            zipf: Zipf::new(OVERLAP_PROGRAMS, 1.0),
            // A stream no op draws from.
            threshold_offset: Rng::stream(seed, u64::MAX).below(OVERLAP_THRESHOLDS),
        }
    }

    /// Which of the `OVERLAP_THRESHOLDS` thresholds op `i` runs under: an
    /// odd multiple of `i` plus a seeded offset, modulo a power of two,
    /// so no two ops of a run share one.
    fn threshold_step(&self, i: u64) -> u64 {
        i.wrapping_mul(0x9e37_79b9)
            .wrapping_add(self.threshold_offset)
            % OVERLAP_THRESHOLDS
    }

    /// The priming jobs, one per base program.
    pub fn priming(&self) -> Vec<Job> {
        self.programs
            .iter()
            .map(|(name, text)| Job {
                name: name.clone(),
                text: text.clone(),
                scales: OVERLAP_PRIMED.to_vec(),
                abnorm_thd: None,
                slot: None,
            })
            .collect()
    }
}

impl JobStream for Overlap {
    fn job(&self, i: u64) -> Job {
        let mut rng = Rng::stream(self.seed, i);
        let (name, text) = &self.programs[self.zipf.sample(&mut rng)];
        let mut scales = vec![OVERLAP_SCALES[0]];
        scales.extend(OVERLAP_SCALES[1..].iter().filter(|_| rng.below(2) == 0));
        if scales.len() == 1 {
            scales.push(OVERLAP_SCALES[1 + rng.below(5) as usize]);
        }
        Job {
            name: name.clone(),
            text: text.clone(),
            scales,
            abnorm_thd: Some(1.1 + self.threshold_step(i) as f64 / OVERLAP_THRESHOLDS as f64),
            slot: None,
        }
    }
}

/// `serve_hot`: 64 base jobs (the result cache holds 256), resubmitted
/// byte-identically in a uniform random order.
pub struct Hot {
    seed: u64,
    jobs: Vec<Job>,
}

pub const HOT_JOBS: usize = 64;

impl Hot {
    pub fn new(seed: u64) -> Hot {
        Hot {
            seed,
            jobs: (0..HOT_JOBS)
                .map(|slot| Job {
                    name: format!("hot_{slot}.mmpi"),
                    // Cases past `serve_overlap`'s, so the two differ.
                    text: generated(POPULATION_SEED, OVERLAP_PROGRAMS + slot),
                    scales: DEFAULT_SCALES.to_vec(),
                    abnorm_thd: None,
                    slot: Some(slot),
                })
                .collect(),
        }
    }

    pub fn base_jobs(&self) -> &[Job] {
        &self.jobs
    }
}

impl JobStream for Hot {
    fn job(&self, i: u64) -> Job {
        let slot = Rng::stream(self.seed, i).below(HOT_JOBS as u64) as usize;
        self.jobs[slot].clone()
    }
}

/// A fixed list served in order (priming and warm-up).
pub struct Listed(pub Vec<Job>);

impl JobStream for Listed {
    fn job(&self, i: u64) -> Job {
        self.0[i as usize % self.0.len()].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(stream: &dyn JobStream, n: u64) -> Vec<String> {
        (0..n).map(|i| stream.job(i).body()).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams_and_another_seed_differs() {
        let n = 40;
        assert_eq!(
            bodies(&Unique::new(3, "u"), n),
            bodies(&Unique::new(3, "u"), n)
        );
        assert_ne!(
            bodies(&Unique::new(3, "u"), n),
            bodies(&Unique::new(4, "u"), n)
        );
        assert_eq!(bodies(&Overlap::new(3), n), bodies(&Overlap::new(3), n));
        assert_ne!(bodies(&Overlap::new(3), n), bodies(&Overlap::new(4), n));
        assert_eq!(bodies(&Hot::new(3), n), bodies(&Hot::new(3), n));
        assert_ne!(bodies(&Hot::new(3), n), bodies(&Hot::new(4), n));
    }

    #[test]
    fn unique_jobs_never_repeat_a_name_and_mix_in_paper_apps() {
        let stream = Unique::new(1, "u");
        let jobs: Vec<Job> = (0..128).map(|i| stream.job(i)).collect();
        let mut names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 128);
        // 16 of 128 are paper apps, the nine of them taking turns.
        assert_eq!(
            jobs.iter().filter(|j| j.name.ends_with("_BT.mmpi")).count(),
            2
        );
        assert_eq!(
            jobs.iter()
                .filter(|j| j.name.ends_with("_ZMP.mmpi"))
                .count(),
            1
        );
        let reserve = Unique::new(1, "u").with_abnorm_thd(1.5).job(5);
        assert_eq!(reserve.text, jobs[5].text);
        assert_eq!(reserve.name, jobs[5].name);
        assert_ne!(reserve.body(), jobs[5].body());
    }

    /// A minute of analysis, so not part of the default run: `cargo test
    /// -- --ignored` after a change to the generator or the simulator.
    #[test]
    #[ignore]
    fn every_pool_program_analyzes() {
        for case in 0..UNIQUE_POOL as usize {
            let job = Job {
                name: format!("pool_{case}.mmpi"),
                text: generated(POPULATION_SEED, case),
                scales: DEFAULT_SCALES.to_vec(),
                abnorm_thd: None,
                slot: None,
            };
            if let Err(error) = crate::layers::reference(&job) {
                panic!("case {case}: {error}");
            }
        }
    }

    #[test]
    fn overlap_jobs_start_at_scale_2_ascend_and_have_two_scales_or_more() {
        let stream = Overlap::new(9);
        for i in 0..500 {
            let job = stream.job(i);
            assert_eq!(job.scales[0], 2);
            assert!(job.scales.len() >= 2);
            assert!(job.scales.windows(2).all(|w| w[0] < w[1]));
            let thd = job.abnorm_thd.unwrap();
            assert!((1.1..2.1).contains(&thd));
        }
        assert_eq!(stream.priming().len(), OVERLAP_PROGRAMS);
    }

    #[test]
    fn overlap_jobs_never_repeat_a_key_within_a_run() {
        // Three minutes of ops at the recorded rate, on the seed whose
        // repeated key once met the result cache's eviction.
        let stream = Overlap::new(1_877_697_907);
        let mut thresholds: Vec<u64> = (0..400_000)
            .map(|i| stream.job(i).abnorm_thd.unwrap().to_bits())
            .collect();
        thresholds.sort_unstable();
        thresholds.dedup();
        assert_eq!(thresholds.len(), 400_000);
    }

    #[test]
    fn hot_jobs_are_the_base_jobs() {
        let stream = Hot::new(2);
        for i in 0..200 {
            let job = stream.job(i);
            assert_eq!(job, stream.base_jobs()[job.slot.unwrap()]);
        }
    }
}
