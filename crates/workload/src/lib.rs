//! # mrp-workload — synthetic workload generation
//!
//! The paper evaluates its primitive with synthetic mappers that "read and
//! parse randomly generated input", in the style of the SWIM workload suites
//! (Chen et al., MASCOTS 2011) that Natjam's evaluation also uses. This crate
//! generates such workloads:
//!
//! * [`two_job_scenario`] — the paper's exact setup: a low-priority
//!   single-block job `tl` and a high-priority single-block job `th`;
//! * [`SwimGenerator`] — a SWIM-like multi-job trace: heavy-tailed job sizes,
//!   Poisson arrivals, a mix of stateless and stateful (memory-hungry) jobs —
//!   used by the multi-job scheduler examples and the ablation benches.

#![warn(missing_docs, unreachable_pub)]
#![deny(unsafe_code)]

use mrp_engine::{JobSpec, MapInput, TaskProfile};
use mrp_sim::{SimRng, SimTime, GIB, MIB};
use serde::{Deserialize, Serialize};

/// Names used by the paper for its two jobs.
pub const LOW_PRIORITY_JOB: &str = "tl";
/// Name of the high-priority job in the paper's scenario.
pub const HIGH_PRIORITY_JOB: &str = "th";

/// The paper's two-job workload: both jobs are single-task, map-only, over a
/// 512 MB single-block HDFS file; `tl` has low priority and `th` high
/// priority. `tl_state`/`th_state` bytes of dirty memory are allocated in the
/// respective setup phases (0 for the light-weight baseline, 2 GB+ for the
/// worst-case experiments).
pub fn two_job_scenario(tl_state: u64, th_state: u64) -> (JobSpec, JobSpec) {
    let tl = JobSpec::map_only(LOW_PRIORITY_JOB, "/input/tl-512mb")
        .with_priority(0)
        .with_profile(TaskProfile::memory_hungry(tl_state));
    let th = JobSpec::map_only(HIGH_PRIORITY_JOB, "/input/th-512mb")
        .with_priority(10)
        .with_profile(TaskProfile::memory_hungry(th_state));
    (tl, th)
}

/// Input paths used by [`two_job_scenario`]; the experiment harness creates
/// these files in the simulated HDFS before submitting the jobs.
pub fn two_job_input_files() -> Vec<(String, u64)> {
    vec![
        ("/input/tl-512mb".to_string(), 512 * MIB),
        ("/input/th-512mb".to_string(), 512 * MIB),
    ]
}

/// One job of a generated trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceJob {
    /// When the job is submitted.
    pub arrival: SimTime,
    /// The job specification.
    pub spec: JobSpec,
}

/// Configuration of the SWIM-like generator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SwimConfig {
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Mean inter-arrival time in seconds (exponential distribution).
    pub mean_interarrival_secs: f64,
    /// Bounded-Pareto shape parameter for job input sizes.
    pub size_shape: f64,
    /// Smallest job input size in bytes.
    pub min_job_bytes: u64,
    /// Largest job input size in bytes.
    pub max_job_bytes: u64,
    /// Bytes of input each map task consumes (block size).
    pub bytes_per_task: u64,
    /// Fraction of jobs that are memory-hungry (stateful).
    pub stateful_fraction: f64,
    /// State memory allocated by stateful jobs, in bytes.
    pub stateful_memory: u64,
    /// Fraction of jobs marked high priority.
    pub high_priority_fraction: f64,
    /// Fraction of jobs whose tasks parse slowly (degraded hardware, skewed
    /// records): their long-running tasks pin slots and strand suspended
    /// neighbours, the straggler population fault/speculation scenarios
    /// need. `0.0` (the default) draws nothing from the rng, so existing
    /// traces are byte-identical.
    pub slow_fraction: f64,
    /// Parse rate of slow jobs' tasks, bytes/second (only read when
    /// [`SwimConfig::slow_fraction`] selects a job).
    pub slow_parse_rate_bytes_per_sec: f64,
    /// Only jobs with at most this many map tasks can be slow: a handful of
    /// long-running tasks pins slots (stranding suspended neighbours) without
    /// letting one giant degraded job dominate the whole trace's makespan.
    pub slow_max_tasks: u32,
    /// Reduce tasks as a fraction of each job's map tasks (`ceil(maps *
    /// ratio)`, so any positive ratio gives at least one reduce). `0.0` (the
    /// default) keeps every job map-only and — being a pure function of the
    /// map count, no rng draw — existing traces byte-identical. The
    /// shuffle-fault scenarios use it to give churn something to destroy:
    /// reduces whose map outputs can die mid-shuffle.
    pub reduce_ratio: f64,
    /// Number of tenants jobs are spread over, round-robin by job index
    /// (draw-free, so traces with `1` — the default — stay byte-identical
    /// to pre-tenant ones; `0` behaves like `1`). Multi-tenant scheduling
    /// scenarios use the tags with [`mrp_engine::TenantLedger`]-based
    /// policies.
    #[serde(default)]
    pub tenants: u32,
    /// Fraction of jobs tagged best-effort (scavenger class), selected by a
    /// draw-free fractional accumulator over the job index so `0.0` (the
    /// default) changes nothing. Best-effort jobs are also forced to
    /// priority 0 and tenant 0: they ride under every tenant's quota.
    #[serde(default)]
    pub best_effort_fraction: f64,
}

impl Default for SwimConfig {
    fn default() -> Self {
        SwimConfig {
            jobs: 20,
            mean_interarrival_secs: 60.0,
            size_shape: 1.2,
            min_job_bytes: 128 * MIB,
            max_job_bytes: 4 * GIB,
            bytes_per_task: 128 * MIB,
            stateful_fraction: 0.2,
            stateful_memory: GIB,
            high_priority_fraction: 0.25,
            slow_fraction: 0.0,
            slow_parse_rate_bytes_per_sec: 1.5 * MIB as f64,
            slow_max_tasks: u32::MAX,
            reduce_ratio: 0.0,
            tenants: 1,
            best_effort_fraction: 0.0,
        }
    }
}

/// A SWIM-like synthetic workload generator.
#[derive(Clone, Debug)]
pub struct SwimGenerator {
    config: SwimConfig,
    rng: SimRng,
}

impl SwimGenerator {
    /// Creates a generator with the given configuration and seed.
    pub fn new(config: SwimConfig, seed: u64) -> Self {
        assert!(config.jobs > 0, "a workload needs at least one job");
        assert!(config.min_job_bytes > 0 && config.max_job_bytes > config.min_job_bytes);
        assert!(config.bytes_per_task > 0);
        SwimGenerator {
            config,
            rng: SimRng::new(seed),
        }
    }

    /// Generates the trace: jobs with arrival times, sizes, priorities and
    /// memory profiles.
    pub fn generate(&mut self) -> Vec<TraceJob> {
        let mut out = Vec::with_capacity(self.config.jobs);
        let mut clock = 0.0f64;
        // Fractional accumulator for best-effort tagging: deterministic and
        // draw-free, so fraction 0.0 leaves the rng stream (and thus every
        // existing trace) byte-identical.
        let mut best_effort_acc = 0.0f64;
        for i in 0..self.config.jobs {
            clock += self.rng.exponential(self.config.mean_interarrival_secs);
            let size = self
                .rng
                .bounded_pareto(
                    self.config.size_shape,
                    self.config.min_job_bytes as f64,
                    self.config.max_job_bytes as f64,
                )
                .round() as u64;
            let tasks = size.div_ceil(self.config.bytes_per_task).max(1) as u32;
            let stateful = self.rng.chance(self.config.stateful_fraction);
            let high_priority = self.rng.chance(self.config.high_priority_fraction);
            // Short-circuit keeps the rng sequence of slow-free traces
            // byte-identical to pre-`slow_fraction` generators.
            let slow = self.config.slow_fraction > 0.0
                && self.rng.chance(self.config.slow_fraction)
                && tasks <= self.config.slow_max_tasks;
            let mut profile = if stateful {
                TaskProfile::memory_hungry(self.config.stateful_memory)
            } else {
                TaskProfile::lightweight()
            };
            if slow {
                profile.parse_rate_bytes_per_sec = Some(self.config.slow_parse_rate_bytes_per_sec);
            }
            // Draw-free: a pure function of the map count, so traces with
            // ratio 0.0 stay byte-identical to pre-`reduce_ratio` ones.
            let reduce_tasks = (tasks as f64 * self.config.reduce_ratio).ceil() as u32;
            // Tenant tags and the best-effort class are pure functions of
            // the job index (round-robin resp. fractional accumulator): no
            // rng draws, so default-configured traces stay byte-identical.
            best_effort_acc += self.config.best_effort_fraction;
            let best_effort = best_effort_acc >= 1.0;
            if best_effort {
                best_effort_acc -= 1.0;
            }
            let tenant = if self.config.tenants > 1 && !best_effort {
                i as u32 % self.config.tenants
            } else {
                0
            };
            let spec = JobSpec {
                name: format!("swim-{i:03}"),
                priority: if best_effort {
                    0
                } else if high_priority {
                    10
                } else {
                    0
                },
                input: MapInput::Synthetic {
                    tasks,
                    bytes_per_task: self.config.bytes_per_task,
                },
                reduce_tasks,
                profile,
                tenant,
                best_effort,
            };
            out.push(TraceJob {
                arrival: SimTime::from_secs_f64(clock),
                spec,
            });
        }
        out
    }
}

/// Converts a synthetic SWIM trace into DFS-file-backed jobs plus the list
/// of input files the harness must create (path, bytes) before submitting.
///
/// Synthetic jobs carry no placement preference, so every launch is trivially
/// "node-local"; backing each job with a real HDFS file (one -
/// `bytes_per_task`-sized block per map task, replicas placed by the
/// NameNode) is what makes rack-aware scheduling measurable. The file for
/// job `i` is `{dir}/{job name}`; spread the writers over the cluster when
/// creating them (e.g. via `Cluster::create_input_file_from`) so first
/// replicas do not all stack on node 0.
pub fn dfs_backed(trace: &[TraceJob], dir: &str) -> (Vec<TraceJob>, Vec<(String, u64)>) {
    let mut jobs = Vec::with_capacity(trace.len());
    let mut files = Vec::with_capacity(trace.len());
    for job in trace {
        let MapInput::Synthetic {
            tasks,
            bytes_per_task,
        } = job.spec.input
        else {
            // Already file-backed: pass through unchanged.
            jobs.push(job.clone());
            continue;
        };
        let path = format!("{dir}/{}", job.spec.name);
        files.push((path.clone(), u64::from(tasks) * bytes_per_task));
        let mut spec = job.spec.clone();
        spec.input = MapInput::DfsFile { path };
        jobs.push(TraceJob {
            arrival: job.arrival,
            spec,
        });
    }
    (jobs, files)
}

/// Summary statistics of a generated trace, used in reports and tests.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Number of jobs.
    pub jobs: usize,
    /// Total number of map tasks.
    pub tasks: usize,
    /// Total input bytes.
    pub total_bytes: u64,
    /// Number of high-priority jobs.
    pub high_priority_jobs: usize,
    /// Number of stateful (memory-hungry) jobs.
    pub stateful_jobs: usize,
    /// Time of the last arrival, in seconds.
    pub(crate) last_arrival_secs: f64,
}

/// Summarises a trace.
pub fn summarize(trace: &[TraceJob]) -> TraceSummary {
    let tasks = trace
        .iter()
        .map(|j| match j.spec.input {
            MapInput::Synthetic { tasks, .. } => tasks as usize,
            MapInput::DfsFile { .. } => 1,
        })
        .sum();
    let total_bytes = trace
        .iter()
        .map(|j| match j.spec.input {
            MapInput::Synthetic {
                tasks,
                bytes_per_task,
            } => tasks as u64 * bytes_per_task,
            MapInput::DfsFile { .. } => 0,
        })
        .sum();
    TraceSummary {
        jobs: trace.len(),
        tasks,
        total_bytes,
        high_priority_jobs: trace.iter().filter(|j| j.spec.priority > 0).count(),
        stateful_jobs: trace
            .iter()
            .filter(|j| j.spec.profile.state_memory > 0)
            .count(),
        last_arrival_secs: trace.last().map(|j| j.arrival.as_secs_f64()).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_shapes() {
        let (tl, th) = two_job_scenario(0, 0);
        assert_eq!(tl.name, "tl");
        assert_eq!(th.name, "th");
        assert!(th.priority > tl.priority);
        assert_eq!(tl.profile.state_memory, 0);
        let (_tl, th) = two_job_scenario(2 * GIB, GIB);
        assert_eq!(th.profile.state_memory, GIB);
        assert_eq!(two_job_input_files().len(), 2);
        assert!(two_job_input_files()
            .iter()
            .all(|(_, len)| *len == 512 * MIB));
    }

    #[test]
    fn swim_generates_the_requested_number_of_jobs() {
        let mut g = SwimGenerator::new(SwimConfig::default(), 1);
        let trace = g.generate();
        assert_eq!(trace.len(), 20);
        let summary = summarize(&trace);
        assert_eq!(summary.jobs, 20);
        assert!(summary.tasks >= 20);
        assert!(summary.total_bytes >= 20 * 128 * MIB);
        assert!(summary.last_arrival_secs > 0.0);
    }

    #[test]
    fn swim_arrivals_are_increasing_and_sizes_bounded() {
        let cfg = SwimConfig::default();
        let mut g = SwimGenerator::new(cfg.clone(), 7);
        let trace = g.generate();
        for w in trace.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
        for job in &trace {
            if let MapInput::Synthetic {
                tasks,
                bytes_per_task,
            } = job.spec.input
            {
                let size = tasks as u64 * bytes_per_task;
                assert!(size >= cfg.min_job_bytes);
                assert!(size <= cfg.max_job_bytes + cfg.bytes_per_task);
                assert!(tasks >= 1);
            } else {
                panic!("SWIM jobs are synthetic");
            }
        }
    }

    #[test]
    fn dfs_backed_preserves_shape_and_lists_files() {
        let mut g = SwimGenerator::new(SwimConfig::default(), 5);
        let trace = g.generate();
        let (jobs, files) = dfs_backed(&trace, "/swim");
        assert_eq!(jobs.len(), trace.len());
        assert_eq!(files.len(), trace.len());
        for ((orig, conv), (path, bytes)) in trace.iter().zip(&jobs).zip(&files) {
            assert_eq!(orig.arrival, conv.arrival);
            assert_eq!(orig.spec.name, conv.spec.name);
            assert_eq!(orig.spec.priority, conv.spec.priority);
            let MapInput::Synthetic {
                tasks,
                bytes_per_task,
            } = orig.spec.input
            else {
                panic!("SWIM traces are synthetic");
            };
            assert_eq!(*bytes, u64::from(tasks) * bytes_per_task);
            assert_eq!(path, &format!("/swim/{}", orig.spec.name));
            assert!(matches!(conv.spec.input, MapInput::DfsFile { .. }));
        }
    }

    #[test]
    fn reduce_ratio_adds_reduces_without_perturbing_the_trace() {
        let base = SwimGenerator::new(SwimConfig::default(), 42).generate();
        let cfg = SwimConfig {
            reduce_ratio: 0.25,
            ..SwimConfig::default()
        };
        let with = SwimGenerator::new(cfg, 42).generate();
        assert_eq!(base.len(), with.len());
        for (b, w) in base.iter().zip(&with) {
            // Same arrivals, sizes and profiles: the ratio draws nothing.
            assert_eq!(b.arrival, w.arrival);
            assert_eq!(b.spec.input, w.spec.input);
            assert_eq!(b.spec.profile, w.spec.profile);
            assert_eq!(b.spec.reduce_tasks, 0);
            let MapInput::Synthetic { tasks, .. } = w.spec.input else {
                panic!("SWIM jobs are synthetic");
            };
            assert_eq!(w.spec.reduce_tasks, (tasks as f64 * 0.25).ceil() as u32);
            assert!(w.spec.reduce_tasks >= 1, "any positive ratio gives >= 1");
        }
    }

    #[test]
    fn tenant_tagging_does_not_perturb_the_trace() {
        let base = SwimGenerator::new(SwimConfig::default(), 42).generate();
        let cfg = SwimConfig {
            tenants: 3,
            best_effort_fraction: 0.25,
            ..SwimConfig::default()
        };
        let tagged = SwimGenerator::new(cfg, 42).generate();
        assert_eq!(base.len(), tagged.len());
        let mut best_effort_seen = 0;
        for (i, (b, t)) in base.iter().zip(&tagged).enumerate() {
            // Same arrivals, sizes and profiles: tagging draws nothing.
            assert_eq!(b.arrival, t.arrival);
            assert_eq!(b.spec.input, t.spec.input);
            assert_eq!(b.spec.profile, t.spec.profile);
            assert_eq!(b.spec.tenant, 0);
            assert!(!b.spec.best_effort);
            if t.spec.best_effort {
                best_effort_seen += 1;
                assert_eq!(t.spec.tenant, 0, "best-effort jobs are untagged");
                assert_eq!(t.spec.priority, 0, "best-effort jobs are priority 0");
            } else {
                assert_eq!(t.spec.tenant, i as u32 % 3, "round-robin by job index");
            }
        }
        // A 0.25 fraction over 20 jobs yields exactly 5 best-effort jobs
        // (fractional accumulator, no randomness).
        assert_eq!(best_effort_seen, 5);
    }

    #[test]
    fn swim_is_deterministic_per_seed() {
        let a = SwimGenerator::new(SwimConfig::default(), 42).generate();
        let b = SwimGenerator::new(SwimConfig::default(), 42).generate();
        let c = SwimGenerator::new(SwimConfig::default(), 43).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn swim_heavy_tail_produces_mostly_small_jobs() {
        let cfg = SwimConfig {
            jobs: 400,
            ..SwimConfig::default()
        };
        let mut g = SwimGenerator::new(cfg, 3);
        let trace = g.generate();
        let sizes: Vec<u64> = trace
            .iter()
            .map(|j| match j.spec.input {
                MapInput::Synthetic {
                    tasks,
                    bytes_per_task,
                } => tasks as u64 * bytes_per_task,
                _ => 0,
            })
            .collect();
        let small = sizes.iter().filter(|s| **s <= 512 * MIB).count();
        assert!(
            small * 2 > sizes.len(),
            "a heavy-tailed distribution should be dominated by small jobs ({small}/{})",
            sizes.len()
        );
        let max = *sizes.iter().max().unwrap();
        assert!(max >= GIB, "the tail should reach multi-GB jobs");
    }

    #[test]
    fn priority_and_stateful_fractions_are_respected_roughly() {
        let cfg = SwimConfig {
            jobs: 500,
            high_priority_fraction: 0.3,
            stateful_fraction: 0.5,
            ..SwimConfig::default()
        };
        let mut g = SwimGenerator::new(cfg, 11);
        let summary = summarize(&g.generate());
        let hp = summary.high_priority_jobs as f64 / 500.0;
        let st = summary.stateful_jobs as f64 / 500.0;
        assert!((hp - 0.3).abs() < 0.08, "high-priority fraction {hp}");
        assert!((st - 0.5).abs() < 0.08, "stateful fraction {st}");
    }

    #[test]
    #[should_panic]
    fn empty_workloads_are_rejected() {
        let cfg = SwimConfig {
            jobs: 0,
            ..SwimConfig::default()
        };
        SwimGenerator::new(cfg, 1);
    }

    #[test]
    fn empty_trace_summary() {
        let s = summarize(&[]);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.last_arrival_secs, 0.0);
    }
}
