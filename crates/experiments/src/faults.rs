//! Failure-scenario harness: SWIM churn plus fault injection, with
//! speculative re-execution togglable.
//!
//! The paper evaluates preemption on a failure-free testbed; this harness
//! asks the follow-up question its Section V invites: *what do the
//! primitives cost when nodes actually die?* A suspended task's paged-out
//! state lives on its node, so node loss destroys exactly the work
//! suspension was preserving — and speculative re-execution (backup attempts
//! for stranded stragglers, first finisher wins) is the mitigation. The
//! [`speculation_ablation`] entry point runs the same seeded scenario with
//! speculation on and off and reports the tail-latency difference alongside
//! the engine's [`FaultStats`].

use mrp_engine::{
    Cluster, ClusterConfig, ClusterReport, DetectorConfig, FaultPlan, RandomFaults,
    SpeculationConfig, TraceLevel,
};
use mrp_sim::{SimTime, MIB};
use mrp_workload::{SwimConfig, SwimGenerator};
use serde::{Deserialize, Serialize};

use crate::catalogue::hfsp;

/// Configuration of one fault-injection scenario run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultScenarioConfig {
    /// Number of racks.
    pub racks: u32,
    /// Nodes per rack.
    pub nodes_per_rack: u32,
    /// Map slots per node.
    pub map_slots: u32,
    /// The SWIM workload (heavy-tailed sizes, Poisson arrivals, optionally a
    /// slow-job straggler population via [`SwimConfig::slow_fraction`]).
    pub swim: SwimConfig,
    /// Seeded random churn injected through [`ClusterConfig::faults`].
    pub faults: RandomFaults,
    /// Whether speculative re-execution is enabled.
    pub speculation: bool,
    /// Failure-detection settings (default: disabled, faults observed
    /// instantaneously — the pre-detector behaviour).
    pub detector: DetectorConfig,
    /// Workload seed.
    pub seed: u64,
}

impl FaultScenarioConfig {
    /// A compact default: a 6-rack cluster under moderate load with per-rack
    /// MTBF churn and a slow-job straggler population.
    pub fn compact() -> Self {
        FaultScenarioConfig {
            racks: 6,
            nodes_per_rack: 8,
            map_slots: 2,
            swim: SwimConfig {
                jobs: 80,
                mean_interarrival_secs: 3.0,
                slow_fraction: 0.15,
                slow_parse_rate_bytes_per_sec: 1.6 * MIB as f64,
                slow_max_tasks: 8,
                ..SwimConfig::default()
            },
            faults: RandomFaults {
                rack_mtbf_secs: 90.0,
                mean_recovery_secs: Some(45.0),
                horizon: SimTime::from_secs(600),
                seed: 0xFA11,
            },
            speculation: true,
            detector: DetectorConfig::default(),
            seed: 0x5EED,
        }
    }
}

/// What one fault-scenario run produced.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultScenarioOutcome {
    /// The full engine report (fault counters included).
    pub report: ClusterReport,
    /// Events the run loop processed.
    pub events: u64,
    /// The `q`-quantiles of job sojourn time requested via
    /// [`run_fault_scenario`]'s fixed set: p50, p95, p99, max (seconds).
    pub sojourn_quantiles: [f64; 4],
}

/// The `q`-quantile (0..=1) of completed-job sojourn times, in seconds.
pub fn sojourn_quantile(report: &ClusterReport, q: f64) -> f64 {
    let mut sojourns: Vec<f64> = report.jobs.iter().filter_map(|j| j.sojourn_secs).collect();
    if sojourns.is_empty() {
        return 0.0;
    }
    sojourns.sort_by(|a, b| a.partial_cmp(b).expect("sojourns are finite"));
    sojourns[((sojourns.len() - 1) as f64 * q).round() as usize]
}

/// Runs one fault-injection scenario to completion.
pub fn run_fault_scenario(config: &FaultScenarioConfig) -> FaultScenarioOutcome {
    let mut cfg =
        ClusterConfig::racked_cluster(config.racks, config.nodes_per_rack, config.map_slots, 1)
            .with_trace_level(TraceLevel::Off)
            .with_seed(config.seed)
            .with_faults(FaultPlan {
                events: Vec::new(),
                random: Some(config.faults),
            })
            .with_detector(config.detector);
    if config.speculation {
        cfg = cfg.with_speculation(SpeculationConfig::enabled());
    }
    let mut cluster = Cluster::new(cfg, hfsp());
    for job in SwimGenerator::new(config.swim.clone(), config.seed).generate() {
        cluster.submit_job_at(job.spec, job.arrival);
    }
    cluster.run(SimTime::from_secs(48 * 3_600));
    let report = cluster.report();
    assert!(
        report.all_jobs_complete(),
        "fault scenario must run to completion"
    );
    let sojourn_quantiles = [
        sojourn_quantile(&report, 0.5),
        sojourn_quantile(&report, 0.95),
        sojourn_quantile(&report, 0.99),
        sojourn_quantile(&report, 1.0),
    ];
    FaultScenarioOutcome {
        report,
        events: cluster.events_processed(),
        sojourn_quantiles,
    }
}

/// Runs the scenario twice on the same seed — speculation on, then off —
/// and returns `(with_speculation, without)`.
pub fn speculation_ablation(
    config: &FaultScenarioConfig,
) -> (FaultScenarioOutcome, FaultScenarioOutcome) {
    let mut on = config.clone();
    on.speculation = true;
    let mut off = config.clone();
    off.speculation = false;
    (run_fault_scenario(&on), run_fault_scenario(&off))
}

/// Runs the scenario twice on the same seed — failure detector on (default
/// threshold), then off — and returns `(with_detector, without)`. The
/// detector side pays detection lag on every churn kill; comparing the two
/// quantifies what suspicion-based detection costs under otherwise identical
/// faults.
pub fn detection_ablation(
    config: &FaultScenarioConfig,
) -> (FaultScenarioOutcome, FaultScenarioOutcome) {
    let mut on = config.clone();
    on.detector = DetectorConfig::enabled();
    let mut off = config.clone();
    off.detector = DetectorConfig::default();
    (run_fault_scenario(&on), run_fault_scenario(&off))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_fault_scenario_completes_with_churn_and_is_deterministic() {
        let cfg = FaultScenarioConfig::compact();
        let a = run_fault_scenario(&cfg);
        let b = run_fault_scenario(&cfg);
        assert_eq!(a, b, "fixed-seed fault scenario must be deterministic");
        let faults = a.report.faults;
        assert!(faults.node_failures >= 1, "{faults:?}");
        assert!(faults.re_executed_tasks >= 1, "{faults:?}");
        assert!(a.sojourn_quantiles[0] <= a.sojourn_quantiles[3]);
    }

    #[test]
    fn detection_ablation_pays_lag_only_on_the_detector_side() {
        let (on, off) = detection_ablation(&FaultScenarioConfig::compact());
        assert_eq!(off.report.faults.failures_detected, 0);
        assert_eq!(off.report.faults.detection_lag_secs_max, 0.0);
        let faults = on.report.faults;
        assert!(faults.failures_detected >= 1, "{faults:?}");
        assert!(faults.detection_lag_secs_max > 0.0, "{faults:?}");
        assert_eq!(faults.duplicate_commits, 0);
        // Every run still drains the workload.
        assert!(on.report.all_jobs_complete());
    }

    #[test]
    fn speculation_ablation_runs_both_sides() {
        let (on, off) = speculation_ablation(&FaultScenarioConfig::compact());
        assert_eq!(off.report.faults.speculative_launched, 0);
        // Speculation must never make the tail worse on this seed.
        assert!(on.sojourn_quantiles[2] <= off.sojourn_quantiles[2] + 1e-9);
    }
}
