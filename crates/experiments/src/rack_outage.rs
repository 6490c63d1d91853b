//! Rack-outage scenario: fault-tolerant shuffle and failure-aware placement
//! under the loss of a whole rack.
//!
//! PR 3's churn harness killed nodes; this scenario kills a *rack* — the
//! failure mode that makes shuffle a fault domain. Every map output on the
//! rack's nodes dies with it (they are node-local artifacts, not HDFS
//! blocks), the affected completed maps re-execute, reduces mid-shuffle stall
//! and re-fetch with backoff, and the reliability predictor learns to keep
//! fresh work off the rack's nodes when they rejoin still-flaky. The
//! [`predictor_ablation`] entry point runs the same seeded scenario with the
//! ATLAS-style predictor on and off, so the `rack_outage` quality test can
//! gate on the p99 sojourn improvement.

use mrp_engine::{
    Cluster, ClusterConfig, ClusterReport, FaultEvent, FaultKind, FaultPlan, RackId, RandomFaults,
    ReliabilityConfig, ShuffleConfig, SpeculationConfig, TraceLevel,
};
use mrp_sim::{SimTime, GIB, MIB};
use mrp_workload::{SwimConfig, SwimGenerator};
use serde::{Deserialize, Serialize};

use crate::catalogue::hfsp;

/// One scripted dark window: the rack goes down `at` and rejoins `until`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct OutageWindow {
    /// When the outage strikes.
    pub(crate) at: SimTime,
    /// When the rack rejoins.
    pub(crate) until: SimTime,
}

impl OutageWindow {
    /// Convenience constructor from whole seconds.
    pub(crate) fn from_secs(at: u64, until: u64) -> Self {
        OutageWindow {
            at: SimTime::from_secs(at),
            until: SimTime::from_secs(until),
        }
    }
}

/// Configuration of one rack-outage scenario run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RackOutageConfig {
    /// Number of racks.
    pub(crate) racks: u32,
    /// Nodes per rack.
    pub(crate) nodes_per_rack: u32,
    /// Map slots per node.
    pub(crate) map_slots: u32,
    /// Reduce slots per node.
    pub(crate) reduce_slots: u32,
    /// The SWIM workload; give it a positive
    /// [`SwimConfig::reduce_ratio`] so the outage has shuffles to break.
    pub(crate) swim: SwimConfig,
    /// Which rack the scripted outages take down.
    pub(crate) outage_rack: u32,
    /// Dark windows for `outage_rack`. A *repeat offender* (two or more
    /// windows) is what the reliability predictor is for: between windows
    /// the rack is up but still flaky, and keeping fresh work off it is the
    /// difference between losing one round of map outputs and two.
    pub(crate) outages: Vec<OutageWindow>,
    /// Additional background churn (node kills with recovery), if any.
    pub(crate) churn: Option<RandomFaults>,
    /// Whether the ATLAS-style reliability predictor biases placement.
    pub(crate) predictor: bool,
    /// Workload and cluster seed.
    pub(crate) seed: u64,
}

impl RackOutageConfig {
    /// The repeat-offender shape: 72 nodes in 6 racks under a reduce-heavy
    /// trace at moderate load, rack 1 dark twice with a rejoin in between,
    /// plus light background churn. Between the windows the rack is up but
    /// still flaky; predictor-off re-populates it with map outputs (about a
    /// sixth of the cluster's) that the second outage destroys, while the
    /// load leaves enough slack elsewhere that declining flaky slots costs
    /// little.
    pub fn full() -> Self {
        RackOutageConfig {
            racks: 6,
            nodes_per_rack: 12,
            map_slots: 2,
            reduce_slots: 1,
            swim: SwimConfig {
                jobs: 240,
                mean_interarrival_secs: 4.5,
                size_shape: 0.9,
                min_job_bytes: 512 * MIB,
                max_job_bytes: 24 * GIB,
                reduce_ratio: 0.4,
                ..SwimConfig::default()
            },
            outage_rack: 1,
            outages: vec![
                OutageWindow::from_secs(120, 300),
                OutageWindow::from_secs(390, 540),
            ],
            churn: Some(RandomFaults {
                rack_mtbf_secs: 300.0,
                mean_recovery_secs: Some(45.0),
                horizon: SimTime::from_secs(600),
                seed: 0xACED,
            }),
            predictor: true,
            seed: 0x0A7A,
        }
    }
}

/// What one rack-outage run produced.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RackOutageOutcome {
    /// The full engine report (fault counters included).
    pub report: ClusterReport,
    /// Events the run loop processed.
    pub events: u64,
    /// p50, p95, p99, max of job sojourn time (seconds).
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

/// Runs one rack-outage scenario to completion.
pub fn run_rack_outage(config: &RackOutageConfig) -> RackOutageOutcome {
    let mut events = Vec::new();
    for window in &config.outages {
        events.push(FaultEvent {
            at: window.at,
            kind: FaultKind::RackOutage {
                rack: RackId(config.outage_rack),
            },
        });
        events.push(FaultEvent {
            at: window.until,
            kind: FaultKind::RackRejoin {
                rack: RackId(config.outage_rack),
            },
        });
    }
    let mut cfg = ClusterConfig::racked_cluster(
        config.racks,
        config.nodes_per_rack,
        config.map_slots,
        config.reduce_slots,
    )
    .with_trace_level(TraceLevel::Off)
    .with_seed(config.seed)
    .with_shuffle(ShuffleConfig::fault_tolerant())
    .with_speculation(SpeculationConfig::enabled())
    .with_faults(FaultPlan {
        events,
        random: config.churn,
    });
    if config.predictor {
        cfg = cfg.with_reliability(ReliabilityConfig::predictive());
    }
    let mut cluster = Cluster::new(cfg, hfsp());
    for job in SwimGenerator::new(config.swim.clone(), config.seed).generate() {
        cluster.submit_job_at(job.spec, job.arrival);
    }
    cluster.run(SimTime::from_secs(48 * 3_600));
    let report = cluster.report();
    assert!(
        report.all_jobs_complete(),
        "rack-outage scenario must run to completion"
    );
    let sojourn_quantiles = [
        sojourn_quantile(&report, 0.5),
        sojourn_quantile(&report, 0.95),
        sojourn_quantile(&report, 0.99),
        sojourn_quantile(&report, 1.0),
    ];
    RackOutageOutcome {
        events: cluster.events_processed(),
        sojourn_quantiles,
        report,
    }
}

/// Runs the scenario twice on the same seed — predictor on, then off — and
/// returns `(with_predictor, without)`.
pub fn predictor_ablation(config: &RackOutageConfig) -> (RackOutageOutcome, RackOutageOutcome) {
    let mut on = config.clone();
    on.predictor = true;
    let mut off = config.clone();
    off.predictor = false;
    (run_rack_outage(&on), run_rack_outage(&off))
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RackOutageConfig {
        /// A compact default: 4 racks under moderate reduce-heavy load, rack 1
        /// lost for two minutes mid-trace, light background churn.
        fn compact() -> Self {
            RackOutageConfig {
                racks: 4,
                nodes_per_rack: 6,
                map_slots: 2,
                reduce_slots: 1,
                swim: SwimConfig {
                    jobs: 48,
                    mean_interarrival_secs: 4.0,
                    reduce_ratio: 0.34,
                    slow_fraction: 0.1,
                    slow_parse_rate_bytes_per_sec: 1.6 * MIB as f64,
                    slow_max_tasks: 8,
                    ..SwimConfig::default()
                },
                outage_rack: 1,
                outages: vec![OutageWindow::from_secs(120, 240)],
                churn: Some(RandomFaults {
                    rack_mtbf_secs: 240.0,
                    mean_recovery_secs: Some(60.0),
                    horizon: SimTime::from_secs(900),
                    seed: 0xACED,
                }),
                predictor: true,
                seed: 0x0514,
            }
        }
    }

    #[test]
    fn compact_rack_outage_loses_and_reexecutes_map_outputs() {
        let cfg = RackOutageConfig::compact();
        let a = run_rack_outage(&cfg);
        let b = run_rack_outage(&cfg);
        assert_eq!(a, b, "fixed-seed rack outage must be deterministic");
        let f = a.report.faults;
        assert!(
            f.lost_map_outputs >= 1,
            "the outage must destroy committed map outputs: {f:?}"
        );
        assert!(
            f.shuffle_refetches >= 1,
            "stalled reduces must re-fetch: {f:?}"
        );
        assert!(
            f.re_executed_tasks >= f.lost_map_outputs,
            "every lost output re-executes its map: {f:?}"
        );
        assert!(a.sojourn_quantiles[0] <= a.sojourn_quantiles[3]);
    }

    #[test]
    fn predictor_ablation_runs_both_sides() {
        let (on, off) = predictor_ablation(&RackOutageConfig::compact());
        // Same workload, same faults: the predictor changes placement only.
        assert_eq!(
            on.report.faults.node_failures,
            off.report.faults.node_failures
        );
        assert!(on.sojourn_quantiles[2] > 0.0 && off.sojourn_quantiles[2] > 0.0);
    }
}
