//! Delay-scheduling locality sweep: the node-local-rate vs p99-sojourn
//! trade-off curve.
//!
//! Delay scheduling buys data locality with bounded waiting, so its two
//! costs and its one benefit sit on a single knob — the per-level wait
//! thresholds. This harness runs the same seeded, DFS-backed SWIM workload
//! under HFSP suspend/resume once per delay setting (`0` = greedy
//! placement) and reports, per point, the node-local launch rate against
//! the p99 job sojourn and the makespan, plus the scoreboard's decline
//! counters. The `locality_delay` quality test pins the two-point (off/on)
//! version of this curve; this sweep draws the whole trade-off for
//! `docs/PERF.md`.

use crate::catalogue::dfs_backed_cluster;
use crate::rack_outage::sojourn_quantile;
use mrp_engine::{ClusterConfig, TraceLevel};
use mrp_sim::SimTime;
use mrp_workload::{SwimConfig, SwimGenerator};
use serde::{Deserialize, Serialize};

/// Configuration of one delay-scheduling sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DelaySweepConfig {
    /// Number of racks.
    pub racks: u32,
    /// Nodes per rack.
    pub nodes_per_rack: u32,
    /// Map slots per node.
    pub map_slots: u32,
    /// The SWIM workload (DFS-backed, so map tasks have replica holders to
    /// be local to).
    pub swim: SwimConfig,
    /// Total delay per sweep point, in heartbeat intervals; split evenly
    /// between the node-local and rack-local waits. `0.0` disables delay
    /// scheduling (the greedy baseline).
    pub(crate) delay_intervals: Vec<f64>,
    /// Workload seed.
    pub(crate) seed: u64,
}

impl DelaySweepConfig {
    /// A compact sweep a test can afford: a 4-rack cluster under moderate
    /// load, swept from greedy to a 4-interval delay.
    pub fn compact() -> Self {
        DelaySweepConfig {
            racks: 4,
            nodes_per_rack: 8,
            map_slots: 2,
            swim: SwimConfig {
                jobs: 50,
                mean_interarrival_secs: 2.0,
                ..SwimConfig::default()
            },
            delay_intervals: vec![0.0, 0.5, 1.0, 2.0, 4.0],
            seed: 0x10CA,
        }
    }
}

/// One point of the locality-vs-delay trade-off curve.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DelaySweepRow {
    /// Total delay in heartbeat intervals (0 = greedy placement).
    pub(crate) delay_intervals: f64,
    /// Fraction of map launches that were node-local.
    pub(crate) node_local_ratio: f64,
    /// Fraction of map launches that were rack-local.
    pub(crate) rack_local_ratio: f64,
    /// p99 of completed-job sojourn times, seconds.
    pub(crate) p99_sojourn_secs: f64,
    /// Workload makespan, seconds.
    pub(crate) makespan_secs: f64,
    /// Launch opportunities declined while waiting for locality.
    pub(crate) delayed_skips: u64,
}

/// Runs the sweep: one full simulation per delay point, same seed and
/// workload throughout.
pub fn delay_locality_sweep(config: &DelaySweepConfig) -> Vec<DelaySweepRow> {
    let trace = SwimGenerator::new(config.swim.clone(), config.seed).generate();
    config
        .delay_intervals
        .iter()
        .map(|&intervals| {
            let mut cfg = ClusterConfig::racked_cluster(
                config.racks,
                config.nodes_per_rack,
                config.map_slots,
                1,
            )
            .with_trace_level(TraceLevel::Off);
            if intervals > 0.0 {
                cfg = cfg.with_delay_intervals(intervals / 2.0, intervals / 2.0);
            }
            let mut cluster = dfs_backed_cluster(cfg, &trace, "/delay-sweep");
            cluster.run(SimTime::from_secs(48 * 3_600));
            let report = cluster.report();
            assert!(
                report.all_jobs_complete(),
                "sweep point {intervals} must run to completion"
            );
            DelaySweepRow {
                delay_intervals: intervals,
                node_local_ratio: report.locality.node_local_ratio(),
                rack_local_ratio: report.locality.rack_local_ratio(),
                p99_sojourn_secs: sojourn_quantile(&report, 0.99),
                makespan_secs: report.makespan_secs().expect("all jobs complete"),
                delayed_skips: report.locality.delayed_skips,
            }
        })
        .collect()
}

/// Renders the sweep as a markdown table (the `delay_sweep` example prints
/// this; `docs/PERF.md` embeds a captured run).
pub fn delay_sweep_table(rows: &[DelaySweepRow]) -> String {
    let mut out = String::from(
        "| delay (heartbeat intervals) | node-local | rack-local | p99 sojourn (s) | makespan (s) | skipped launches |\n\
         |---|---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {:.1} | {:.1}% | {:.1}% | {:.0} | {:.0} | {} |\n",
            r.delay_intervals,
            r.node_local_ratio * 100.0,
            r.rack_local_ratio * 100.0,
            r.p99_sojourn_secs,
            r.makespan_secs,
            r.delayed_skips,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_sweep_trades_latency_for_locality_deterministically() {
        let cfg = DelaySweepConfig::compact();
        let rows = delay_locality_sweep(&cfg);
        assert_eq!(rows.len(), cfg.delay_intervals.len());
        let greedy = &rows[0];
        let longest = rows.last().unwrap();
        assert_eq!(greedy.delayed_skips, 0, "greedy never declines");
        assert!(longest.delayed_skips > 0, "delay must decline");
        assert!(
            longest.node_local_ratio > greedy.node_local_ratio,
            "locality must improve with delay: {:?} vs {:?}",
            longest.node_local_ratio,
            greedy.node_local_ratio
        );
        // Monotone non-decreasing locality along the sweep (same workload,
        // longer waits).
        for pair in rows.windows(2) {
            assert!(
                pair[1].node_local_ratio >= pair[0].node_local_ratio - 0.05,
                "locality should not collapse as delay grows: {pair:?}"
            );
        }
        // Determinism: the same sweep reproduces bit-identically.
        assert_eq!(rows, delay_locality_sweep(&cfg));
        // The table renders every row.
        let table = delay_sweep_table(&rows);
        assert_eq!(table.lines().count(), 2 + rows.len());
    }
}
