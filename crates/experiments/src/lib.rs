//! # mrp-experiments — the paper's evaluation, reproduced
//!
//! One entry point per figure of "OS-Assisted Task Preemption for Hadoop"
//! (Section IV), plus the ablations its discussion section suggests:
//!
//! | Paper artefact | Function |
//! |---|---|
//! | Figure 2a/2b (light-weight baseline) | [`figure2`] |
//! | Figure 3a/3b (memory-hungry worst case) | [`figure3`] |
//! | Figure 4 (overheads vs. memory footprint) | [`figure4`] |
//! | Natjam ~7% overhead comparison (Sec. IV-C) | [`natjam_comparison`] |
//! | Eviction-policy discussion (Sec. V-A) | [`eviction_ablation`] |
//! | Resume-locality discussion (Sec. V-A) | [`resume_locality_ablation`] |
//!
//! Each experiment returns a [`FigureData`] table that [`to_table`] /
//! [`to_csv`] render; the `paper_figures` example prints them all. The
//! crate defines no scheduling policy of its own: the eviction ablation
//! runs `mrp_preempt::PriorityScheduler`, the tenant scenarios
//! `MultiTenantScheduler`, and the rest the dummy and HFSP schedulers of
//! the same crate.
//!
//! The crate also holds the scenario catalogue: the fixed-seed cluster
//! shapes ([`SwimClusterConfig`], [`PartitionDetectConfig`],
//! [`FaultChurnConfig`], `sim_throughput`, plus [`RackOutageConfig`],
//! [`TenantScenarioConfig`] and [`MemoryPressureConfig`]) that the
//! quality-bar tests pin and the `check_bench` timing gate runs.
//!
//! ```no_run
//! use mrp_experiments::{run_figure, Figure, to_table};
//!
//! for data in run_figure(Figure::F2a, 1) {
//!     println!("{}", to_table(&data));
//! }
//! ```

#![warn(missing_docs, unreachable_pub)]
#![deny(unsafe_code)]

mod catalogue;
mod figures;
mod locality;
mod memory;
mod rack_outage;
mod report;
mod scenario;
mod tenants;

pub use catalogue::{
    sim_throughput_cluster, sim_throughput_config, FaultChurnConfig, PartitionDetectConfig,
    SwimClusterConfig, CATALOGUE_HORIZON,
};
pub use figures::{
    eviction_ablation, figure2, figure3, figure4, natjam_comparison, resume_locality_ablation,
    run_figure, Figure, FigureData,
};
pub use locality::{delay_locality_sweep, delay_sweep_table, DelaySweepConfig, DelaySweepRow};
pub use memory::{
    memory_pressure_cluster, resume_ablation, resume_cost_curve, run_memory_pressure,
    MemoryPressureConfig, MemoryPressureOutcome, ResumeCostPoint,
};
pub use rack_outage::{
    predictor_ablation, run_rack_outage, sojourn_quantile, RackOutageConfig, RackOutageOutcome,
};
pub use report::{to_csv, to_table};
pub use scenario::{run_once, run_scenario, ScenarioConfig, ScenarioOutcome, SingleRun};
pub use tenants::{
    reclaim_ablation, run_tenant_scenario, TenantScenarioConfig, TenantScenarioOutcome,
};

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_preempt::PreemptionPrimitive;

    #[test]
    fn all_figures_produce_tables() {
        // Smoke-test the full harness at one repetition; the detailed shape
        // assertions live in the figures module and the integration tests.
        for figure in [Figure::NatjamComparison, Figure::ResumeLocality] {
            let data = run_figure(figure, 1);
            assert!(!data.is_empty());
            for d in data {
                assert!(!d.rows.is_empty());
                assert!(!to_table(&d).is_empty());
                assert!(!to_csv(&d).is_empty());
            }
        }
    }

    #[test]
    fn scenario_outcome_exposes_paper_metrics() {
        let outcome = run_scenario(&ScenarioConfig::lightweight(PreemptionPrimitive::Kill, 0.3));
        assert!(outcome.sojourn_th_secs.mean > 0.0);
        assert!(outcome.makespan_secs.mean > outcome.sojourn_th_secs.mean);
        assert!(outcome.wasted_work_secs.mean > 0.0);
    }
}
