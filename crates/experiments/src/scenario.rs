//! The paper's experimental scenario (Section IV-A) as a reusable harness.
//!
//! Two single-task map-only jobs over 512 MB single-block HDFS files run on a
//! single node with one map slot. The dummy scheduler preempts the
//! low-priority job `tl` when it reaches a completion rate `r`, hands the slot
//! to the high-priority job `th`, and restores `tl` once `th` completes. Each
//! configuration is repeated (the paper uses 20 runs) with derived seeds and
//! summarised.

use mrp_engine::{Cluster, ClusterConfig, ClusterReport};
use mrp_preempt::{DummyPlan, DummyScheduler, PreemptionPrimitive};
use mrp_sim::{SimTime, Summary};
use mrp_workload::{two_job_input_files, two_job_scenario, HIGH_PRIORITY_JOB, LOW_PRIORITY_JOB};
use serde::{Deserialize, Serialize};

/// Configuration of one scenario point (one x-axis position of one curve).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Preemption primitive under test.
    pub(crate) primitive: PreemptionPrimitive,
    /// Progress fraction of `tl` at which `th` is launched (the paper's `r`).
    pub(crate) preempt_at: f64,
    /// Dirty state memory allocated by `tl` in its setup phase.
    pub(crate) tl_state_memory: u64,
    /// Dirty state memory allocated by `th` in its setup phase.
    pub(crate) th_state_memory: u64,
    /// Number of repetitions to average over (the paper uses 20).
    pub(crate) repetitions: usize,
    /// Base seed; repetition `i` uses `base_seed + i`.
    pub(crate) base_seed: u64,
    /// Cluster configuration (defaults to the paper's single node).
    pub(crate) cluster: ClusterConfig,
}

impl ScenarioConfig {
    /// The paper's light-weight baseline at preemption point `r`.
    pub fn lightweight(primitive: PreemptionPrimitive, preempt_at: f64) -> Self {
        ScenarioConfig {
            primitive,
            preempt_at,
            tl_state_memory: 0,
            th_state_memory: 0,
            repetitions: 3,
            base_seed: 1,
            cluster: ClusterConfig::paper_single_node(),
        }
    }

    /// The paper's memory-hungry worst case (both tasks allocate 2 GB).
    pub fn memory_hungry(primitive: PreemptionPrimitive, preempt_at: f64, state: u64) -> Self {
        ScenarioConfig {
            tl_state_memory: state,
            th_state_memory: state,
            ..ScenarioConfig::lightweight(primitive, preempt_at)
        }
    }

    /// Sets the repetition count, builder style.
    pub(crate) fn with_repetitions(mut self, repetitions: usize) -> Self {
        self.repetitions = repetitions.max(1);
        self
    }
}

/// Measurements extracted from one simulated run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SingleRun {
    /// Sojourn time of `th` in seconds.
    pub sojourn_th_secs: f64,
    /// Workload makespan in seconds.
    pub makespan_secs: f64,
    /// Bytes of `tl`'s memory paged out to swap.
    pub tl_paged_out_bytes: u64,
    /// Attempts used by `tl` (2 means it was killed and re-run).
    pub tl_attempts: u32,
    /// Suspend/resume cycles `tl` went through.
    pub tl_suspend_cycles: u32,
    /// The full engine report: node-wide swap traffic, wasted work and
    /// everything else not summarised above.
    pub report: ClusterReport,
}

/// Averaged outcome of a scenario configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// The configuration that produced this outcome.
    pub(crate) primitive: PreemptionPrimitive,
    /// The preemption point.
    pub(crate) preempt_at: f64,
    /// Sojourn time of `th` (seconds) across repetitions.
    pub(crate) sojourn_th_secs: Summary,
    /// Makespan (seconds) across repetitions.
    pub(crate) makespan_secs: Summary,
    /// `tl` paged-out bytes across repetitions.
    pub(crate) tl_paged_out_bytes: Summary,
    /// Wasted work (seconds) across repetitions.
    pub(crate) wasted_work_secs: Summary,
}

/// Runs the scenario once with the given seed.
pub fn run_once(config: &ScenarioConfig, seed: u64) -> SingleRun {
    let (tl, th) = two_job_scenario(config.tl_state_memory, config.th_state_memory);
    let plan = DummyPlan::paper_scenario(config.primitive, LOW_PRIORITY_JOB, th, config.preempt_at);
    let scheduler = DummyScheduler::new(plan);
    let triggers = scheduler.required_triggers();

    let cluster_config = config.cluster.clone().with_seed(seed);
    let mut cluster = Cluster::new(cluster_config, Box::new(scheduler));
    for (path, len) in two_job_input_files() {
        cluster
            .create_input_file(&path, len)
            .expect("scenario input files are created once per run");
    }
    for (job, task, fraction) in triggers {
        cluster.add_progress_trigger(&job, task, fraction);
    }
    cluster.submit_job(tl);
    cluster.run(SimTime::from_secs(24 * 3_600));
    let report = cluster.report();
    assert!(
        report.all_jobs_complete(),
        "scenario run did not complete: primitive={} r={}",
        config.primitive,
        config.preempt_at
    );

    let tl_report = report.job(LOW_PRIORITY_JOB).expect("tl exists").clone();
    SingleRun {
        sojourn_th_secs: report
            .sojourn_secs(HIGH_PRIORITY_JOB)
            .expect("th completed"),
        makespan_secs: report.makespan_secs().expect("all jobs completed"),
        tl_paged_out_bytes: tl_report.paged_out_bytes(),
        tl_attempts: tl_report.tasks[0].attempts,
        tl_suspend_cycles: tl_report.tasks[0].suspend_cycles,
        report,
    }
}

/// Runs the scenario `config.repetitions` times and summarises the metrics.
pub fn run_scenario(config: &ScenarioConfig) -> ScenarioOutcome {
    let mut sojourn = Vec::new();
    let mut makespan = Vec::new();
    let mut paged = Vec::new();
    let mut wasted = Vec::new();
    for i in 0..config.repetitions.max(1) {
        let run = run_once(config, config.base_seed + i as u64);
        sojourn.push(run.sojourn_th_secs);
        makespan.push(run.makespan_secs);
        paged.push(run.tl_paged_out_bytes as f64);
        wasted.push(run.report.total_wasted_work_secs());
    }
    ScenarioOutcome {
        primitive: config.primitive,
        preempt_at: config.preempt_at,
        sojourn_th_secs: Summary::of(&sojourn).expect("at least one repetition"),
        makespan_secs: Summary::of(&makespan).expect("at least one repetition"),
        tl_paged_out_bytes: Summary::of(&paged).expect("at least one repetition"),
        wasted_work_secs: Summary::of(&wasted).expect("at least one repetition"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_sim::GIB;

    #[test]
    fn lightweight_run_matches_paper_magnitudes() {
        let run = run_once(
            &ScenarioConfig::lightweight(PreemptionPrimitive::SuspendResume, 0.5),
            1,
        );
        assert!(
            (75.0..110.0).contains(&run.sojourn_th_secs),
            "sojourn {}",
            run.sojourn_th_secs
        );
        assert!(
            (150.0..200.0).contains(&run.makespan_secs),
            "makespan {}",
            run.makespan_secs
        );
        assert_eq!(run.tl_suspend_cycles, 1);
        assert_eq!(run.tl_attempts, 1);
        assert_eq!(
            run.report.total_swap_out_bytes(),
            0,
            "light-weight tasks never page"
        );
        // Both jobs' single-block inputs are written from node 0 of a
        // single-node cluster: all launches are node-local.
        assert_eq!(run.report.locality.total(), 2);
        assert_eq!(run.report.locality.node_local_ratio(), 1.0);
    }

    #[test]
    fn wait_sojourn_exceeds_suspend_sojourn_early() {
        let susp = run_once(
            &ScenarioConfig::lightweight(PreemptionPrimitive::SuspendResume, 0.1),
            1,
        );
        let wait = run_once(
            &ScenarioConfig::lightweight(PreemptionPrimitive::Wait, 0.1),
            1,
        );
        assert!(wait.sojourn_th_secs > susp.sojourn_th_secs + 40.0);
    }

    #[test]
    fn memory_hungry_runs_page() {
        let run = run_once(
            &ScenarioConfig::memory_hungry(PreemptionPrimitive::SuspendResume, 0.5, 2 * GIB),
            1,
        );
        assert!(run.report.total_swap_out_bytes() > 0);
        assert!(run.tl_paged_out_bytes > 0);
        assert!(
            run.report.total_swap_in_bytes() > 0,
            "the resumed task must fault its memory back in"
        );
    }

    #[test]
    fn kill_never_pages_but_wastes_work() {
        let run = run_once(
            &ScenarioConfig::memory_hungry(PreemptionPrimitive::Kill, 0.5, 2 * GIB),
            1,
        );
        assert_eq!(run.tl_paged_out_bytes, 0);
        assert_eq!(run.tl_attempts, 2);
        assert!(run.report.total_wasted_work_secs() > 20.0);
    }

    #[test]
    fn scenario_summary_is_tight_across_repetitions() {
        let outcome = run_scenario(
            &ScenarioConfig::lightweight(PreemptionPrimitive::SuspendResume, 0.5)
                .with_repetitions(3),
        );
        assert_eq!(outcome.sojourn_th_secs.count, 3);
        // The paper reports min/max within 5% of the mean; the deterministic
        // simulator is tighter still.
        assert!(outcome.sojourn_th_secs.relative_spread() < 0.05);
        assert!(outcome.makespan_secs.relative_spread() < 0.05);
    }
}
