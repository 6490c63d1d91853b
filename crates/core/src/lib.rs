//! # mrp-preempt — OS-assisted task preemption for Hadoop
//!
//! This crate is the reproduction of the paper's contribution ("OS-Assisted
//! Task Preemption for Hadoop", Pastorelli, Dell'Amico, Michiardi — ICDCS
//! 2014) as a library:
//!
//! * [`PreemptionPrimitive`] — the `wait` / `kill` / `suspend-resume`
//!   primitives (plus a Natjam-style checkpoint reference point) and their
//!   mapping onto JobTracker actions;
//! * [`DummyScheduler`] / [`DummyPlan`] — the paper's trigger-driven "dummy"
//!   scheduler, configurable from static (JSON) files, used by every
//!   experiment in Section IV;
//! * [`EvictionPolicy`] — the task eviction policies discussed in Section V-A
//!   (closest-to-completion, smallest-memory-footprint, …);
//! * [`FairScheduler`] and [`HfspScheduler`] — preemptive fairness and
//!   size-based schedulers showing the primitive plugged into realistic
//!   policies (Section II's motivation and the HFSP follow-up);
//! * [`MultiTenantScheduler`] — weighted DRF across tenants, with quota
//!   reclaim by kill or suspend and best-effort backfill;
//! * [`NatjamModel`] — an analytical cost model of application-level
//!   checkpointing for the comparison the paper makes qualitatively.
//!
//! The mechanics of suspension (heartbeat-piggybacked commands, `SIGTSTP` /
//! `SIGCONT` on the task processes, paging of suspended tasks under memory
//! pressure) live in the `mrp-engine` and `mrp-simos` substrate crates; this
//! crate supplies the policies and the user-facing vocabulary. Placement is
//! the engine's too: the FAIR, HFSP and multi-tenant schedulers only supply
//! a job order to its slot filler, [`mrp_engine::fill_node`], which the
//! engine's FIFO default places through as well, and add their own
//! preemption stages.
//!
//! ```
//! use mrp_preempt::{DummyPlan, DummyScheduler, PreemptionPrimitive};
//! use mrp_engine::{Cluster, ClusterConfig, JobSpec};
//! use mrp_sim::{SimTime, MIB};
//!
//! // The paper's scenario: suspend tl at 50% progress to run th.
//! let high = JobSpec::map_only("th", "/input-high").with_priority(10);
//! let plan = DummyPlan::paper_scenario(PreemptionPrimitive::SuspendResume, "tl", high, 0.5);
//! let scheduler = DummyScheduler::new(plan);
//! let triggers = scheduler.required_triggers();
//!
//! let mut cluster = Cluster::new(ClusterConfig::paper_single_node(), Box::new(scheduler));
//! cluster.create_input_file("/input-low", 512 * MIB).unwrap();
//! cluster.create_input_file("/input-high", 512 * MIB).unwrap();
//! for (job, task, fraction) in triggers {
//!     cluster.add_progress_trigger(&job, task, fraction);
//! }
//! cluster.submit_job(JobSpec::map_only("tl", "/input-low"));
//! cluster.run(SimTime::from_secs(3_600));
//!
//! let report = cluster.report();
//! assert!(report.all_jobs_complete());
//! assert_eq!(report.job("tl").unwrap().tasks[0].suspend_cycles, 1);
//! ```

#![warn(missing_docs, unreachable_pub)]

mod dummy;
mod eviction;
pub mod json;
mod natjam;
pub mod obs_export;
mod pipeline;
mod primitive;
mod schedulers;

pub use dummy::{DummyPlan, DummyScheduler, PlanJsonError};
pub use eviction::{EvictionCandidate, EvictionPolicy};
pub use natjam::NatjamModel;
pub use primitive::{PreemptionPrimitive, UnknownPrimitive};
pub use schedulers::{FairScheduler, HfspScheduler, MultiTenantConfig, MultiTenantScheduler};

#[cfg(test)]
mod randomized_tests {
    //! Property-style tests driven by seeded randomization (the container has
    //! no proptest); fixed seeds keep every failure reproducible.

    use super::*;
    use mrp_engine::{Cluster, ClusterConfig, JobSpec};
    use mrp_sim::{SimRng, SimTime, MIB};

    fn run_scenario(primitive: PreemptionPrimitive, fraction: f64) -> mrp_engine::ClusterReport {
        let high = JobSpec::map_only("th", "/h").with_priority(10);
        let plan = DummyPlan::paper_scenario(primitive, "tl", high, fraction);
        let scheduler = DummyScheduler::new(plan);
        let triggers = scheduler.required_triggers();
        let mut cluster = Cluster::new(ClusterConfig::paper_single_node(), Box::new(scheduler));
        cluster.create_input_file("/l", 512 * MIB).unwrap();
        cluster.create_input_file("/h", 512 * MIB).unwrap();
        for (job, task, f) in triggers {
            cluster.add_progress_trigger(&job, task, f);
        }
        cluster.submit_job(JobSpec::map_only("tl", "/l"));
        cluster.run(SimTime::from_secs(8 * 3_600));
        cluster.report()
    }

    /// For any preemption point, the paper's qualitative ordering holds:
    /// suspend/resume never wastes work, kill always restarts the victim,
    /// wait never preempts, and all three complete the workload.
    #[test]
    fn primitive_semantics_hold_for_any_preemption_point() {
        let mut rng = SimRng::new(0xC0E01);
        for _ in 0..12 {
            let fraction = 0.05 + rng.unit() * 0.90;
            let susp = run_scenario(PreemptionPrimitive::SuspendResume, fraction);
            let kill = run_scenario(PreemptionPrimitive::Kill, fraction);
            let wait = run_scenario(PreemptionPrimitive::Wait, fraction);
            for r in [&susp, &kill, &wait] {
                assert!(r.all_jobs_complete());
            }
            assert_eq!(susp.job("tl").unwrap().tasks[0].attempts, 1);
            assert_eq!(susp.job("tl").unwrap().tasks[0].suspend_cycles, 1);
            assert!(susp.total_wasted_work_secs() == 0.0);
            assert!(kill.job("tl").unwrap().tasks[0].attempts >= 2);
            assert!(kill.total_wasted_work_secs() > 0.0);
            assert_eq!(wait.job("tl").unwrap().tasks[0].suspend_cycles, 0);
            // Latency: suspension and killing both beat waiting.
            let s = susp.sojourn_secs("th").unwrap();
            let k = kill.sojourn_secs("th").unwrap();
            let w = wait.sojourn_secs("th").unwrap();
            assert!(s <= k + 1.0);
            assert!(s < w + 1.0);
            // Makespan: suspension tracks wait; kill pays for redone work.
            let ms = susp.makespan_secs().unwrap();
            let mk = kill.makespan_secs().unwrap();
            assert!(ms <= mk + 1.0);
        }
    }

    /// Wait's sojourn time decreases as the preemption point moves later,
    /// while kill's makespan increases: the monotonic trends behind
    /// Figures 2a and 2b.
    #[test]
    fn figure2_trends_are_monotone() {
        let mut rng = SimRng::new(0xC0E02);
        for _ in 0..4 {
            let lo = 0.1 + rng.unit() * 0.3;
            let hi = 0.6 + rng.unit() * 0.3;
            let wait_lo = run_scenario(PreemptionPrimitive::Wait, lo);
            let wait_hi = run_scenario(PreemptionPrimitive::Wait, hi);
            assert!(
                wait_hi.sojourn_secs("th").unwrap() < wait_lo.sojourn_secs("th").unwrap(),
                "wait sojourn must shrink when th arrives later"
            );
            let kill_lo = run_scenario(PreemptionPrimitive::Kill, lo);
            let kill_hi = run_scenario(PreemptionPrimitive::Kill, hi);
            assert!(
                kill_hi.makespan_secs().unwrap() > kill_lo.makespan_secs().unwrap(),
                "kill makespan must grow when more work is thrown away"
            );
        }
    }
}
