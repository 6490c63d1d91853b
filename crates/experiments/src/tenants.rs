//! Multi-tenant scheduling scenarios for the `MultiTenantScheduler`.
//!
//! The paper evaluates its suspend/resume primitive on a two-job priority
//! scenario; this module exercises it where production Hadoop actually
//! needed it — a shared cluster. Three tenants with DRF dominant-share
//! quotas submit staggered streams of jobs, the `reclaim` stage pulls
//! over-quota tenants back (via kill *or* OS-assisted suspend — the paper's
//! trade-off as a knob), and best-effort scavenger jobs, which the DRF order
//! serves after every quota'd job, backfill leftover capacity, including
//! the slots freed by suspension.
//!
//! The workload is built to make the kill-vs-suspend difference sharp: a
//! tenant-0 burst saturates every map slot long before tenant 1 arrives, so
//! the victims reclaim evicts have ~100 s of accrued progress — work a kill
//! throws away and a suspend preserves.

use mrp_engine::{Cluster, ClusterConfig, JobSpec, TenantShareStats, TraceLevel};
use mrp_preempt::{EvictionPolicy, MultiTenantConfig, MultiTenantScheduler, PreemptionPrimitive};
use mrp_sim::{SimDuration, SimTime, MIB};

/// Configuration of one multi-tenant scenario run.
#[derive(Clone, Debug)]
pub struct TenantScenarioConfig {
    /// Racks in the cluster.
    pub(crate) racks: u32,
    /// Nodes per rack.
    pub(crate) nodes_per_rack: u32,
    /// Map slots per node.
    pub(crate) map_slots: u32,
    /// Per-tenant weights; one stream of jobs per tenant. Tenant 0 also
    /// submits the saturating burst at `t = 0`.
    pub(crate) weights: Vec<f64>,
    /// How reclaim evicts (the scenario's headline knob).
    pub(crate) primitive: PreemptionPrimitive,
    /// Simulation seed.
    pub(crate) seed: u64,
    /// Warm-up horizon excluded from the ledger's steady-state statistics
    /// (set past the first reclaim adjustment).
    pub(crate) steady_after: SimTime,
    /// Jobs in the tenant-0 saturating burst.
    pub(crate) burst_jobs: u32,
    /// Map tasks per burst job (long tasks: 768 MiB ≈ 115 s each).
    pub(crate) burst_tasks: u32,
    /// Per-tenant stream: one job every `stream_every` from the tenant's
    /// start time until `horizon`.
    pub(crate) stream_every: SimDuration,
    /// Map tasks per stream job.
    pub(crate) stream_tasks: u32,
    /// Input bytes per stream-job task (sets task duration).
    pub(crate) stream_bytes: u64,
    /// One 2-task best-effort job every `best_effort_every` from 30 s
    /// until `horizon`.
    pub(crate) best_effort_every: SimDuration,
    /// When arrivals stop (the cluster then drains).
    pub(crate) horizon: SimTime,
}

impl TenantScenarioConfig {
    /// A compact three-tenant scenario for tests and the bench's `--test`
    /// mode: 8 nodes / 16 map slots, ~420 s of arrivals.
    pub fn compact(primitive: PreemptionPrimitive) -> Self {
        TenantScenarioConfig {
            racks: 2,
            nodes_per_rack: 4,
            map_slots: 2,
            weights: vec![1.0, 1.0, 1.0],
            primitive,
            seed: 7,
            steady_after: SimTime::from_secs(250),
            burst_jobs: 5,
            burst_tasks: 8,
            stream_every: SimDuration::from_secs(25),
            stream_tasks: 6,
            stream_bytes: 256 * MIB,
            best_effort_every: SimDuration::from_secs(40),
            horizon: SimTime::from_secs(420),
        }
    }

    /// The bench-scale scenario: 4 racks x 10 nodes (80 map slots),
    /// weighted tenants (2:1:1) and ~900 s of arrivals. Streams arrive
    /// fast enough that even tenant 0's demand exceeds its double-weight
    /// quota, so the weighted DRF order — not spare capacity — decides
    /// every launch; the demand comes as few large jobs rather than many
    /// small ones, keeping the per-heartbeat job scan (and so per-event
    /// cost) near the plain-scheduler benches.
    pub fn full(primitive: PreemptionPrimitive) -> Self {
        TenantScenarioConfig {
            racks: 4,
            nodes_per_rack: 10,
            map_slots: 2,
            weights: vec![2.0, 1.0, 1.0],
            primitive,
            seed: 7,
            steady_after: SimTime::from_secs(250),
            burst_jobs: 12,
            burst_tasks: 10,
            stream_every: SimDuration::from_secs(40),
            stream_tasks: 24,
            stream_bytes: 512 * MIB,
            best_effort_every: SimDuration::from_secs(30),
            horizon: SimTime::from_secs(900),
        }
    }

    /// Total map slots across the cluster.
    pub(crate) fn total_map_slots(&self) -> u32 {
        self.racks * self.nodes_per_rack * self.map_slots
    }

    /// When each tenant's stream starts: tenant 0 immediately, tenant 1 at
    /// 100 s (after the burst's victims have accrued real progress), later
    /// tenants 60 s apart.
    fn tenant_start(&self, tenant: usize) -> SimTime {
        match tenant {
            0 => SimTime::ZERO,
            t => SimTime::from_secs(100 + 60 * (t as u64 - 1)),
        }
    }
}

/// Outcome of one multi-tenant scenario run.
#[derive(Clone, Debug)]
pub struct TenantScenarioOutcome {
    /// Per-tenant steady-state share statistics from the [`TenantLedger`]
    /// (quota, mean dominant share, mean excess over quota while another
    /// tenant was starved).
    ///
    /// [`TenantLedger`]: mrp_engine::TenantLedger
    pub shares: Vec<TenantShareStats>,
    /// Total progress thrown away by evictions (`kill` pays here).
    pub lost_work_secs: f64,
    /// Time to drain the whole workload.
    pub makespan_secs: f64,
    /// Best-effort jobs submitted / completed (backfill liveness).
    pub best_effort_jobs: usize,
    /// Best-effort jobs that ran to completion.
    pub best_effort_completed: usize,
    /// Total suspend cycles across all tasks (the suspend variant's
    /// eviction count; zero under kill).
    pub suspend_cycles: u64,
    /// Discrete events the run processed (the bench's throughput unit).
    pub events_processed: u64,
}

/// Submits the scenario workload: the tenant-0 burst, one staggered stream
/// per tenant, and the best-effort stream. Everything is map-only and
/// synthetic, so the workload is a pure function of the config.
fn submit_workload(cluster: &mut Cluster, config: &TenantScenarioConfig) {
    // The burst: long tasks that saturate every slot well past tenant 1's
    // arrival, priority 0 (batch) so reclaim evicts them before the
    // priority-2 stream jobs of the same tenant.
    for j in 0..config.burst_jobs {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("burst-{j:02}"), config.burst_tasks, 768 * MIB)
                .with_tenant(0),
            SimTime::from_secs(u64::from(j)),
        );
    }
    // Per-tenant streams arriving faster than one quota can serve them, so
    // every tenant stays backlogged and the DRF allocation order — not
    // idle capacity — decides who runs.
    for tenant in 0..config.weights.len() {
        let start = config.tenant_start(tenant);
        let mut at = start;
        let mut j = 0;
        while at <= config.horizon {
            cluster.submit_job_at(
                JobSpec::synthetic(
                    format!("t{tenant}-{j:03}"),
                    config.stream_tasks,
                    config.stream_bytes,
                )
                .with_tenant(tenant as u32)
                .with_priority(2),
                at,
            );
            at += config.stream_every;
            j += 1;
        }
    }
    // The scavenger class: small jobs served only after every quota'd job.
    let mut at = SimTime::from_secs(30);
    let mut j = 0;
    while at <= config.horizon {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("be-{j:03}"), 2, 128 * MIB).with_best_effort(),
            at,
        );
        at += config.best_effort_every;
        j += 1;
    }
}

/// Runs one multi-tenant scenario to completion.
pub fn run_tenant_scenario(config: &TenantScenarioConfig) -> TenantScenarioOutcome {
    let cfg =
        ClusterConfig::racked_cluster(config.racks, config.nodes_per_rack, config.map_slots, 1)
            .with_trace_level(TraceLevel::Off)
            .with_seed(config.seed);
    let (scheduler, ledger) = MultiTenantScheduler::new(MultiTenantConfig {
        weights: config.weights.clone(),
        total_map_slots: config.total_map_slots(),
        total_reduce_slots: config.racks * config.nodes_per_rack,
        steady_after: config.steady_after,
        primitive: config.primitive,
        eviction: EvictionPolicy::ClosestToCompletion,
    });
    let mut cluster = Cluster::new(cfg, Box::new(scheduler));
    submit_workload(&mut cluster, config);
    cluster.run(SimTime::from_secs(24 * 3_600));
    let events_processed = cluster.events_processed();
    let report = cluster.report();
    assert!(
        report.all_jobs_complete(),
        "multi-tenant workload must drain (work conservation)"
    );
    let best_effort: Vec<_> = report.jobs.iter().filter(|j| j.best_effort).collect();
    let shares = ledger.borrow().summary();
    TenantScenarioOutcome {
        shares,
        lost_work_secs: report.total_wasted_work_secs(),
        makespan_secs: report.makespan_secs().unwrap_or(0.0),
        best_effort_jobs: best_effort.len(),
        best_effort_completed: best_effort
            .iter()
            .filter(|j| j.completed_at.is_some())
            .count(),
        suspend_cycles: report
            .jobs
            .iter()
            .flat_map(|j| j.tasks.iter())
            .map(|t| u64::from(t.suspend_cycles))
            .sum(),
        events_processed,
    }
}

/// Runs the scenario twice on the same seed — reclaim evicting via
/// OS-assisted suspend, then via kill — and returns `(suspend, kill)`.
/// The paper's Section IV comparison at multi-tenant scale: same workload,
/// same victims, only the eviction mechanism differs.
pub fn reclaim_ablation(
    config: &TenantScenarioConfig,
) -> (TenantScenarioOutcome, TenantScenarioOutcome) {
    let suspend = run_tenant_scenario(&TenantScenarioConfig {
        primitive: PreemptionPrimitive::SuspendResume,
        ..config.clone()
    });
    let kill = run_tenant_scenario(&TenantScenarioConfig {
        primitive: PreemptionPrimitive::Kill,
        ..config.clone()
    });
    (suspend, kill)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_scenario_is_deterministic() {
        let config = TenantScenarioConfig::compact(PreemptionPrimitive::SuspendResume);
        let a = run_tenant_scenario(&config);
        let b = run_tenant_scenario(&config);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.suspend_cycles, b.suspend_cycles);
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.lost_work_secs, b.lost_work_secs);
    }

    #[test]
    fn suspend_reclaim_strictly_beats_kill_on_lost_work() {
        let (suspend, kill) = reclaim_ablation(&TenantScenarioConfig::compact(
            PreemptionPrimitive::SuspendResume,
        ));
        assert!(
            suspend.suspend_cycles >= 1,
            "reclaim must actually fire under contention: {suspend:?}"
        );
        assert_eq!(
            suspend.lost_work_secs, 0.0,
            "suspension preserves every evicted task's progress"
        );
        assert!(
            kill.lost_work_secs > 0.0,
            "kill-based reclaim throws accrued progress away: {kill:?}"
        );
    }

    #[test]
    fn drf_keeps_tenants_near_quota_under_contention() {
        let outcome = run_tenant_scenario(&TenantScenarioConfig::compact(
            PreemptionPrimitive::SuspendResume,
        ));
        assert_eq!(outcome.shares.len(), 3);
        for s in &outcome.shares {
            assert!(
                s.mean_excess_over_quota <= 0.05,
                "tenant {} holds {:.3} above its {:.3} quota while others starve",
                s.tenant,
                s.mean_excess_over_quota,
                s.quota
            );
        }
    }

    #[test]
    fn best_effort_jobs_backfill_and_complete() {
        let outcome = run_tenant_scenario(&TenantScenarioConfig::compact(
            PreemptionPrimitive::SuspendResume,
        ));
        assert!(outcome.best_effort_jobs >= 5);
        assert_eq!(
            outcome.best_effort_completed, outcome.best_effort_jobs,
            "the scavenger class must drain once arrivals stop"
        );
    }
}
