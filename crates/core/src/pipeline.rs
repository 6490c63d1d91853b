//! The scheduling stages the preemptive policies are built from.
//!
//! Each policy in `schedulers.rs` — FAIR, HFSP, priority and the
//! multi-tenant DRF scheduler — is one type that holds a few of these stages
//! as plain fields and runs them in order on every `SchedulerPolicy` hook,
//! appending to one action list over the same immutable
//! [`SchedulerContext`]:
//!
//! * [`Allocate`] fills a heartbeating node's free slots with the pending
//!   (or suspended) work of the jobs a [`JobOrder`] ranks first (the
//!   priority policy places through the engine's FIFO, which is the same
//!   call over the priority order);
//! * [`FairPreempt`], [`SizePreempt`] and [`PriorityPreempt`] evict running
//!   tasks of other jobs when FAIR's starvation deficit, HFSP's arrival
//!   trigger or a higher-priority job's unmet demand fires;
//! * [`Reclaim`] pulls tenants back toward their DRF quotas.
//!
//! Every preempting stage owns an [`Evictor`]: the policy's
//! [`EvictionPolicy`], the configured [`PreemptionPrimitive`] and a
//! [`SimRng`] seeded per stage, so victim streams are reproducible. Every
//! `Suspend` and `Kill` a policy issues leaves through [`Evictor::evict`],
//! over candidates built by `candidates_of`.

use crate::eviction::{EvictionCandidate, EvictionPolicy};
use crate::primitive::PreemptionPrimitive;
use crate::schedulers::candidates_of;
use mrp_engine::{
    fill_node, JobId, JobRuntime, LocalityIndex, NodeId, SchedulerAction, SchedulerContext,
    TaskKind, TaskRuntime, TaskState, TenantLedger,
};
use mrp_sim::{SimDuration, SimRng, SimTime};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::rc::Rc;

/// Decides which jobs [`Allocate`] serves, and in what order, each time a
/// node offers slots.
pub(crate) trait JobOrder {
    /// Rebuilds `order` (the jobs to serve, first to last) for a round on
    /// `node`. Returns `false` to skip the round; `order` may then be stale.
    fn refresh(&mut self, ctx: &SchedulerContext<'_>, node: NodeId, order: &mut Vec<JobId>)
        -> bool;

    /// A job arrived or finished: drop any cached order.
    fn jobs_changed(&mut self) {}

    /// Identifies the order `refresh` last produced, for caches over it:
    /// changes whenever the order is rebuilt. `None` for an order rebuilt on
    /// every placing round, which leaves nothing to cache.
    fn generation(&self) -> Option<u64> {
        None
    }
}

/// FAIR's job order: jobs with launchable or resumable work, most-starved
/// (fewest occupied slots) first, then submission order.
#[derive(Default)]
pub(crate) struct FairJobOrder {
    scratch: Vec<(u32, SimTime, JobId)>,
}

impl JobOrder for FairJobOrder {
    fn refresh(
        &mut self,
        ctx: &SchedulerContext<'_>,
        _node: NodeId,
        order: &mut Vec<JobId>,
    ) -> bool {
        self.scratch.clear();
        self.scratch.extend(
            ctx.jobs
                .values()
                .filter(|j| !j.is_finished())
                // Jobs with nothing to launch or resume contribute nothing
                // to `fill_node`; this order is rebuilt per heartbeat, so
                // the filter is exact (no staleness).
                .filter(|j| j.schedulable_count() > 0 || j.suspended_count > 0)
                .map(|j| (j.occupying_count, j.submitted_at, j.id)),
        );
        self.scratch.sort_unstable();
        order.clear();
        order.extend(self.scratch.iter().map(|(_, _, id)| *id));
        true
    }
}

/// HFSP's job order: smallest remaining size
/// ([`JobRuntime::remaining_bytes`], engine-maintained) first, cached within
/// one simulated second. Job arrivals and completions drop the cache, so a
/// busy trace rebuilds it far more often than once per second; a rebuild is
/// O(jobs). The zero-free-slot gate runs *before* the cache check, so
/// rebuilds happen only at instants where a node can take work.
#[derive(Default)]
pub(crate) struct HfspJobOrder {
    scratch: Vec<(u64, JobId)>,
    /// Virtual second the cached order was computed in; invalidated on job
    /// arrival/completion.
    stamp: Option<u64>,
    /// Rebuilds so far: the order's generation.
    rebuilds: u64,
}

impl JobOrder for HfspJobOrder {
    fn refresh(
        &mut self,
        ctx: &SchedulerContext<'_>,
        node: NodeId,
        order: &mut Vec<JobId>,
    ) -> bool {
        // Skip the rebuild entirely when this node has nothing to hand
        // out — the common case at cluster scale.
        let Some(tt) = ctx.node(node) else {
            return false;
        };
        if tt.free_slots(TaskKind::Map) == 0 && tt.free_slots(TaskKind::Reduce) == 0 {
            return false;
        }
        let bucket = ctx.now.as_micros() / 1_000_000;
        if self.stamp == Some(bucket) {
            return true;
        }
        self.stamp = Some(bucket);
        self.rebuilds += 1;
        self.scratch.clear();
        self.scratch.extend(
            ctx.jobs
                .iter()
                .filter(|(_, j)| !j.is_finished())
                // Fully-launched jobs have nothing for `fill_node` to hand
                // out; dropping them keeps the fill loop proportional to
                // jobs with actual pending work.
                .filter(|(_, j)| j.schedulable_count() > 0 || j.suspended_count > 0)
                .map(|(id, j)| (j.remaining_bytes, *id)),
        );
        self.scratch.sort_unstable();
        order.clear();
        order.extend(self.scratch.iter().map(|(_, id)| *id));
        true
    }

    fn jobs_changed(&mut self) {
        self.stamp = None;
    }

    fn generation(&self) -> Option<u64> {
        Some(self.rebuilds)
    }
}

/// DRF's job order: jobs of the tenant with the lowest dominant share first
/// (ties by submission order), then the best-effort jobs in submission
/// order, so they take only the slots quota'd work leaves. Also the stage
/// that feeds the shared [`TenantLedger`] its usage observations.
pub(crate) struct DrfJobOrder {
    ledger: Rc<RefCell<TenantLedger>>,
    scratch: Vec<(u64, SimTime, JobId)>,
    /// Virtual second of the cached order and ledger observation. Shares
    /// and quota drift move on task timescales, so one refresh per
    /// simulated second bounds the O(jobs) scans the way the HFSP order
    /// cache bounds sorts — and keeps the per-heartbeat cost flat.
    stamp: Option<u64>,
    /// Membership changed since the cache was built (job arrived or
    /// finished): refresh immediately instead of waiting out the second.
    dirty: bool,
}

impl DrfJobOrder {
    pub(crate) fn new(ledger: Rc<RefCell<TenantLedger>>) -> Self {
        DrfJobOrder {
            ledger,
            scratch: Vec::new(),
            stamp: None,
            dirty: false,
        }
    }
}

impl JobOrder for DrfJobOrder {
    fn refresh(
        &mut self,
        ctx: &SchedulerContext<'_>,
        node: NodeId,
        order: &mut Vec<JobId>,
    ) -> bool {
        // Refresh policy, two cadences. A heartbeat that can actually hand
        // out capacity (free slots, or suspended work to resume here) gets
        // a *fresh* observation and order: launching on stale shares sends
        // every freed slot to a head tenant that may already be back at
        // quota, which Reclaim then has to undo — a suspend/resume churn
        // cycle per slot. Saturated heartbeats can do nothing, so they only
        // keep the ledger current once per simulated second for Reclaim
        // (running after Allocate on that same cadence) and for the
        // time-integrated share statistics.
        // "Can place" is `fill_node`'s own early-exit condition: a free slot
        // only counts when pending work of its kind exists somewhere (the
        // always-free reduce slots of a map-only workload must not defeat
        // the cache).
        let can_place = ctx.can_place(node);
        let bucket = ctx.now.as_micros() / 1_000_000;
        if !can_place && self.stamp == Some(bucket) && !self.dirty {
            return false;
        }
        self.stamp = Some(bucket);
        self.dirty = false;
        let mut ledger = self.ledger.borrow_mut();
        // Piecewise-constant integration at every refresh keeps the
        // ledger's time-weighted shares accurate to the refresh cadence.
        ledger.observe(ctx);
        if !can_place {
            // The order is only consumed by `fill_node`, which this
            // heartbeat cannot use; the next placing heartbeat rebuilds it.
            return false;
        }
        self.scratch.clear();
        for j in ctx.jobs.values() {
            if j.is_finished() || j.schedulable_count() == 0 && j.suspended_count == 0 {
                continue;
            }
            // Weighted DRF: rank by dominant share *relative to quota*, so
            // free capacity fills tenants proportionally to their weights
            // instead of equalizing raw shares (progressive filling of
            // s_i / w_i). Fixed-point key keeps the sort total and
            // deterministic. Best-effort jobs have no quota: they rank after
            // every quota'd job, in submission order, so one `fill_node`
            // pass backfills them into whatever the quota'd jobs leave.
            let share_key = if j.spec.best_effort {
                u64::MAX
            } else {
                let tenant = ledger.tenant_of(j.spec.tenant);
                (ledger.dominant_share(tenant) / ledger.quota(tenant) * 1e9) as u64
            };
            self.scratch.push((share_key, j.submitted_at, j.id));
        }
        self.scratch.sort_unstable();
        order.clear();
        order.extend(self.scratch.iter().map(|(_, _, id)| *id));
        true
    }

    fn jobs_changed(&mut self) {
        self.dirty = true;
    }
}

/// The allocate stage: fills a heartbeating node's free slots with pending
/// (or suspended) work, serving jobs in `O`'s order through the engine's
/// `fill_node` (rack-aware, resume-first, delay- and reliability-gated).
pub(crate) struct Allocate<O> {
    job_order: O,
    order: Vec<JobId>,
    locality: LocalityIndex,
}

impl<O: JobOrder> Allocate<O> {
    pub(crate) fn new(job_order: O) -> Self {
        Allocate {
            job_order,
            order: Vec::new(),
            locality: LocalityIndex::default(),
        }
    }

    /// The launches and resumes for a round on `node`; the first stage of
    /// every policy, so it starts the round's action list.
    pub(crate) fn on_heartbeat(
        &mut self,
        ctx: &SchedulerContext<'_>,
        node: NodeId,
    ) -> Vec<SchedulerAction> {
        if self.job_order.refresh(ctx, node, &mut self.order) {
            let generation = self.job_order.generation();
            fill_node(ctx, node, &self.order, generation, true, &mut self.locality)
        } else {
            Vec::new()
        }
    }

    pub(crate) fn job_submitted(&mut self) {
        self.job_order.jobs_changed();
    }

    pub(crate) fn job_finished(&mut self, job: JobId) {
        self.job_order.jobs_changed();
        self.locality.forget(job);
    }
}

/// Turns victim choices into evictions: `eviction` ranks a job's running
/// tasks (drawing from `rng` only where the policy is randomized) and
/// `primitive` says how each victim is evicted.
pub(crate) struct Evictor {
    primitive: PreemptionPrimitive,
    eviction: EvictionPolicy,
    rng: SimRng,
}

impl Evictor {
    pub(crate) fn new(primitive: PreemptionPrimitive, eviction: EvictionPolicy, seed: u64) -> Self {
        Evictor {
            primitive,
            eviction,
            rng: SimRng::new(seed),
        }
    }

    /// Picks up to `take` of `candidates` and appends their evictions,
    /// returning how many were actually claimed (none under `Wait`).
    fn evict(
        &mut self,
        candidates: &[EvictionCandidate],
        take: usize,
        out: &mut Vec<SchedulerAction>,
    ) -> usize {
        let before = out.len();
        out.extend(
            self.eviction
                .pick(candidates, take, &mut self.rng)
                .into_iter()
                .filter_map(|v| self.primitive.preempt_action(v)),
        );
        out.len() - before
    }

    /// [`Evictor::evict`] over the running tasks of `job`.
    pub(crate) fn evict_from(
        &mut self,
        ctx: &SchedulerContext<'_>,
        job: JobId,
        take: usize,
        out: &mut Vec<SchedulerAction>,
    ) -> usize {
        let candidates = ctx.jobs.get(&job).map(candidates_of).unwrap_or_default();
        self.evict(&candidates, take, out)
    }

    /// [`Evictor::evict`] over the running tasks of `kind` in `job`; never
    /// draws from the RNG when there are none.
    fn evict_kind(
        &mut self,
        job: &JobRuntime,
        kind: TaskKind,
        take: usize,
        out: &mut Vec<SchedulerAction>,
    ) -> usize {
        let mut candidates = candidates_of(job);
        candidates.retain(|c| c.task.kind == kind);
        if candidates.is_empty() {
            return 0;
        }
        self.evict(&candidates, take, out)
    }
}

/// FAIR's preemption: once a job has sat below its fair share of map slots
/// past the timeout, evict tasks of jobs above their share, most-over-share
/// first.
pub(crate) struct FairPreempt {
    evictor: Evictor,
    total_map_slots: usize,
    timeout: SimDuration,
    starved_since: HashMap<JobId, SimTime>,
}

impl FairPreempt {
    pub(crate) fn new(
        primitive: PreemptionPrimitive,
        eviction: EvictionPolicy,
        total_map_slots: usize,
        timeout: SimDuration,
    ) -> Self {
        FairPreempt {
            evictor: Evictor::new(primitive, eviction, 0xFA1),
            total_map_slots: total_map_slots.max(1),
            timeout,
            starved_since: HashMap::new(),
        }
    }

    pub(crate) fn on_heartbeat(
        &mut self,
        ctx: &SchedulerContext<'_>,
        out: &mut Vec<SchedulerAction>,
    ) {
        // Deficit tracking is O(1) per job via the engine-maintained
        // counters: no task-list scans, no candidate Vecs until a victim
        // job is actually chosen.
        let incomplete = ctx.jobs.values().filter(|j| !j.is_finished()).count();
        let share = self
            .total_map_slots
            .checked_div(incomplete)
            .map_or(self.total_map_slots, |s| s.max(1));

        // Track starvation times and find jobs with a legitimate claim. A
        // job voluntarily declining slots under delay scheduling
        // (`delay_gated`) has no claim: preempting victims to free slots it
        // would decline again is pure churn, and its bounded wait ends (by
        // local launch or escalation) within the configured delay.
        let mut claims: usize = 0;
        for job in ctx.jobs.values().filter(|j| !j.is_finished()) {
            let wants_more =
                job.suspended_count > 0 || (job.schedulable_count() > 0 && !ctx.delay_gated(job));
            let running = job.occupying_count as usize;
            if wants_more && running < share {
                let since = *self.starved_since.entry(job.id).or_insert(ctx.now);
                if ctx.now - since >= self.timeout {
                    claims += share - running;
                }
            } else {
                self.starved_since.remove(&job.id);
            }
        }
        // No-deficit early return: nothing has starved past the timeout, so
        // the (allocating, sorting) victim-selection phase never runs.
        if claims == 0 {
            return;
        }

        // Victims come from jobs above their share, most-over-share first.
        let mut over_share: Vec<(u32, JobId)> = ctx
            .jobs
            .values()
            .filter(|j| !j.is_finished())
            .filter(|j| j.occupying_count as usize > share)
            .map(|j| (j.occupying_count, j.id))
            .collect();
        over_share.sort_by_key(|(occupying, _)| std::cmp::Reverse(*occupying));
        for (occupying, job) in over_share {
            if claims == 0 {
                break;
            }
            let surplus = occupying as usize - share;
            let take = surplus.min(claims);
            claims = claims.saturating_sub(self.evictor.evict_from(ctx, job, take, out));
        }
    }
}

/// HFSP's preemption: the moment a job arrives whose map demand free slots
/// cannot cover, evict tasks of strictly larger running jobs, largest
/// first.
pub(crate) struct SizePreempt {
    evictor: Evictor,
}

impl SizePreempt {
    pub(crate) fn new(primitive: PreemptionPrimitive, eviction: EvictionPolicy) -> Self {
        SizePreempt {
            evictor: Evictor::new(primitive, eviction, 0x45F5),
        }
    }

    pub(crate) fn on_job_submitted(
        &mut self,
        ctx: &SchedulerContext<'_>,
        job: JobId,
    ) -> Vec<SchedulerAction> {
        let mut out = Vec::new();
        let Some(new_job) = ctx.jobs.get(&job) else {
            return out;
        };
        // Demand is the job's *map* demand: it is compared against free map
        // slots and satisfied by preempting map tasks below.
        let new_demand = new_job.schedulable_maps as usize;
        // Cluster-wide capacity from the engine-maintained per-rack
        // counters: O(racks) per arrival.
        let free_slots = ctx.free_map_slots_total() as usize;
        if new_demand == 0 || free_slots >= new_demand {
            return out;
        }
        let new_size = new_job.remaining_bytes;
        // Preempt tasks of strictly larger running jobs, largest first,
        // until the new job's demand could be satisfied.
        let mut needed = new_demand - free_slots;
        let mut larger: Vec<(u64, JobId)> = ctx
            .jobs
            .values()
            .filter(|j| j.id != job && !j.is_finished())
            .filter(|j| j.occupying_count > 0)
            .map(|j| (j.remaining_bytes, j.id))
            .filter(|(size, _)| *size > new_size)
            .collect();
        larger.sort_by_key(|(size, _)| std::cmp::Reverse(*size));
        for (_, victim_job) in larger {
            if needed == 0 {
                break;
            }
            needed =
                needed.saturating_sub(self.evictor.evict_from(ctx, victim_job, needed, &mut out));
        }
        out
    }
}

/// The priority policy's preemption, kind by kind: jobs waiting for slots
/// of a kind draw on supply highest priority first, and the demand supply
/// cannot cover evicts running tasks of that kind from strictly
/// lower-priority jobs. A suspended task can resume only on its own node,
/// so it draws on that node's free slots of its kind and the evictions of
/// that kind in flight there, and its uncovered demand evicts there. A
/// schedulable task draws on one cluster-wide supply — the free slots of
/// its kind plus the ones evictions of that kind already in flight will
/// free — and evicts anywhere. A waiting reduce never evicts a map, nor a
/// map a reduce. No task is evicted twice in one call.
pub(crate) struct PriorityPreempt {
    evictor: Evictor,
}

impl PriorityPreempt {
    pub(crate) fn new(primitive: PreemptionPrimitive, eviction: EvictionPolicy) -> Self {
        PriorityPreempt {
            evictor: Evictor::new(primitive, eviction, 0x9817),
        }
    }

    pub(crate) fn preempt(&mut self, ctx: &SchedulerContext<'_>, out: &mut Vec<SchedulerAction>) {
        // Only a job above the lowest priority still holding slots has
        // anything to evict; lower ones come last in the order below, so
        // leaving them out changes no earlier job's share of the supply.
        let Some(lowest) = ctx
            .jobs
            .values()
            .filter(|j| !j.is_finished() && j.occupying_count > 0)
            .map(|j| j.spec.priority)
            .min()
        else {
            return;
        };
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            self.preempt_kind(ctx, kind, lowest, out);
        }
    }

    fn preempt_kind(
        &mut self,
        ctx: &SchedulerContext<'_>,
        kind: TaskKind,
        lowest: i32,
        out: &mut Vec<SchedulerAction>,
    ) {
        let of_kind = |t: &&TaskRuntime| t.id.kind == kind;
        // The nodes of a job's suspended tasks of this kind, one per task.
        let suspended_on = |j: &JobRuntime| -> Vec<NodeId> {
            match j.suspended_count {
                0 => Vec::new(),
                _ => j
                    .tasks
                    .iter()
                    .filter(of_kind)
                    .filter(|t| t.state == TaskState::Suspended)
                    .filter_map(|t| t.node)
                    .collect(),
            }
        };
        let mut waiting: Vec<(&JobRuntime, usize, Vec<NodeId>)> = ctx
            .jobs
            .values()
            .filter(|j| !j.is_finished() && j.spec.priority > lowest)
            .map(|j| {
                let schedulable = match kind {
                    TaskKind::Map => j.schedulable_maps,
                    TaskKind::Reduce => j.schedulable_reduces,
                } as usize;
                (j, schedulable, suspended_on(j))
            })
            .filter(|(_, schedulable, suspended)| *schedulable > 0 || !suspended.is_empty())
            .collect();
        let free = match kind {
            TaskKind::Map => ctx.free_map_slots_total(),
            TaskKind::Reduce => ctx.free_reduce_slots_total(),
        } as usize;
        let any_suspended = waiting.iter().any(|(.., suspended)| !suspended.is_empty());
        if !any_suspended && waiting.iter().map(|w| w.1).sum::<usize>() <= free {
            return;
        }
        // FIFO's order: priority descending, then submission.
        waiting.sort_unstable_by_key(|(j, ..)| (Reverse(j.spec.priority), j.submitted_at, j.id));
        // The nodes of the evictions of this kind already in flight.
        let in_flight: Vec<Option<NodeId>> = ctx
            .jobs
            .values()
            .filter(|j| j.occupying_count > 0)
            .flat_map(|j| &j.tasks)
            .filter(of_kind)
            .filter(|t| matches!(t.state, TaskState::MustSuspend | TaskState::MustKill))
            .map(|t| t.node)
            .collect();
        let mut supply = free + in_flight.len();
        // Per-node supply for suspended tasks, filled in as nodes come up.
        let mut node_supply: Vec<(NodeId, usize)> = Vec::new();
        let first = out.len();
        for (job, schedulable, suspended) in waiting {
            for node in suspended {
                let at = node_supply
                    .iter()
                    .position(|&(n, _)| n == node)
                    .unwrap_or_else(|| {
                        let free_there = ctx.node(node).map_or(0, |tt| tt.free_slots(kind));
                        let flying = in_flight.iter().filter(|&&n| n == Some(node)).count();
                        node_supply.push((node, free_there as usize + flying));
                        node_supply.len() - 1
                    });
                if node_supply[at].1 > 0 {
                    node_supply[at].1 -= 1;
                    supply = supply.saturating_sub(1);
                } else {
                    let candidates = lower_candidates(ctx, job, kind, Some(node), &out[first..]);
                    self.evictor.evict(&candidates, 1, out);
                }
            }
            let needed = schedulable.saturating_sub(supply);
            supply = supply.saturating_sub(schedulable);
            if needed > 0 {
                let candidates = lower_candidates(ctx, job, kind, None, &out[first..]);
                self.evictor.evict(&candidates, needed, out);
            }
        }
    }
}

/// The running tasks of `kind` — on `node` when one is given — in jobs of
/// strictly lower priority than `job`, less the victims already `evicted`.
fn lower_candidates(
    ctx: &SchedulerContext<'_>,
    job: &JobRuntime,
    kind: TaskKind,
    node: Option<NodeId>,
    evicted: &[SchedulerAction],
) -> Vec<EvictionCandidate> {
    ctx.jobs
        .values()
        .filter(|j| j.spec.priority < job.spec.priority && !j.is_finished())
        .flat_map(candidates_of)
        .filter(|c| c.task.kind == kind)
        .filter(|c| node.is_none() || ctx.task(c.task).and_then(|t| t.node) == node)
        .filter(|c| {
            !evicted.iter().any(|a| {
                matches!(a, SchedulerAction::Suspend { task }
                    | SchedulerAction::Kill { task } if *task == c.task)
            })
        })
        .collect()
}

/// The reclaim stage: pulls tenants back toward their DRF quotas. Once per
/// simulated second it compares each tenant's slot usage against its quota
/// entitlement; when starved tenants' claims cannot be covered by free
/// slots, it evicts — best-effort jobs first, then the most over-quota
/// tenants (lowest-priority jobs first within a tenant) — through the
/// configured primitive. With `SuspendResume` that is the paper's
/// OS-assisted preemption (no work lost); with `Kill` it is the classic
/// Hadoop reclaim the paper argues against.
pub(crate) struct Reclaim {
    ledger: Rc<RefCell<TenantLedger>>,
    evictor: Evictor,
    stamp: Option<u64>,
}

impl Reclaim {
    pub(crate) fn new(
        ledger: Rc<RefCell<TenantLedger>>,
        primitive: PreemptionPrimitive,
        eviction: EvictionPolicy,
    ) -> Self {
        Reclaim {
            ledger,
            evictor: Evictor::new(primitive, eviction, 0xD2F),
            stamp: None,
        }
    }

    pub(crate) fn on_heartbeat(
        &mut self,
        ctx: &SchedulerContext<'_>,
        out: &mut Vec<SchedulerAction>,
    ) {
        // Quota drift moves on task timescales; once per simulated second
        // bounds eviction churn the way the HFSP order cache bounds sorts.
        let bucket = ctx.now.as_micros() / 1_000_000;
        if self.stamp == Some(bucket) {
            return;
        }
        self.stamp = Some(bucket);

        let ledger = self.ledger.borrow();
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            let usage_quota = |t: usize| match kind {
                TaskKind::Map => (ledger.usage_maps(t), ledger.quota_map_slots(t)),
                TaskKind::Reduce => (ledger.usage_reduces(t), ledger.quota_reduce_slots(t)),
            };
            // What quota entitles starved tenants to right now.
            let mut claims = 0usize;
            for t in 0..ledger.tenants() {
                let (usage, quota) = usage_quota(t);
                let demand = match kind {
                    TaskKind::Map => ledger.demand_maps(t),
                    TaskKind::Reduce => ledger.demand_reduces(t),
                };
                if demand > 0 && usage < quota {
                    claims += (quota - usage).min(demand) as usize;
                }
            }
            // Free slots serve claims without eviction.
            let free = match kind {
                TaskKind::Map => ctx.free_map_slots_total(),
                TaskKind::Reduce => ctx.free_reduce_slots_total(),
            };
            let mut claims = claims.saturating_sub(free as usize);
            if claims == 0 {
                continue;
            }

            // Best-effort jobs yield first: they run on borrowed capacity.
            for job in ctx.jobs.values() {
                if claims == 0 {
                    break;
                }
                if !job.spec.best_effort || job.is_finished() || job.occupying_count == 0 {
                    continue;
                }
                claims = claims.saturating_sub(self.evictor.evict_kind(job, kind, claims, out));
            }
            if claims == 0 {
                continue;
            }

            // Then over-quota tenants, most over first — capped at their
            // excess so reclaim never pushes a tenant *below* quota.
            let mut over: Vec<(u32, usize)> = (0..ledger.tenants())
                .filter_map(|t| {
                    let (usage, quota) = usage_quota(t);
                    (usage > quota).then(|| (usage - quota, t))
                })
                .collect();
            over.sort_by_key(|(excess, t)| (std::cmp::Reverse(*excess), *t));
            for (excess, tenant) in over {
                if claims == 0 {
                    break;
                }
                let mut budget = (excess as usize).min(claims);
                // Lowest-priority, youngest jobs of the tenant yield first
                // (priority classes: a tenant's high-priority work is
                // reclaimed last).
                let mut jobs: Vec<(i32, std::cmp::Reverse<JobId>, JobId)> = ctx
                    .jobs
                    .values()
                    .filter(|j| {
                        !j.is_finished()
                            && !j.spec.best_effort
                            && ledger.tenant_of(j.spec.tenant) == tenant
                            && j.occupying_count > 0
                    })
                    .map(|j| (j.spec.priority, std::cmp::Reverse(j.id), j.id))
                    .collect();
                jobs.sort_unstable();
                for (_, _, job_id) in jobs {
                    if budget == 0 {
                        break;
                    }
                    let Some(job) = ctx.jobs.get(&job_id) else {
                        continue;
                    };
                    let claimed = self.evictor.evict_kind(job, kind, budget, out);
                    budget -= claimed;
                    claims = claims.saturating_sub(claimed);
                }
            }
        }
    }
}
