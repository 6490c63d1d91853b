//! The scheduling stages the preemptive policies are built from.
//!
//! Each policy in `schedulers.rs` — FAIR, HFSP and the multi-tenant DRF
//! scheduler — is one type that holds a few of these stages as plain fields
//! and runs them in order on every `SchedulerPolicy` hook, appending to one
//! action list over the same immutable [`SchedulerContext`]:
//!
//! * [`Allocate`] fills a heartbeating node's free slots with the pending
//!   (or suspended) work of the jobs a [`JobOrder`] ranks first;
//! * [`FairPreempt`] and [`SizePreempt`] evict running tasks of other jobs
//!   when FAIR's starvation deficit or HFSP's arrival trigger fires;
//! * [`Reclaim`] pulls tenants back toward their DRF quotas;
//! * [`Backfill`] launches best-effort jobs into leftover capacity.
//!
//! Every preempting stage owns an [`Evictor`]: the policy's
//! [`EvictionPolicy`], the configured [`PreemptionPrimitive`] and a
//! [`SimRng`] seeded per stage, so victim streams are reproducible.

use crate::eviction::{EvictionCandidate, EvictionPolicy};
use crate::primitive::PreemptionPrimitive;
use crate::schedulers::candidates_of;
use mrp_engine::{
    fill_node, JobId, JobRuntime, LocalityIndex, NodeId, SchedulerAction, SchedulerContext,
    TaskKind, TaskState, TenantLedger,
};
use mrp_sim::{SimDuration, SimRng, SimTime};
use std::cell::RefCell;
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
/// (ties by submission order), best-effort jobs excluded — they only launch
/// through [`Backfill`]. Also the stage that feeds the shared
/// [`TenantLedger`] its usage observations.
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
        // "Can place" mirrors `fill_node`'s own early-exit: a free slot
        // only counts when pending work of its kind exists somewhere (the
        // always-free reduce slots of a map-only workload must not defeat
        // the cache).
        let can_place = ctx.node(node).is_some_and(|tt| {
            let suspended = |kind| tt.suspended_tasks().any(|t| t.kind == kind);
            tt.free_slots(TaskKind::Map) > 0
                && (ctx.totals.schedulable_maps > 0
                    || ctx.speculation.enabled
                    || suspended(TaskKind::Map))
                || tt.free_slots(TaskKind::Reduce) > 0
                    && (ctx.totals.schedulable_reduces > 0 || suspended(TaskKind::Reduce))
        });
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
            if j.is_finished() || j.spec.best_effort {
                continue;
            }
            if j.schedulable_count() == 0 && j.suspended_count == 0 {
                continue;
            }
            let tenant = ledger.tenant_of(j.spec.tenant);
            // Weighted DRF: rank by dominant share *relative to quota*, so
            // free capacity fills tenants proportionally to their weights
            // instead of equalizing raw shares (progressive filling of
            // s_i / w_i). Fixed-point key keeps the sort total and
            // deterministic.
            let share_key = (ledger.dominant_share(tenant) / ledger.quota(tenant) * 1e9) as u64;
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

/// The backfill stage: launches best-effort (scavenger-class) jobs into
/// whatever capacity is left after the stages before it — including slots
/// freed by suspension, the paper's key enabler: a suspended task's memory
/// pages out, its slot backfills, and no work is lost when the suspension
/// ends. Resumes its own suspended tasks first and respects the engine's
/// reliability veto for fresh launches.
#[derive(Default)]
pub(crate) struct Backfill {
    /// Live best-effort jobs in submission order, maintained through the
    /// submit/finish hooks: a backfill round visits exactly these instead
    /// of scanning the whole job table, and a heartbeat with no scavenger
    /// work costs O(1).
    best_effort_alive: Vec<JobId>,
}

impl Backfill {
    pub(crate) fn on_heartbeat(
        &mut self,
        ctx: &SchedulerContext<'_>,
        node: NodeId,
        out: &mut Vec<SchedulerAction>,
    ) {
        if self.best_effort_alive.is_empty() {
            return;
        }
        let Some(tt) = ctx.node(node) else {
            return;
        };
        // Slots the stages before us already claimed this round (actions
        // apply only after the whole round returns, so the tracker alone
        // over-counts).
        let mut free_map = tt.free_slots(TaskKind::Map) as usize;
        let mut free_reduce = tt.free_slots(TaskKind::Reduce) as usize;
        for a in out.iter() {
            let claimed_kind = match a {
                SchedulerAction::Launch { task, node: n }
                | SchedulerAction::LaunchSpeculative { task, node: n } => {
                    (*n == node).then_some(task.kind)
                }
                SchedulerAction::Resume { task } => ctx
                    .task(*task)
                    .filter(|t| t.node == Some(node))
                    .map(|t| t.id.kind),
                _ => None,
            };
            match claimed_kind {
                Some(TaskKind::Map) => free_map = free_map.saturating_sub(1),
                Some(TaskKind::Reduce) => free_reduce = free_reduce.saturating_sub(1),
                None => {}
            }
        }
        if free_map == 0 && free_reduce == 0 {
            return;
        }

        for job_id in &self.best_effort_alive {
            if free_map == 0 && free_reduce == 0 {
                break;
            }
            let Some(job) = ctx.jobs.get(job_id) else {
                continue;
            };
            if job.is_finished() {
                continue;
            }
            // O(1) skip on the engine-maintained counters: task lists are
            // only walked when a slot of a kind this job can use is free.
            let can_launch = (free_map > 0 && job.schedulable_maps > 0)
                || (free_reduce > 0 && job.schedulable_reduces > 0);
            if !can_launch && job.suspended_count == 0 {
                continue;
            }
            // Resume-first: this node already holds the suspended task's
            // paged-out state.
            if job.suspended_count > 0 {
                for t in &job.tasks {
                    let free = match t.id.kind {
                        TaskKind::Map => &mut free_map,
                        TaskKind::Reduce => &mut free_reduce,
                    };
                    if *free == 0 {
                        continue;
                    }
                    if t.state == TaskState::Suspended && t.node == Some(node) {
                        out.push(SchedulerAction::Resume { task: t.id });
                        *free -= 1;
                    }
                }
            }
            if job.schedulable_count() > 0 {
                for t in &job.tasks {
                    if !t.state.is_schedulable() {
                        continue;
                    }
                    let kind = t.id.kind;
                    let free = match kind {
                        TaskKind::Map => &mut free_map,
                        TaskKind::Reduce => &mut free_reduce,
                    };
                    if *free == 0 {
                        continue;
                    }
                    if ctx.reliability_avoid(node, kind) {
                        continue;
                    }
                    out.push(SchedulerAction::Launch { task: t.id, node });
                    *free -= 1;
                }
            }
        }
    }

    pub(crate) fn job_submitted(&mut self, ctx: &SchedulerContext<'_>, job: JobId) {
        if ctx.jobs.get(&job).is_some_and(|j| j.spec.best_effort) {
            self.best_effort_alive.push(job);
        }
    }

    pub(crate) fn job_finished(&mut self, job: JobId) {
        self.best_effort_alive.retain(|id| *id != job);
    }
}
