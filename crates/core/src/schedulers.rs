//! Preemptive job schedulers built on top of the preemption primitives.
//!
//! The paper motivates the primitive with three scheduler families
//! (Section II): fairness schedulers (Hadoop FAIR/Capacity), deadline
//! schedulers, and size-based schedulers such as the authors' own HFSP. This
//! module provides working preemptive implementations of a FAIR-style
//! scheduler, an HFSP-style size-based scheduler and a multi-tenant DRF
//! scheduler with quota reclaim, all parameterised by the
//! [`PreemptionPrimitive`] and the [`EvictionPolicy`], so the ablation
//! benches can measure how the choice of primitive affects realistic
//! scheduling policies rather than only the paper's two-job scenario.
//!
//! Each scheduler is one type whose allocate/preempt/reclaim/backfill
//! stages (`pipeline.rs`) are plain fields, run in order on every hook.
//! Allocation goes through [`fill_node`], the rack-aware slot filler below.

use crate::eviction::{EvictionCandidate, EvictionPolicy};
use crate::pipeline::{
    Allocate, Backfill, DrfJobOrder, FairJobOrder, FairPreempt, HfspJobOrder, Reclaim, SizePreempt,
};
use crate::primitive::PreemptionPrimitive;
use mrp_engine::{
    DelayScoreboard, JobId, JobRuntime, Locality, NodeId, RackId, SchedulerAction,
    SchedulerContext, SchedulerPolicy, TaskId, TaskKind, TaskState, TaskTracker, TenantLedger,
    BASE_TASK_MEMORY,
};
use mrp_sim::{SimDuration, SimTime, VecMap};
use std::cell::RefCell;
use std::rc::Rc;

pub(crate) fn candidates_of(job: &JobRuntime) -> Vec<EvictionCandidate> {
    job.tasks
        .iter()
        .filter(|t| t.state == TaskState::Running)
        .map(|t| EvictionCandidate {
            task: t.id,
            progress: t.progress,
            memory_bytes: job.spec.profile.state_memory + BASE_TASK_MEMORY,
        })
        .collect()
}

/// Per-key lists of candidate task positions (indices into
/// `JobRuntime::tasks`) in one flat layout: a key's positions sit in `items`
/// in task order, from its span's start (the next unread) to its end.
/// Entries are skipped — and permanently consumed — when their task is no
/// longer schedulable by the time they are read, so each is visited at most
/// once over the job's lifetime.
#[derive(Default)]
struct LocalityLists {
    spans: VecMap<u32, (u32, u32)>,
    items: Vec<u32>,
    /// Bit per key, cleared once the key's list is exhausted: a delay round
    /// visits many jobs with nothing local on the heartbeating node, and the
    /// bit answers that in one dense read instead of a search.
    bits: Vec<u64>,
}

impl LocalityLists {
    /// Builds the lists from `(key, task position)` pairs packed as
    /// `key << 32 | pos`: sorting them groups the positions by key and
    /// keeps each key's positions in task order.
    fn build(mut pairs: Vec<u64>) -> Self {
        pairs.sort_unstable();
        let mut lists = LocalityLists::default();
        let mut from = 0u32;
        for group in pairs.chunk_by(|a, b| a >> 32 == b >> 32) {
            let key = (group[0] >> 32) as u32;
            let to = from + group.len() as u32;
            // Keys arrive in ascending order, so each insert appends.
            lists.spans.insert(key, (from, to));
            let word = (key / 64) as usize;
            lists.bits.resize(lists.bits.len().max(word + 1), 0);
            lists.bits[word] |= 1u64 << (key % 64);
            from = to;
        }
        lists.items = pairs.into_iter().map(|pair| pair as u32).collect();
        lists
    }

    /// Reads `key`'s list up to its next entry that `take` accepts; `None`
    /// once the list is exhausted, or if `key` has none.
    fn next_where(&mut self, key: u32, mut take: impl FnMut(usize) -> bool) -> Option<usize> {
        if !test_bit(&self.bits, key) {
            return None;
        }
        let span = self.spans.get_mut(&key)?;
        let mut found = None;
        while span.0 < span.1 && found.is_none() {
            let pos = self.items[span.0 as usize] as usize;
            span.0 += 1;
            found = Some(pos).filter(|&pos| take(pos));
        }
        if span.0 == span.1 {
            clear_bit(&mut self.bits, key);
        }
        found
    }
}

/// Whether a list entry may launch: its task is still schedulable and not
/// already chosen in this round (a task picked from the node list may also
/// sit on the rack list; the context's task states only change once the
/// round's actions are applied, so the guard prevents double-launching).
fn launchable(job: &JobRuntime, chosen: &[usize], pos: usize) -> bool {
    !chosen.contains(&pos) && job.tasks.get(pos).is_some_and(|t| t.state.is_schedulable())
}

/// Per-job rack-aware pending-task index, in the spirit of Hadoop's
/// `JobInProgress` non-running task caches: for every replica-holding node
/// (and its rack) a list of pending map tasks, plus a cursor for the
/// any-locality fallback scan. This is what keeps a free-slot heartbeat
/// O(launches) instead of O(job tasks): without it, every launch on a
/// 1000-task job re-scanned the whole task list per locality tier.
///
/// The lists are consume-once (see [`LocalityLists`]): a task killed after
/// its entry was consumed is simply no longer found *locally* — the
/// fallback scan, which rewinds when the job still reports schedulable work
/// that the cursor cannot see, guarantees it is found at all.
#[derive(Default)]
struct JobIndex {
    /// node id -> pending map tasks with a replica on that node.
    by_node: LocalityLists,
    /// rack id -> pending map tasks with a replica in that rack.
    by_rack: LocalityLists,
    /// First position of `tasks` that may still be schedulable; only ever
    /// advanced past non-schedulable tasks (and rewound after kills).
    cursor: usize,
}

#[inline]
fn test_bit(bits: &[u64], key: u32) -> bool {
    bits.get((key / 64) as usize)
        .is_some_and(|w| w & (1u64 << (key % 64)) != 0)
}

#[inline]
fn clear_bit(bits: &mut [u64], key: u32) {
    if let Some(w) = bits.get_mut((key / 64) as usize) {
        *w &= !(1u64 << (key % 64));
    }
}

/// ORs `src` into `dst`, growing `dst` as needed.
fn or_into(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, w) in dst.iter_mut().zip(src) {
        *d |= w;
    }
}

impl JobIndex {
    fn build(job: &JobRuntime, ctx: &SchedulerContext<'_>) -> Self {
        // One node pair per replica and at most one rack pair per replica:
        // both vectors are sized once instead of regrowing from empty.
        let replicas = job.tasks.iter().map(|t| t.preferred_nodes.len()).sum();
        let (mut nodes, mut racks) = (Vec::with_capacity(replicas), Vec::with_capacity(replicas));
        let mut racks_seen: Vec<u32> = Vec::with_capacity(4);
        for (pos, t) in (0u64..).zip(&job.tasks) {
            racks_seen.clear();
            for holder in &t.preferred_nodes {
                nodes.push(u64::from(holder.0) << 32 | pos);
                if let Some(rack) = ctx.topology.rack_of(*holder) {
                    if !racks_seen.contains(&rack.0) {
                        racks_seen.push(rack.0);
                        racks.push(u64::from(rack.0) << 32 | pos);
                    }
                }
            }
        }
        JobIndex {
            by_node: LocalityLists::build(nodes),
            by_rack: LocalityLists::build(racks),
            cursor: 0,
        }
    }
}

/// Bound on declining jobs visited per `fill_node` round. Without it, a
/// round where every backlogged job waits for locality scans the whole job
/// order on every heartbeat — O(jobs) of pure declines. Past the cap the
/// slot simply stays free until the next heartbeat (by which point waits
/// have escalated); capped-out jobs' clocks start a few heartbeats later,
/// which only shifts their bounded wait, never starves them.
const MAX_DECLINES_PER_ROUND: usize = 64;

/// Declining jobs per [`DeclineWindow`] block.
const WINDOW_BLOCK: usize = 8;

/// Jobs without a placement preference (synthetic input) are never
/// delay-restricted; tasks are laid out maps-first, so the first task tells.
fn prefers_local(job: &JobRuntime) -> bool {
    job.tasks
        .first()
        .is_some_and(|t| !t.preferred_nodes.is_empty())
}

/// Whether `job` takes `fill_node`'s fast-decline branch on `node` right
/// now, recomputed without the window: the debug-build check behind every block
/// the decline window skips.
fn fast_declines(
    indices: &[Option<JobIndex>],
    ctx: &SchedulerContext<'_>,
    board: &DelayScoreboard,
    job: JobId,
    node: NodeId,
    rack: Option<RackId>,
) -> bool {
    let Some(runtime) = ctx.jobs.get(&job) else {
        return false;
    };
    let Some(Some(index)) = indices.get((job.0 as usize).wrapping_sub(1)) else {
        return false;
    };
    let allowed = board.allowed(job, ctx.now);
    runtime.schedulable_maps > 0
        && runtime.schedulable_reduces == 0
        && runtime.suspended_count == 0
        && prefers_local(runtime)
        && allowed < Locality::OffRack
        && !test_bit(&index.by_node.bits, node.0)
        && !(allowed >= Locality::RackLocal
            && rack.is_some_and(|r| test_bit(&index.by_rack.bits, r.0)))
}

/// Whether `task`, listed as suspended by the heartbeating node's tracker,
/// is `Suspended` at the JobTracker too. The tracker is attempt-level and may
/// still list a task whose JobTracker state moved on to MustResume/MustKill
/// (a resume that could not be delivered retries via the command path, not
/// here); a slot spent on its Resume would be discarded by the engine.
fn resumable(ctx: &SchedulerContext<'_>, task: TaskId) -> bool {
    ctx.task(task)
        .is_some_and(|t| t.state == TaskState::Suspended)
}

/// Whether a job in `rest` owns a task suspended on `tt`'s node that a free
/// slot of its kind could resume: the debug-build check behind every walk
/// that stops with suspended tasks left on the node.
fn resume_ahead(
    ctx: &SchedulerContext<'_>,
    tt: &TaskTracker,
    rest: &[JobId],
    free_map: u32,
    free_reduce: u32,
) -> bool {
    tt.suspended_tasks().any(|task| {
        let free = match task.kind {
            TaskKind::Map => free_map,
            TaskKind::Reduce => free_reduce,
        };
        free > 0 && resumable(ctx, task) && rest.contains(&task.job)
    })
}

/// Up to [`WINDOW_BLOCK`] consecutive jobs of a [`DeclineWindow`].
#[derive(Default)]
struct WindowBlock {
    /// Order position of the block's first job: just past the previous
    /// block's last job, so the idle jobs in between belong to this block.
    from: usize,
    jobs: Vec<JobId>,
    /// Union of the jobs' node-list bits.
    node_bits: Vec<u64>,
    /// Union of the rack-list bits of the jobs allowed rack-local.
    rack_bits: Vec<u64>,
    /// What [`DelayScoreboard::note_skips`] returned when the block last
    /// counted its declines.
    skip_stamp: Option<u64>,
}

/// A cached summary of the head of a cached job order under delay
/// scheduling: the leading jobs that take `fill_node`'s fast-decline branch
/// on every node outside their replica sets, grouped into blocks whose
/// replica bitsets are OR-ed. A round skips each leading block whose unions
/// exclude its node and rack — every job in it would decline — in a couple
/// of dense reads, and walks the order from the first block that might act.
///
/// A window job has schedulable maps, no schedulable reduces, no suspended
/// tasks, replica preferences and an allowed level below `OffRack`; jobs
/// with no work at all may sit between them. That stays true while the
/// order generation and the scoreboard's shape epoch are unchanged, and the
/// levels hold until the earliest escalation instant (`expires`): a reset
/// only tightens a level, and a clock started later escalates later. Replica
/// bits are only ever cleared after the build, so stale unions are too wide
/// (slower), never too narrow (wrong).
#[derive(Default)]
struct DeclineWindow {
    /// Order generation and shape epoch the window was built for.
    key: Option<(u64, u64)>,
    /// Earliest instant some window job's allowed level may loosen.
    expires: SimTime,
    /// The first `live` are the window's; the rest keep their buffers for
    /// later rebuilds, which happen thousands of times per run.
    blocks: Vec<WindowBlock>,
    live: usize,
    /// Order position just past the window's last job.
    end: usize,
}

/// The per-job indices of one scheduler instance, built lazily per job and
/// dropped when the job finishes. Job ids are dense (sequential from 1), so
/// the table is a `Vec` indexed by `id - 1` — the per-job lookup on the
/// fill-loop hot path is a bounds check, not a hash.
#[derive(Default)]
pub(crate) struct LocalityIndex {
    jobs: Vec<Option<JobIndex>>,
    /// The decline window over the policy's cached order.
    window: DeclineWindow,
    /// Reusable per-round buffer of task positions already chosen for launch
    /// from the current job (guards against double-launching a task that
    /// appears on several candidate lists).
    chosen: Vec<usize>,
    /// Simulated second of the last speculation scan
    /// ([`SchedulerContext::speculate`]).
    last_spec_scan: Option<u64>,
}

impl LocalityIndex {
    pub(crate) fn forget(&mut self, job: JobId) {
        if let Some(slot) = self.jobs.get_mut((job.0 as usize).wrapping_sub(1)) {
            *slot = None;
        }
    }

    /// The job's index, built on first touch. A new index drops the decline
    /// window, which only ever covers jobs already indexed here: the next
    /// round's rebuild may then reach past the new job.
    fn entry(&mut self, job: &JobRuntime, ctx: &SchedulerContext<'_>) -> &mut JobIndex {
        let idx = (job.id.0 as usize).saturating_sub(1);
        if idx >= self.jobs.len() {
            self.jobs.resize_with(idx + 1, || None);
        }
        let slot = &mut self.jobs[idx];
        if slot.is_none() {
            self.window.key = None;
        }
        slot.get_or_insert_with(|| JobIndex::build(job, ctx))
    }

    /// Rebuilds the decline window over `order` from position 0.
    fn build_window(
        &mut self,
        ctx: &SchedulerContext<'_>,
        board: &DelayScoreboard,
        order: &[JobId],
        key: (u64, u64),
    ) {
        let window = &mut self.window;
        window.key = Some(key);
        window.expires = SimTime::MAX;
        window.live = 0;
        window.end = 0;
        let mut jobs = 0usize;
        for (pos, job_id) in order.iter().enumerate() {
            let Some(job) = ctx.jobs.get(job_id) else {
                continue;
            };
            if job.schedulable_count() == 0 && job.suspended_count == 0 {
                continue;
            }
            if job.schedulable_reduces > 0 || job.suspended_count > 0 || !prefers_local(job) {
                break;
            }
            let (allowed, until) = board.allowed_until(*job_id, ctx.now);
            if allowed == Locality::OffRack || until <= ctx.now {
                break;
            }
            // Indexing is left to the walk, so the window adds no memory.
            let Some(Some(job_index)) = self.jobs.get((job_id.0 as usize).wrapping_sub(1)) else {
                break;
            };
            window.expires = window.expires.min(until);
            if jobs.is_multiple_of(WINDOW_BLOCK) {
                if window.live == window.blocks.len() {
                    window.blocks.push(WindowBlock::default());
                }
                let block = &mut window.blocks[window.live];
                block.from = window.end;
                block.jobs.clear();
                block.node_bits.clear();
                block.rack_bits.clear();
                block.skip_stamp = None;
                window.live += 1;
            }
            let block = &mut window.blocks[window.live - 1];
            or_into(&mut block.node_bits, &job_index.by_node.bits);
            if allowed >= Locality::RackLocal {
                or_into(&mut block.rack_bits, &job_index.by_rack.bits);
            }
            block.jobs.push(*job_id);
            window.end = pos + 1;
            jobs += 1;
            if jobs == MAX_DECLINES_PER_ROUND {
                break;
            }
        }
    }

    /// Declines, in whole blocks, the leading window jobs that provably
    /// decline a map slot on `node`, rebuilding the window first when it is
    /// stale. Returns the order position the round's walk resumes at and the
    /// declines recorded so far.
    fn skip_declines(
        &mut self,
        ctx: &SchedulerContext<'_>,
        board: &DelayScoreboard,
        node: NodeId,
        rack: Option<RackId>,
        order: &[JobId],
        generation: u64,
    ) -> (usize, usize) {
        let key = (generation, board.shape_epoch());
        if self.window.key != Some(key) || ctx.now >= self.window.expires {
            self.build_window(ctx, board, order, key);
        }
        let mut declines = 0;
        for block in &mut self.window.blocks[..self.window.live] {
            if test_bit(&block.node_bits, node.0)
                || rack.is_some_and(|r| test_bit(&block.rack_bits, r.0))
            {
                return (block.from, declines);
            }
            debug_assert!(
                block
                    .jobs
                    .iter()
                    .all(|job| fast_declines(&self.jobs, ctx, board, *job, node, rack)),
                "a skipped window job could act on {node:?}"
            );
            block.skip_stamp = Some(board.note_skips(&block.jobs, ctx.now, block.skip_stamp));
            declines += block.jobs.len();
        }
        (self.window.end, declines)
    }
}

/// Launches (and resumes) the tasks of jobs in the order produced by
/// `ordered_jobs`, filling free slots on `node`. Fresh launches are handed
/// out rack-aware — node-local tasks first, then rack-local, then anything —
/// via the per-job [`LocalityIndex`].
///
/// With delay scheduling enabled (`ClusterConfig::delay`), a job whose
/// allowed locality level has not yet escalated *declines* the non-local
/// tiers: its rack list is left untouched and the fallback scan skips the
/// map region, the declined opportunity is recorded (which starts/continues
/// the job's wait clock), and the loop moves on so the next job in policy
/// order can use the slot. Jobs whose tasks have no placement preference are
/// never restricted, and reduces always launch anywhere. Liveness holds
/// because the allowed level is a pure function of elapsed wait: every
/// declining job reaches `OffRack` within the configured waits, even when
/// all its replica holders are dead.
///
/// Suspended tasks on `node` resume ahead of their job's fresh launches, but
/// only into a free slot of their own kind: the round counts, per kind, the
/// tasks a free slot could resume, and the walk stops once no count is left
/// that a free slot could still use and nothing can launch. A suspended map
/// on a node with busy map slots therefore never drags a reduce-slot
/// heartbeat across the whole order.
///
/// `generation` identifies `ordered_jobs` across rounds (see
/// [`JobOrder::generation`](crate::pipeline::JobOrder)); when given, the
/// round first skips the order's provably declining head through the
/// index's [`DeclineWindow`], with the same outcome as walking it.
pub(crate) fn fill_node(
    ctx: &SchedulerContext<'_>,
    node: NodeId,
    ordered_jobs: &[JobId],
    generation: Option<u64>,
    index: &mut LocalityIndex,
) -> Vec<SchedulerAction> {
    let Some(tt) = ctx.node(node) else {
        return Vec::new();
    };
    let mut free_map = tt.free_slots(TaskKind::Map);
    let mut free_reduce = tt.free_slots(TaskKind::Reduce);
    // Hot-path early exit, O(1) via the engine-maintained cluster totals
    // plus a pass over the tasks suspended *on this node*: skip everything
    // when this node's free slots provably cannot be used — no pending work
    // of a matching kind exists anywhere and no suspended task here has a
    // free slot of its own kind. At 10k-node scale the overwhelming majority
    // of heartbeats hit this case (e.g. the always-free reduce slot of a
    // map-only workload, or of a node whose busy map slots keep a suspended
    // map waiting).
    let mut maps_unclaimed = ctx.totals.schedulable_maps;
    let mut reduces_unclaimed = ctx.totals.schedulable_reduces;
    let can_launch_map = free_map > 0 && maps_unclaimed > 0;
    let can_launch_reduce = free_reduce > 0 && reduces_unclaimed > 0;
    // Per kind, the suspended tasks here that a free slot could resume.
    // Slots only fill during a round and task states only change once its
    // actions are applied, so a task not counted now cannot resume later in
    // the round.
    let (mut resumable_maps, mut resumable_reduces) = (0u32, 0u32);
    if free_map > 0 || free_reduce > 0 {
        for task in tt.suspended_tasks() {
            let (free, count) = match task.kind {
                TaskKind::Map => (free_map, &mut resumable_maps),
                TaskKind::Reduce => (free_reduce, &mut resumable_reduces),
            };
            if free > 0 && resumable(ctx, task) {
                *count += 1;
            }
        }
    }
    let can_resume = resumable_maps > 0 || resumable_reduces > 0;
    // Speculation (when enabled) inspects only tail-phase jobs, and only
    // when this node still has a free map slot after regular assignment —
    // Hadoop's trigger: a slot nothing pending can use.
    let can_speculate = ctx.speculation.enabled && free_map > 0;
    if !can_launch_map && !can_launch_reduce && !can_resume && !can_speculate {
        return Vec::new();
    }
    let rack = ctx.topology.rack_of(node);
    let board = ctx.delay.filter(|d| d.enabled());
    let delay_on = board.is_some();
    // Failure-aware placement: while this node's failure history marks it
    // flaky *and* capacity exists elsewhere, withhold fresh launches (and
    // speculative backups) from it. Resumes are never gated — the suspended
    // state already lives here.
    let avoid_map = ctx.reliability_avoid(node, TaskKind::Map);
    let avoid_reduce = ctx.reliability_avoid(node, TaskKind::Reduce);
    let mut actions = Vec::new();
    // The window only answers for rounds with a map slot to decline.
    let (start, mut declines) = match (board, generation) {
        (Some(board), Some(generation)) if can_launch_map => {
            index.skip_declines(ctx, board, node, rack, ordered_jobs, generation)
        }
        _ => (0, 0),
    };
    let walk = if declines < MAX_DECLINES_PER_ROUND {
        &ordered_jobs[start..]
    } else {
        &[]
    };
    for (at, job_id) in walk.iter().enumerate() {
        // Stop as soon as the remaining slots provably cannot be used by
        // anything further down the list (per-kind: a free reduce slot must
        // not keep the loop scanning map-only jobs, nor for a suspended map
        // it cannot resume).
        let want_map = free_map > 0 && maps_unclaimed > 0;
        let want_reduce = free_reduce > 0 && reduces_unclaimed > 0;
        let want_resume =
            free_map > 0 && resumable_maps > 0 || free_reduce > 0 && resumable_reduces > 0;
        if !want_map && !want_reduce && !want_resume {
            debug_assert!(
                !resume_ahead(ctx, tt, &walk[at..], free_map, free_reduce),
                "a later job could resume a task on {node:?}"
            );
            break;
        }
        let Some(job) = ctx.jobs.get(job_id) else {
            continue;
        };
        // O(1) skip via the engine-maintained per-job counters: a job with
        // nothing this node could take costs one map lookup here, not a scan
        // of its (potentially huge) task list.
        let job_maps = free_map > 0 && job.schedulable_maps > 0;
        let job_reduces = free_reduce > 0 && job.schedulable_reduces > 0;
        let job_resumes = want_resume && job.suspended_count > 0;
        if !job_maps && !job_reduces && !job_resumes {
            continue;
        }
        // Resume the job's own suspended tasks before launching new ones: a
        // suspended task already holds memory on its node and finishing it
        // releases that memory soonest. The tracker lists exactly the tasks
        // suspended *here*, so the match is O(suspended-on-node), not O(job
        // tasks).
        if job_resumes {
            for task in tt.suspended_tasks().filter(|t| t.job == *job_id) {
                let (free, count) = match task.kind {
                    TaskKind::Map => (&mut free_map, &mut resumable_maps),
                    TaskKind::Reduce => (&mut free_reduce, &mut resumable_reduces),
                };
                if *free > 0 && resumable(ctx, task) {
                    *free -= 1;
                    *count -= 1;
                    actions.push(SchedulerAction::Resume { task });
                }
            }
        }
        if !job_maps && !job_reduces {
            continue;
        }
        // Delay scheduling: the loosest locality this job may launch maps at
        // right now, decided *before* any index work — at scale most
        // delayed rounds visit many declining jobs, and the decline path
        // must stay a few dense reads, not hash lookups. Jobs with no
        // replica preferences are never restricted, and neither is a job
        // with no schedulable maps at all: the gate only ever withholds map
        // launches, and treating a pure-reduce-phase job as restricted
        // would also suppress the tier-3 rewind below — stranding a reduce
        // killed back to pending behind the cursor forever, since a job
        // without schedulable maps never declines anything and so never
        // escalates.
        let allowed = if delay_on && prefers_local(job) && job.schedulable_maps > 0 {
            ctx.delay_allowed(*job_id)
        } else {
            Locality::OffRack
        };
        let maps_any = allowed == Locality::OffRack;
        let mut chosen = std::mem::take(&mut index.chosen);
        chosen.clear();
        let mut maps_chosen = 0usize;
        let job_index = index.entry(job, ctx);
        // Fast decline: the job is locality-restricted, has provably nothing
        // it may launch on this node (the replica bitsets say so), and no
        // reduce work to place — the whole visit collapses to recording the
        // skipped opportunity. This is the common case of a delayed round at
        // scale, so it must stay a handful of dense reads.
        if !maps_any && free_map > 0 && job.schedulable_maps > 0 && !job_reduces {
            let node_possible = test_bit(&job_index.by_node.bits, node.0);
            let rack_possible = allowed >= Locality::RackLocal
                && rack.is_some_and(|r| test_bit(&job_index.by_rack.bits, r.0));
            if !node_possible && !rack_possible {
                index.chosen = chosen;
                ctx.note_delay_skip(*job_id);
                declines += 1;
                if declines >= MAX_DECLINES_PER_ROUND {
                    break;
                }
                continue;
            }
        }
        // Tiers 1 and 2: map tasks with a replica on this very node, then
        // somewhere in its rack — the rack tier skipped entirely (lists
        // untouched) while the job's delay level is still node-local-only.
        // A list's bit keeps the overwhelmingly common "nothing local here"
        // answer off the search; an exhausted list clears its bit so it is
        // never probed again.
        let mut node_local_chosen = false;
        let rack_key = rack.filter(|_| allowed >= Locality::RackLocal).map(|r| r.0);
        let tiers = [
            (&mut job_index.by_node, Some(node.0), true),
            (&mut job_index.by_rack, rack_key, false),
        ];
        for (lists, key, node_local) in tiers {
            let Some(key) = key.filter(|_| !avoid_map) else {
                continue;
            };
            while free_map > 0 {
                let Some(pos) = lists.next_where(key, |p| launchable(job, &chosen, p)) else {
                    break;
                };
                free_map -= 1;
                maps_unclaimed = maps_unclaimed.saturating_sub(1);
                maps_chosen += 1;
                node_local_chosen |= node_local;
                chosen.push(pos);
                actions.push(SchedulerAction::Launch {
                    task: job.tasks[pos].id,
                    node,
                });
            }
        }
        // Tier 3: anything still schedulable (off-rack maps, reduces, and
        // synthetic tasks, which have no locality preference at all), scanned
        // from the fallback cursor. The cursor only ever moves past
        // non-schedulable tasks, so the scan is O(new work) per heartbeat; a
        // rewind pass catches tasks re-made schedulable (kills) behind it.
        // Tier-3 maps are off-rack by construction (anything node- or
        // rack-local was reachable through the tier-1/2 lists), so the whole
        // map region is skipped while delay keeps the job below `OffRack`.
        // The one loss is a task re-made schedulable after its consume-once
        // list entries were spent (kill/reschedule): it stays invisible to
        // the local tiers and only launches once the job escalates to
        // `OffRack` — a wait bounded by the configured delay, never a
        // livelock.
        //
        // Rack-aware reduce placement: decline this node's reduce slots while
        // the rack holding most of the job's map-output bytes still has free
        // ones (the helper's free-slot check keeps the decline
        // starvation-free), or while the reliability predictor steers fresh
        // work away from the node.
        let decline_reduce = avoid_reduce || ctx.prefer_reduce_elsewhere(*job_id, node);
        for attempt in 0..2 {
            // Per-kind satisfaction: stop when every remaining slot kind is
            // either full or exhausted for this job, so a free reduce slot
            // never drags the scan across a map-only job's task list.
            // "Left" counts schedulable tasks of the job not yet *seen* by
            // this pass (already-chosen ones count as seen when reached).
            let mut maps_left = job.schedulable_maps as usize;
            let mut reduces_left = job.schedulable_reduces as usize;
            while job_index.cursor < job.tasks.len()
                && !job.tasks[job_index.cursor].state.is_schedulable()
            {
                job_index.cursor += 1;
            }
            let mut launched_any = false;
            let mut pos = job_index.cursor;
            // Tasks are laid out maps-first, then reduces (a JobRuntime
            // invariant). When no map slot is free — or delay scheduling
            // still withholds this job's off-rack launches — nothing in the
            // map region can launch, so jump straight to the reduce region
            // instead of dragging the scan across up to thousands of pending
            // maps on every reduce-slot heartbeat.
            if free_map == 0 || !maps_any || avoid_map {
                let map_region = job
                    .tasks
                    .len()
                    .saturating_sub(job.spec.reduce_tasks as usize);
                pos = pos.max(map_region);
                maps_left = 0;
            }
            while pos < job.tasks.len() {
                let maps_satisfied = free_map == 0 || maps_left == 0;
                let reduces_satisfied = free_reduce == 0 || reduces_left == 0;
                if maps_satisfied && reduces_satisfied {
                    break;
                }
                let t = &job.tasks[pos];
                if t.state.is_schedulable() {
                    let already_chosen = chosen.contains(&pos);
                    match t.id.kind {
                        TaskKind::Map => {
                            if !already_chosen && free_map > 0 {
                                free_map -= 1;
                                maps_unclaimed = maps_unclaimed.saturating_sub(1);
                                maps_chosen += 1;
                                launched_any = true;
                                chosen.push(pos);
                                actions.push(SchedulerAction::Launch { task: t.id, node });
                            }
                            maps_left = maps_left.saturating_sub(1);
                        }
                        TaskKind::Reduce => {
                            if !already_chosen && free_reduce > 0 && !decline_reduce {
                                free_reduce -= 1;
                                reduces_unclaimed = reduces_unclaimed.saturating_sub(1);
                                launched_any = true;
                                chosen.push(pos);
                                actions.push(SchedulerAction::Launch { task: t.id, node });
                            }
                            reduces_left = reduces_left.saturating_sub(1);
                        }
                    }
                }
                pos += 1;
            }
            // The job claims schedulable work the cursor cannot see (a task
            // behind it was killed back to pending): rewind once and retry.
            // A delay-declining job's unlaunched maps are *withheld*, not
            // invisible — rewinding for them would rescan every heartbeat.
            let invisible = !launched_any
                && attempt == 0
                && maps_any
                && job_index.cursor > 0
                && chosen.len() < job.schedulable_count() as usize;
            if !invisible {
                break;
            }
            job_index.cursor = 0;
        }
        index.chosen = chosen;
        // The job declined map launches it had slots for: record the skipped
        // opportunity so its wait clock runs and its allowed level escalates.
        // A round that launched a node-local map did NOT skip the
        // opportunity — the engine resets the wait on that launch anyway, so
        // noting a skip here would only mint a spurious zero-length entry in
        // the wait histogram.
        if !maps_any
            && !node_local_chosen
            && free_map > 0
            && (job.schedulable_maps as usize) > maps_chosen
        {
            ctx.note_delay_skip(*job_id);
            declines += 1;
            if declines >= MAX_DECLINES_PER_ROUND {
                break;
            }
        }
    }

    // Speculation considers every incomplete job, not just `ordered_jobs`
    // (which policies prune to jobs with launchable/resumable work): a
    // tail-phase job whose tasks are all running or suspended is exactly
    // the speculation target.
    if !avoid_map {
        ctx.speculate(node, free_map, &mut index.last_spec_scan, &mut actions);
    }
    actions
}

/// A FAIR-style scheduler with preemption.
///
/// Every job is its own pool with an equal share of the cluster's map slots.
/// A job that has been running fewer slots than its fair share for longer
/// than `preemption_timeout` triggers preemption: tasks of over-share jobs
/// are evicted with the configured primitive, victims chosen by the eviction
/// policy (this is how the Hadoop FAIR scheduler warrants fairness, with
/// kill replaced by suspend/resume).
///
/// Each heartbeat allocates free slots to the most-starved jobs first, then
/// runs the deficit-triggered preemption.
pub struct FairScheduler {
    allocate: Allocate<FairJobOrder>,
    preempt: FairPreempt,
}

impl FairScheduler {
    /// Creates a FAIR scheduler for a cluster with `total_map_slots` map slots.
    pub fn new(
        primitive: PreemptionPrimitive,
        eviction: EvictionPolicy,
        total_map_slots: usize,
        preemption_timeout: SimDuration,
    ) -> Self {
        FairScheduler {
            allocate: Allocate::new(FairJobOrder::default()),
            preempt: FairPreempt::new(primitive, eviction, total_map_slots, preemption_timeout),
        }
    }
}

impl SchedulerPolicy for FairScheduler {
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction> {
        let mut out = self.allocate.on_heartbeat(ctx, node);
        self.preempt.on_heartbeat(ctx, &mut out);
        out
    }

    fn on_job_submitted(
        &mut self,
        _ctx: &SchedulerContext<'_>,
        _job: JobId,
    ) -> Vec<SchedulerAction> {
        self.allocate.job_submitted();
        Vec::new()
    }

    fn on_job_finished(&mut self, _ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.allocate.job_finished(job);
        Vec::new()
    }

    fn name(&self) -> &str {
        "fair"
    }
}

/// An HFSP-style size-based scheduler with preemption.
///
/// Jobs are ordered by remaining size (the input bytes of their unfinished
/// tasks scaled by reported progress, which the engine maintains as
/// `JobRuntime::remaining_bytes`); the smallest job runs first. When a newly submitted job is smaller than what is currently
/// running and no slots are free, tasks of the largest running job are
/// preempted with the configured primitive.
pub struct HfspScheduler {
    allocate: Allocate<HfspJobOrder>,
    preempt: SizePreempt,
}

impl HfspScheduler {
    /// Creates an HFSP-style scheduler.
    pub fn new(primitive: PreemptionPrimitive, eviction: EvictionPolicy) -> Self {
        HfspScheduler {
            allocate: Allocate::new(HfspJobOrder::default()),
            preempt: SizePreempt::new(primitive, eviction),
        }
    }
}

impl SchedulerPolicy for HfspScheduler {
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction> {
        self.allocate.on_heartbeat(ctx, node)
    }

    fn on_job_submitted(&mut self, ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.allocate.job_submitted();
        self.preempt.on_job_submitted(ctx, job)
    }

    fn on_job_finished(&mut self, _ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.allocate.job_finished(job);
        Vec::new()
    }

    fn name(&self) -> &str {
        "hfsp"
    }
}

/// Configuration of a [`MultiTenantScheduler`].
pub struct MultiTenantConfig {
    /// Per-tenant weights; quota is `weight / Σ weights`.
    pub weights: Vec<f64>,
    /// Map slots in the cluster (DRF denominator).
    pub total_map_slots: u32,
    /// Reduce slots in the cluster (DRF denominator).
    pub total_reduce_slots: u32,
    /// Warm-up horizon excluded from the ledger's steady-state statistics.
    pub steady_after: SimTime,
    /// How reclaim evicts: `Kill` (work lost) or `SuspendResume` (the
    /// paper's OS-assisted primitive, work preserved).
    pub primitive: PreemptionPrimitive,
    /// Victim selection within a job.
    pub eviction: EvictionPolicy,
}

/// A multi-tenant scheduler: weighted DRF over tenants, with quota reclaim
/// and best-effort backfill — the shared-cluster setting the paper's
/// primitive was built for.
///
/// Each heartbeat allocates free slots to the tenant with the lowest
/// dominant share relative to its quota, then (once per simulated second)
/// evicts from best-effort jobs and over-quota tenants while starved tenants'
/// claims exceed free capacity — by kill or by OS-assisted suspend, the
/// paper's trade-off as the `primitive` knob — and finally backfills
/// best-effort jobs into whatever capacity is left, including slots freed
/// by suspension.
pub struct MultiTenantScheduler {
    allocate: Allocate<DrfJobOrder>,
    reclaim: Reclaim,
    backfill: Backfill,
}

impl MultiTenantScheduler {
    /// Creates the scheduler plus the [`TenantLedger`] it shares with its
    /// stages, for end-of-run share statistics.
    pub fn new(config: MultiTenantConfig) -> (Self, Rc<RefCell<TenantLedger>>) {
        let ledger = Rc::new(RefCell::new(TenantLedger::new(
            config.weights,
            config.total_map_slots,
            config.total_reduce_slots,
            config.steady_after,
        )));
        let scheduler = MultiTenantScheduler {
            allocate: Allocate::new(DrfJobOrder::new(ledger.clone())),
            reclaim: Reclaim::new(ledger.clone(), config.primitive, config.eviction),
            backfill: Backfill::default(),
        };
        (scheduler, ledger)
    }
}

impl SchedulerPolicy for MultiTenantScheduler {
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction> {
        let mut out = self.allocate.on_heartbeat(ctx, node);
        self.reclaim.on_heartbeat(ctx, &mut out);
        self.backfill.on_heartbeat(ctx, node, &mut out);
        out
    }

    fn on_job_submitted(&mut self, ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.allocate.job_submitted();
        self.backfill.job_submitted(ctx, job);
        Vec::new()
    }

    fn on_job_finished(&mut self, _ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.allocate.job_finished(job);
        self.backfill.job_finished(job);
        Vec::new()
    }

    fn name(&self) -> &str {
        "multi_tenant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_engine::{Cluster, ClusterConfig, JobSpec};
    use mrp_sim::{SimTime, MIB};

    fn two_job_cluster(scheduler: Box<dyn SchedulerPolicy>) -> mrp_engine::ClusterReport {
        let mut cluster = Cluster::new(ClusterConfig::paper_single_node(), scheduler);
        cluster.create_input_file("/big", 512 * MIB).unwrap();
        cluster.create_input_file("/small", 128 * MIB).unwrap();
        cluster.submit_job(JobSpec::map_only("big", "/big"));
        cluster.submit_job_at(JobSpec::map_only("small", "/small"), SimTime::from_secs(20));
        cluster.run(SimTime::from_secs(4 * 3_600));
        cluster.report()
    }

    #[test]
    fn hfsp_suspend_lets_the_small_job_jump_the_queue() {
        let report = two_job_cluster(Box::new(HfspScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
        )));
        assert!(report.all_jobs_complete());
        let small = report.sojourn_secs("small").unwrap();
        let big_job = report.job("big").unwrap();
        assert!(
            small < 60.0,
            "with preemption the small job should finish in ~25-40s, got {small}"
        );
        assert_eq!(big_job.tasks[0].suspend_cycles, 1);
        assert_eq!(big_job.tasks[0].attempts, 1, "no work lost");
    }

    #[test]
    fn hfsp_kill_wastes_the_big_jobs_work() {
        let report = two_job_cluster(Box::new(HfspScheduler::new(
            PreemptionPrimitive::Kill,
            EvictionPolicy::ClosestToCompletion,
        )));
        assert!(report.all_jobs_complete());
        let big_job = report.job("big").unwrap();
        assert!(big_job.wasted_work_secs() > 5.0);
        assert!(big_job.tasks[0].attempts >= 2);
    }

    #[test]
    fn hfsp_wait_does_not_preempt() {
        let report = two_job_cluster(Box::new(HfspScheduler::new(
            PreemptionPrimitive::Wait,
            EvictionPolicy::ClosestToCompletion,
        )));
        assert!(report.all_jobs_complete());
        let small = report.sojourn_secs("small").unwrap();
        assert!(
            small > 60.0,
            "without preemption the small job waits, got {small}"
        );
        assert_eq!(report.job("big").unwrap().tasks[0].suspend_cycles, 0);
    }

    #[test]
    fn hfsp_suspend_beats_kill_on_makespan_and_ties_on_small_job_latency() {
        let susp = two_job_cluster(Box::new(HfspScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
        )));
        let kill = two_job_cluster(Box::new(HfspScheduler::new(
            PreemptionPrimitive::Kill,
            EvictionPolicy::ClosestToCompletion,
        )));
        assert!(susp.makespan_secs().unwrap() < kill.makespan_secs().unwrap());
        assert!(susp.sojourn_secs("small").unwrap() <= kill.sojourn_secs("small").unwrap() + 5.0);
    }

    #[test]
    fn fair_scheduler_shares_a_two_slot_node() {
        let mut cfg = ClusterConfig::paper_single_node();
        cfg.nodes[0].map_slots = 2;
        let scheduler = FairScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
            2,
            SimDuration::from_secs(10),
        );
        let mut cluster = Cluster::new(cfg, Box::new(scheduler));
        // A job with many tasks hogs both slots; a later job should get one
        // of them back through fairness preemption.
        cluster.submit_job(JobSpec::synthetic("hog", 6, 256 * MIB));
        cluster.submit_job_at(
            JobSpec::synthetic("latecomer", 1, 256 * MIB),
            SimTime::from_secs(30),
        );
        cluster.run(SimTime::from_secs(8 * 3_600));
        let report = cluster.report();
        assert!(report.all_jobs_complete());
        let late = report.sojourn_secs("latecomer").unwrap();
        // Without preemption the latecomer would wait for a full task of the
        // hog to finish (~40s+); with fairness preemption it starts sooner.
        assert!(late < 140.0, "latecomer sojourn {late}");
        let hog = report.job("hog").unwrap();
        let suspensions: u32 = hog.tasks.iter().map(|t| t.suspend_cycles).sum();
        assert!(
            suspensions >= 1,
            "fairness should have suspended at least one hog task"
        );
    }

    #[test]
    fn fair_scheduler_without_contention_never_preempts() {
        let scheduler = FairScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
            1,
            SimDuration::from_secs(10),
        );
        let mut cluster = Cluster::new(ClusterConfig::paper_single_node(), Box::new(scheduler));
        cluster.submit_job(JobSpec::synthetic("solo", 2, 128 * MIB));
        cluster.run(SimTime::from_secs(4 * 3_600));
        let report = cluster.report();
        assert!(report.all_jobs_complete());
        assert_eq!(
            report
                .job("solo")
                .unwrap()
                .tasks
                .iter()
                .map(|t| t.suspend_cycles)
                .sum::<u32>(),
            0
        );
    }

    #[test]
    fn hfsp_on_racked_cluster_prefers_local_launches() {
        let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
        cfg.dfs_replication = 1;
        let mut cluster = Cluster::new(
            cfg,
            Box::new(HfspScheduler::new(
                PreemptionPrimitive::SuspendResume,
                EvictionPolicy::ClosestToCompletion,
            )),
        );
        // All replicas on node 3 (rack 1): the first launch should be
        // node-local there, and the scheduler should still spill the
        // remaining blocks to rack-local/off-rack nodes rather than starve.
        cluster
            .create_input_file_from("/pinned", 512 * MIB, Some(mrp_engine::NodeId(3)))
            .unwrap();
        cluster.submit_job(JobSpec::map_only("pinned", "/pinned"));
        cluster.run(SimTime::from_secs(4 * 3_600));
        let report = cluster.report();
        assert!(report.all_jobs_complete());
        assert_eq!(report.locality.total(), 4, "four 128MB blocks, four maps");
        assert!(
            report.locality.node_local >= 1,
            "the replica holder must get node-local work: {:?}",
            report.locality
        );
        assert!(
            report.locality.rack_local + report.locality.off_rack >= 1,
            "non-holders must still get (remote) work: {:?}",
            report.locality
        );
    }

    #[test]
    fn speculation_re_executes_a_stranded_suspended_task() {
        // Two nodes, one map slot each. A four-task "big" job runs in two
        // waves; mid-wave-2 a smaller "medium" job arrives, and HFSP suspends
        // one wave-2 task to make room. The medium job then pins that node
        // while the other node drains — the suspended task is stranded: its
        // progress rate decays below half the job mean (anchored by the three
        // completed siblings). With speculation the idle node runs a backup
        // that finishes before the original can even resume
        // (first-finisher-wins), shrinking the makespan; without it the job
        // waits for the resume.
        let run = |speculation: bool| {
            let mut cfg = ClusterConfig::small_cluster(2, 1, 0);
            if speculation {
                cfg.speculation = mrp_engine::SpeculationConfig::enabled();
            }
            let mut cluster = Cluster::new(
                cfg,
                Box::new(HfspScheduler::new(
                    PreemptionPrimitive::SuspendResume,
                    EvictionPolicy::ClosestToCompletion,
                )),
            );
            cluster.submit_job(JobSpec::synthetic("big", 4, 256 * MIB));
            cluster.submit_job_at(
                JobSpec::synthetic("medium", 1, 320 * MIB),
                SimTime::from_secs(55),
            );
            cluster.run(SimTime::from_secs(8 * 3_600));
            let report = cluster.report();
            assert!(report.all_jobs_complete());
            report
        };
        let with_spec = run(true);
        let without = run(false);
        assert!(
            without.faults.speculative_launched == 0,
            "speculation off must not speculate"
        );
        assert!(
            with_spec.faults.speculative_launched >= 1,
            "the stranded suspended task must draw a backup: {:?}",
            with_spec.faults
        );
        assert!(
            with_spec.faults.speculative_won >= 1,
            "the backup finishes before the stranded original can resume: {:?}",
            with_spec.faults
        );
        assert!(
            with_spec.makespan_secs().unwrap() < without.makespan_secs().unwrap(),
            "speculative re-execution must shrink the makespan: {} vs {}",
            with_spec.makespan_secs().unwrap(),
            without.makespan_secs().unwrap()
        );
    }

    #[test]
    fn a_suspended_map_neither_blocks_nor_loses_its_node() {
        // One node with one map and one reduce slot. "b" suspends the larger
        // "a" and takes the map slot. "f", larger than "a", sits behind it
        // in HFSP's order with a pending map and reduce; "g" has no maps
        // and sits ahead of everything with one pending reduce.
        let mut cluster = Cluster::new(
            ClusterConfig::small_cluster(1, 1, 1),
            Box::new(HfspScheduler::new(
                PreemptionPrimitive::SuspendResume,
                EvictionPolicy::ClosestToCompletion,
            )),
        );
        cluster.submit_job(JobSpec::synthetic("a", 1, 512 * MIB));
        let at = SimTime::from_secs;
        cluster.submit_job_at(JobSpec::synthetic("b", 1, 64 * MIB), at(20));
        let f = JobSpec::synthetic("f", 1, 1024 * MIB).with_reduces(1);
        cluster.submit_job_at(f, at(25));
        cluster.submit_job_at(JobSpec::synthetic("g", 0, 0).with_reduces(1), at(30));
        cluster.run(SimTime::from_secs(4 * 3_600));
        assert!(cluster.report().all_jobs_complete());
        let lines: Vec<String> = cluster
            .trace()
            .iter()
            .map(|r| r.to_line(cluster.jobs()))
            .collect();
        // Where in the (chronological) trace `task` was first `what`.
        let first = |what: &str, task: &str| {
            lines
                .iter()
                .position(|l| l.contains(&format!("] {what} ")) && l.contains(&format!(" {task} ")))
                .unwrap_or_else(|| panic!("{task} never {what}"))
        };
        let a_map = "task_0001_m_000000";
        let a_suspended = first("Suspended", a_map);
        let a_resumed = first("Resumed", a_map);
        let b_done = first("Completed", "task_0002_m_000000");
        let f_reduce = first("Launched", "task_0003_r_000000");
        assert!(
            a_suspended < f_reduce && f_reduce < b_done,
            "with the map slot busy and a map suspended, f's reduce takes the \
             free reduce slot:\n{}",
            lines.join("\n")
        );
        let g_reduce = first("Launched", "task_0004_r_000000");
        assert!(
            b_done < a_resumed && a_resumed < g_reduce,
            "a resumes into the freed map slot while g, ahead of it, has \
             nothing to place:\n{}",
            lines.join("\n")
        );
        assert!(
            first("Launched", "task_0003_m_000000") > first("Completed", a_map),
            "f's fresh map waits for the resumed one"
        );
    }

    /// The decline window against the plain walk from position 0: one
    /// hand-built job table, two scoreboards and two indices, every round
    /// run both ways and held to the same actions and the same delay state.
    struct WindowHarness {
        jobs: mrp_engine::JobTable,
        order: Vec<JobId>,
        generation: u64,
        topology: mrp_engine::Topology,
        nodes: Vec<mrp_engine::TaskTracker>,
        /// `[window, walk]`.
        boards: [mrp_engine::DelayScoreboard; 2],
        indices: [LocalityIndex; 2],
    }

    impl WindowHarness {
        /// 16 nodes in 4 racks (nodes 0-3 in rack 0, ...) with one free map
        /// slot each, waits of 3 s + 3 s, and one single-map job per entry
        /// of `holders`, its one replica on that node.
        fn new(holders: &[u32]) -> Self {
            let board = || {
                mrp_engine::DelayScoreboard::new(mrp_engine::DelayConfig::waits(
                    SimDuration::from_secs(3),
                    SimDuration::from_secs(3),
                ))
            };
            let mut h = WindowHarness {
                jobs: mrp_engine::JobTable::new(),
                order: Vec::new(),
                generation: 0,
                topology: mrp_engine::Topology::blocked(16, 4),
                nodes: (0..)
                    .zip(&mrp_engine::ClusterConfig::racked_cluster(4, 4, 1, 0).nodes)
                    .map(|(n, config)| mrp_engine::TaskTracker::new(NodeId(n), config))
                    .collect(),
                boards: [board(), board()],
                indices: Default::default(),
            };
            for &holder in holders {
                h.add_job(&[holder]);
            }
            h
        }

        /// Adds a map-only job with one task per entry of `holders` (its
        /// replica node) at the end of the order.
        fn add_job(&mut self, holders: &[u32]) -> JobId {
            let id = JobId(self.jobs.len() as u32 + 1);
            let tasks = holders
                .iter()
                .zip(0..)
                .map(|(&holder, index)| {
                    let task = mrp_engine::TaskId {
                        job: id,
                        kind: TaskKind::Map,
                        index,
                    };
                    mrp_engine::TaskRuntime::new(task, 128 * MIB, vec![NodeId(holder)])
                })
                .collect();
            let job = JobRuntime::new(
                id,
                JobSpec::map_only(format!("job{}", id.0), "/in"),
                SimTime::ZERO,
                tasks,
            );
            self.jobs.insert(id, job);
            for board in &self.boards {
                board.register_job();
            }
            self.order.push(id);
            id
        }

        /// Forces task `index` of `job` into `state` the way
        /// `Cluster::edit_task` does: recount, and report a zero crossing of
        /// the job's counters to both scoreboards.
        fn set_state(&mut self, job: JobId, index: usize, state: TaskState) {
            let runtime = self.jobs.get_mut(&job).expect("known job");
            let shape = |j: &JobRuntime| {
                (
                    j.schedulable_maps > 0,
                    j.schedulable_reduces > 0,
                    j.suspended_count > 0,
                )
            };
            let before = shape(runtime);
            runtime.tasks[index].state = state;
            runtime.recount_task_states();
            if shape(runtime) != before {
                for board in &self.boards {
                    board.note_shape_change();
                }
            }
        }

        /// Offers `node`'s free map slot at second `secs` to the window and
        /// to the walk, asserts they agree, and applies the launches (a
        /// node-local one resets the job's wait, as the engine does).
        fn round(&mut self, secs: u64, node: u32) -> Vec<SchedulerAction> {
            let now = SimTime::from_secs(secs);
            let mut outcomes = Vec::new();
            for side in 0..2 {
                let ctx = SchedulerContext {
                    now,
                    jobs: &self.jobs,
                    nodes: &self.nodes,
                    racks: &[],
                    topology: &self.topology,
                    totals: mrp_engine::PendingTotals::from_jobs(&self.jobs),
                    speculation: mrp_engine::SpeculationConfig::default(),
                    delay: Some(&self.boards[side]),
                    shuffle: None,
                    reliability: None,
                };
                let generation = (side == 0).then_some(self.generation);
                outcomes.push(fill_node(
                    &ctx,
                    NodeId(node),
                    &self.order,
                    generation,
                    &mut self.indices[side],
                ));
            }
            assert_eq!(
                outcomes[0], outcomes[1],
                "actions at {now:?} on node {node}"
            );
            let [window, walk] = &self.boards;
            assert_eq!(window.total_skips(), walk.total_skips(), "skips at {now:?}");
            for job in self.jobs.values() {
                assert_eq!(
                    window.allowed_until(job.id, now),
                    walk.allowed_until(job.id, now),
                    "{:?} at {now:?}",
                    job.id
                );
                assert_eq!(window.job_waiting(job.id), walk.job_waiting(job.id));
            }
            let actions = outcomes.pop().expect("two sides");
            for action in &actions {
                let SchedulerAction::Launch { task, node } = *action else {
                    continue;
                };
                self.set_state(task.job, task.index as usize, TaskState::Running);
                let t = &self.jobs.get(&task.job).expect("known job").tasks[task.index as usize];
                if t.preferred_nodes.contains(&node) {
                    for board in &self.boards {
                        board.local_launch(task.job, now);
                    }
                }
            }
            actions
        }

        fn launched(actions: &[SchedulerAction]) -> Vec<(JobId, NodeId)> {
            actions
                .iter()
                .filter_map(|a| match *a {
                    SchedulerAction::Launch { task, node } => Some((task.job, node)),
                    _ => None,
                })
                .collect()
        }
    }

    #[test]
    fn window_rebuilds_when_the_order_generation_moves() {
        // Twenty jobs local to node 0, then a two-map job local to node 8,
        // which takes node 8's slot for one of its maps.
        let mut h = WindowHarness::new(&[0; 20]);
        let local = h.add_job(&[8, 8]);
        assert_eq!(
            WindowHarness::launched(&h.round(0, 8)),
            [(local, NodeId(8))]
        );
        // All 21 decline node 12 (rack 3); the second round skips them in
        // three blocks.
        assert!(h.round(1, 12).is_empty());
        assert!(h.round(1, 12).is_empty());
        assert_eq!(h.indices[0].window.live, 3);
        assert_eq!(h.boards[0].total_skips(), 20 + 2 * 21);
        // HFSP re-sorts and ranks the last job first. Over the old order
        // the window's first block would skip it on node 8; the new
        // generation drops that window.
        h.order.rotate_right(1);
        h.generation += 1;
        assert_eq!(
            WindowHarness::launched(&h.round(2, 8)),
            [(local, NodeId(8))]
        );
        assert_eq!(h.indices[0].window.key.map(|k| k.0), Some(1));
    }

    #[test]
    fn window_rebuilds_when_the_shape_epoch_moves() {
        // Job 4 has two maps local to node 8 and takes its slot for one;
        // the other nineteen jobs are local to node 0.
        let mut h = WindowHarness::new(&[0; 3]);
        h.add_job(&[8, 8]);
        for _ in 0..16 {
            h.add_job(&[0]);
        }
        assert_eq!(
            WindowHarness::launched(&h.round(0, 8)),
            [(JobId(4), NodeId(8))]
        );
        // Its second map starts elsewhere, so job 4 sits idle inside the
        // window's first block while the others decline node 12.
        h.set_state(JobId(4), 1, TaskState::Running);
        assert!(h.round(1, 12).is_empty());
        assert!(h.round(1, 12).is_empty());
        assert_eq!(h.indices[0].window.blocks[0].jobs.len(), WINDOW_BLOCK);
        let epoch = h.boards[0].shape_epoch();
        // That attempt dies and the map is schedulable again: the job's
        // schedulable-map count crosses zero and the epoch moves. The stale
        // window would skip job 4 on node 8; the rebuilt one holds it.
        h.set_state(JobId(4), 1, TaskState::Pending);
        assert_eq!(h.boards[0].shape_epoch(), epoch + 1);
        assert_eq!(
            WindowHarness::launched(&h.round(2, 8)),
            [(JobId(4), NodeId(8))]
        );
        assert_eq!(h.indices[0].window.key.map(|k| k.1), Some(epoch + 1));
    }

    #[test]
    fn window_expires_at_the_earliest_escalation() {
        // Ten jobs local to node 0 decline node 1, in the same rack, while
        // they are node-local only: clocks start at 0 s.
        let mut h = WindowHarness::new(&[0; 10]);
        assert!(h.round(0, 1).is_empty());
        assert!(h.round(2, 1).is_empty());
        assert_eq!(h.indices[0].window.live, 2);
        assert_eq!(h.indices[0].window.expires, SimTime::from_secs(3));
        // At 3 s they escalate to rack-local: the window expires and node 1
        // gets a rack-local launch.
        assert_eq!(
            WindowHarness::launched(&h.round(3, 1)),
            [(JobId(1), NodeId(1))]
        );
        // Other racks are declined until 6 s, then taken off-rack.
        assert!(h.round(5, 8).is_empty());
        assert_eq!(h.indices[0].window.expires, SimTime::from_secs(6));
        assert_eq!(
            WindowHarness::launched(&h.round(6, 8)),
            [(JobId(2), NodeId(8))]
        );
        assert_eq!(h.indices[0].window.live, 0, "nothing to skip");
    }

    #[test]
    fn window_restarts_clocks_that_a_local_launch_reset() {
        // Ten two-map jobs local to node 0 decline node 8: clocks start, and
        // the second round counts the declines of the window's blocks.
        let mut h = WindowHarness::new(&[]);
        for _ in 0..10 {
            h.add_job(&[0, 0]);
        }
        assert!(h.round(0, 8).is_empty());
        assert!(h.round(1, 8).is_empty());
        let key = h.indices[0].window.key;
        // Job 1 launches node-local: its wait resets, but it keeps a
        // schedulable map, so the window stays valid.
        assert_eq!(
            WindowHarness::launched(&h.round(1, 0)),
            [(JobId(1), NodeId(0))]
        );
        assert!(!h.boards[0].job_waiting(JobId(1)));
        // The next skip of its block must restart the clock, not only count.
        assert!(h.round(2, 8).is_empty());
        assert_eq!(h.indices[0].window.key, key);
        assert_eq!(
            h.boards[0].allowed_until(JobId(1), SimTime::from_secs(2)),
            (Locality::NodeLocal, SimTime::from_secs(5))
        );
        assert_eq!(h.boards[0].total_skips(), 30);
    }

    #[test]
    fn window_stops_at_the_decline_cap_like_the_walk() {
        // 64 decliners, then a job local to node 8 that the cap hides.
        let mut holders = vec![0; MAX_DECLINES_PER_ROUND];
        holders.push(8);
        let mut h = WindowHarness::new(&holders);
        assert!(h.round(0, 8).is_empty());
        assert!(h.round(1, 8).is_empty());
        assert_eq!(h.boards[0].total_skips(), 2 * MAX_DECLINES_PER_ROUND as u64);
        assert_eq!(h.indices[0].window.end, MAX_DECLINES_PER_ROUND);
    }

    #[test]
    fn window_matches_the_walk_over_random_rounds() {
        for seed in 0..12 {
            let mut rng = mrp_sim::SimRng::new(0x51D0 + seed);
            let mut h = WindowHarness::new(&[]);
            for _ in 0..80 {
                let holders: Vec<u32> = (0..1 + rng.index(3))
                    .map(|_| rng.index(16) as u32)
                    .collect();
                h.add_job(&holders);
            }
            let mut secs = 0;
            for _ in 0..200 {
                secs += rng.index(2) as u64;
                if rng.chance(0.05) {
                    rng.shuffle(&mut h.order);
                    h.generation += 1;
                }
                if rng.chance(0.1) {
                    let job = JobId(1 + rng.index(h.jobs.len()) as u32);
                    let tasks = h.jobs.get(&job).expect("known job").tasks.len();
                    let state = if rng.chance(0.5) {
                        TaskState::Pending
                    } else {
                        TaskState::Running
                    };
                    h.set_state(job, rng.index(tasks), state);
                }
                h.round(secs, rng.index(16) as u32);
            }
        }
    }

    /// The flat locality lists against the map of per-key lists they
    /// replaced: the same keys and bits, each key's positions in the same
    /// order, and the same reads and exhaustion while lists are drained in
    /// random interleavings, task positions turn unlaunchable and back, and
    /// keys without a list are asked for.
    #[test]
    fn flat_locality_lists_match_a_map_of_lists() {
        use std::collections::HashMap;
        for seed in 0..24u64 {
            let mut rng = mrp_sim::SimRng::new(0xF1A7 + seed);
            let key_space = 1 + rng.index(if seed % 2 == 0 { 8 } else { 4096 });
            let tasks = rng.index(300);
            let mut pairs = Vec::new();
            let mut reference: HashMap<u32, (Vec<u32>, usize)> = HashMap::new();
            for pos in 0..tasks as u32 {
                // Up to three keys per position, repeats included.
                for _ in 0..rng.index(4) {
                    let key = rng.index(key_space) as u32;
                    pairs.push(u64::from(key) << 32 | u64::from(pos));
                    reference.entry(key).or_default().0.push(pos);
                }
            }
            rng.shuffle(&mut pairs);
            let mut lists = LocalityLists::build(pairs);
            let mut keys: Vec<u32> = reference.keys().copied().collect();
            keys.sort_unstable();
            assert!(lists.spans.keys().eq(&keys), "seed {seed}");
            for key in 0..key_space as u32 + 70 {
                assert_eq!(test_bit(&lists.bits, key), reference.contains_key(&key));
            }
            for (key, &(from, to)) in lists.spans.iter() {
                let items = &lists.items[from as usize..to as usize];
                assert_eq!(items, reference[key].0, "seed {seed}, key {key}");
            }
            let mut blocked = vec![false; tasks];
            // One read of `key` on both sides; false once its list is done.
            let mut read = |lists: &mut LocalityLists, key: u32, blocked: &[bool]| {
                let live = test_bit(&lists.bits, key);
                let Some((items, cursor)) = reference.get_mut(&key) else {
                    assert!(!live, "seed {seed}: key {key} has no list");
                    assert_eq!(lists.next_where(key, |_| true), None);
                    return false;
                };
                assert_eq!(live, *cursor < items.len(), "key {key}");
                let mut expected = None;
                while *cursor < items.len() && expected.is_none() {
                    let pos = items[*cursor] as usize;
                    *cursor += 1;
                    expected = Some(pos).filter(|&pos| !blocked[pos]);
                }
                let got = lists.next_where(key, |p| !blocked[p]);
                assert_eq!(got, expected, "seed {seed}, key {key}");
                assert_eq!(test_bit(&lists.bits, key), *cursor < items.len());
                *cursor < items.len()
            };
            for _ in 0..1500 {
                if tasks > 0 && rng.chance(0.2) {
                    let pos = rng.index(tasks);
                    blocked[pos] = !blocked[pos];
                }
                let key = match rng.pick(&keys) {
                    Some(&key) if rng.chance(0.8) => key,
                    _ => rng.index(key_space + 2) as u32,
                };
                read(&mut lists, key, &blocked);
            }
            blocked.fill(false);
            for &key in &keys {
                while read(&mut lists, key, &blocked) {}
                assert_eq!(lists.next_where(key, |_| true), None);
            }
        }
    }
}
