//! A timing and counting decorator over the public [`SchedulerPolicy`]
//! trait.
//!
//! For each hook it keeps a call count and the cumulative wall time spent in
//! the wrapped policy, plus the returned actions by kind: the per-operation
//! count + cumulative time idiom of a kernel swapper's perf counters, applied
//! at the boundary between the engine and the policy. It only observes —
//! every call is forwarded unchanged and its actions are returned untouched —
//! so a decorated run computes the same report and event count as a plain
//! one (`tests/policy_decorator.rs` checks this on every workload).

use mrp_engine::{
    JobId, NodeId, SchedulerAction, SchedulerContext, SchedulerPolicy, TaskId, ACTION_KINDS,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Counts and times collected by a [`TimedPolicy`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PolicyCounters {
    /// `on_heartbeat` calls.
    pub heartbeat_calls: u64,
    /// `on_heartbeat` calls that returned at least one action.
    pub heartbeat_yielding: u64,
    /// Wall time spent in `on_heartbeat`.
    pub heartbeat_time: Duration,
    /// Calls of the event callbacks: job submitted, task finished, job
    /// finished and progress trigger.
    pub callback_calls: u64,
    /// Wall time spent in the event callbacks.
    pub callback_time: Duration,
    /// Returned actions by kind, indexed like [`ACTION_KINDS`].
    pub actions: [u64; ACTION_KINDS.len()],
}

impl PolicyCounters {
    /// Returned actions of the kind named `kind` in [`ACTION_KINDS`].
    pub fn actions_of(&self, kind: &str) -> u64 {
        ACTION_KINDS
            .iter()
            .position(|k| *k == kind)
            .map_or(0, |i| self.actions[i])
    }

    fn count(&mut self, actions: &[SchedulerAction]) {
        for action in actions {
            let kind = match action {
                SchedulerAction::SubmitJob(_) => 0,
                SchedulerAction::Launch { .. } => 1,
                SchedulerAction::LaunchSpeculative { .. } => 2,
                SchedulerAction::Suspend { .. } => 3,
                SchedulerAction::Resume { .. } => 4,
                SchedulerAction::Kill { .. } => 5,
            };
            self.actions[kind] += 1;
        }
    }
}

/// Wraps a policy and counts and times every call into it.
pub struct TimedPolicy {
    inner: Box<dyn SchedulerPolicy>,
    counters: Rc<RefCell<PolicyCounters>>,
}

impl TimedPolicy {
    /// Wraps `inner`. The returned handle reads the counters after the
    /// cluster has taken ownership of the decorated policy.
    pub fn wrap(
        inner: Box<dyn SchedulerPolicy>,
    ) -> (Box<dyn SchedulerPolicy>, Rc<RefCell<PolicyCounters>>) {
        let counters = Rc::new(RefCell::new(PolicyCounters::default()));
        let policy = TimedPolicy {
            inner,
            counters: Rc::clone(&counters),
        };
        (Box::new(policy), counters)
    }

    fn callback(
        &mut self,
        hook: impl FnOnce(&mut Box<dyn SchedulerPolicy>) -> Vec<SchedulerAction>,
    ) -> Vec<SchedulerAction> {
        let start = Instant::now();
        let actions = hook(&mut self.inner);
        let elapsed = start.elapsed();
        let mut counters = self.counters.borrow_mut();
        counters.callback_calls += 1;
        counters.callback_time += elapsed;
        counters.count(&actions);
        actions
    }
}

impl SchedulerPolicy for TimedPolicy {
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction> {
        let start = Instant::now();
        let actions = self.inner.on_heartbeat(ctx, node);
        let elapsed = start.elapsed();
        let mut counters = self.counters.borrow_mut();
        counters.heartbeat_calls += 1;
        counters.heartbeat_yielding += u64::from(!actions.is_empty());
        counters.heartbeat_time += elapsed;
        counters.count(&actions);
        actions
    }

    fn on_job_submitted(&mut self, ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.callback(|policy| policy.on_job_submitted(ctx, job))
    }

    fn on_task_finished(
        &mut self,
        ctx: &SchedulerContext<'_>,
        task: TaskId,
    ) -> Vec<SchedulerAction> {
        self.callback(|policy| policy.on_task_finished(ctx, task))
    }

    fn on_job_finished(&mut self, ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.callback(|policy| policy.on_job_finished(ctx, job))
    }

    fn on_progress_trigger(
        &mut self,
        ctx: &SchedulerContext<'_>,
        task: TaskId,
        fraction: f64,
    ) -> Vec<SchedulerAction> {
        self.callback(|policy| policy.on_progress_trigger(ctx, task, fraction))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
