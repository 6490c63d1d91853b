//! Engine-side observability state: the span trace with one duration
//! histogram per span family, the virtual-time series sampler and the
//! event-loop profiler.
//!
//! The cluster owns at most one [`ObsState`], boxed behind an `Option` that
//! is `None` unless [`ObsConfig`](crate::ObsConfig) is enabled — the
//! default-off path pays one pointer-null check per recording site and
//! allocates nothing. When enabled the layer stays *passive*: the sampler is
//! polled from the event loop rather than scheduling events, spans only copy
//! ids and timestamps, and the profiler only reads the wall clock, so an
//! observed run computes byte-identical reports and event counts to an
//! unobserved one.
//!
//! Data flow: the cluster's event loop calls the profiler and sampler hooks
//! here, and hands every [`Record`] it makes to [`ObsState::observe`], the
//! one place that turns those facts into span begins and ends;
//! [`Cluster::observability`](crate::Cluster::observability) exposes
//! the accumulated state; and the exporters in `mrp_preempt::obs_export`
//! (the core crate sits *above* the engine) turn it into Chrome
//! `trace_event` JSON, series JSON and the profiler table.

use crate::job::AttemptId;
use crate::metrics::{NodeLoss, Record};
use mrp_dfs::NodeId;
use mrp_sim::{LogHistogram, LoopProfiler, ProfileReport, SimDuration, SimTime, TimeSeriesSampler};
use std::time::Instant;

/// Virtual-time cadence of the series sampler.
const SAMPLE_INTERVAL: SimDuration = SimDuration::from_secs(10);
/// Hard cap on recorded spans; once reached, new spans are dropped (and
/// counted) rather than growing without bound on week-long runs.
const MAX_SPANS: usize = 1 << 20;

/// Event-kind names, indexed by the discriminant the cluster's run loop
/// passes to `ObsState::note_event`. Index 0 is the heartbeat wheel (the
/// computed periodic heartbeats that never touch the event queue); the rest
/// mirror the `Event` enum.
pub(crate) const EVENT_KINDS: [&str; 8] = [
    "heartbeat_wheel",
    "job_arrival",
    "heartbeat_oob",
    "phase_done",
    "cleanup_done",
    "progress_trigger",
    "fault",
    "detector",
];

/// Scheduler-action names, indexed by the discriminant `apply_actions`
/// passes to `ObsState::record_actions`; mirrors `SchedulerAction`.
pub const ACTION_KINDS: [&str; 6] = [
    "submit_job",
    "launch",
    "launch_speculative",
    "suspend",
    "resume",
    "kill",
];

/// The column names of the sampled time series, in row-value order.
pub(crate) const SERIES_COLUMNS: [&str; 10] = [
    "schedulable_maps",
    "schedulable_reduces",
    "suspended_tasks",
    "free_map_slots",
    "free_reduce_slots",
    "swapped_bytes",
    "swap_backlog_bytes",
    "nodes_suspected",
    "incomplete_jobs",
    "events_processed",
];

/// What a span measures. The four families cover the windows the paper's
/// analysis cares about: where attempts ran, how long suspensions held
/// state on disk, how long reduces stalled re-fetching lost map output, and
/// how long nodes sat behind a partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One execution attempt, launch to completion/kill/loss.
    Attempt,
    /// One suspend/resume cycle (`SIGTSTP` delivery to `SIGCONT` delivery,
    /// or to the kill/loss that ended it).
    SuspendCycle,
    /// A reduce stalled in its shuffle phase re-fetching lost map outputs
    /// (first retry to the fetch completing).
    ShuffleStall,
    /// A node behind a network partition (strike to heal).
    Partition,
}

impl SpanKind {
    /// Chrome-trace category string.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Attempt => "attempt",
            SpanKind::SuspendCycle => "suspend",
            SpanKind::ShuffleStall => "shuffle_stall",
            SpanKind::Partition => "partition",
        }
    }
}

/// One recorded span: a named virtual-time window on a node's lane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Span family.
    pub kind: SpanKind,
    /// The attempt the span belongs to; `None` for a partition window,
    /// which belongs to `node`.
    pub(crate) attempt: Option<AttemptId>,
    /// Node the span happened on — the Chrome-trace thread lane.
    pub node: NodeId,
    /// Virtual begin timestamp.
    pub begin: SimTime,
    /// Virtual end timestamp; `None` while still open (the exporter clamps
    /// open spans to the run's final time).
    pub end: Option<SimTime>,
}

impl Span {
    /// Human-readable name: the attempt (`attempt_0001_m_000003_0`) or, for
    /// a partition window, the node (`node-17`).
    pub fn name(&self) -> String {
        match self.attempt {
            Some(attempt) => attempt.to_string(),
            None => format!("node-{}", self.node.0),
        }
    }
}

/// The observability state owned by an observed cluster.
pub struct ObsState {
    profiler: LoopProfiler,
    sampler: TimeSeriesSampler,
    spans: Vec<Span>,
    // Open spans per node lane, indexed by node id: indices into `spans`.
    // A node holds a handful at once, so a scan beats any key space.
    open: Vec<Vec<u32>>,
    dropped_spans: u64,
    // Per-family duration histograms, indexed by `SpanKind as usize` and
    // recorded when a span closes (micros of virtual time).
    histograms: [LogHistogram; 4],
}

impl ObsState {
    pub(crate) fn new(node_count: usize) -> Self {
        ObsState {
            profiler: LoopProfiler::new(&EVENT_KINDS, &ACTION_KINDS),
            sampler: TimeSeriesSampler::new(
                SAMPLE_INTERVAL,
                SERIES_COLUMNS.iter().map(|c| c.to_string()).collect(),
            ),
            spans: Vec::new(),
            open: vec![Vec::new(); node_count],
            dropped_spans: 0,
            histograms: Default::default(),
        }
    }

    /// Durations (virtual-time microseconds) of the closed spans of one
    /// family.
    pub fn histogram(&self, kind: SpanKind) -> &LogHistogram {
        &self.histograms[kind as usize]
    }

    /// The sampled time series (always present on an observed cluster).
    pub fn series(&self) -> Option<&TimeSeriesSampler> {
        Some(&self.sampler)
    }

    /// All recorded spans, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans dropped after the 2^20-span cap was reached.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    /// Snapshot of the event-loop profile (always present on an observed
    /// cluster).
    pub fn profile(&self) -> Option<ProfileReport> {
        Some(self.profiler.report())
    }

    // ----- recorders called from cluster.rs ---------------------------------

    #[inline]
    pub(crate) fn loop_begin(&mut self) {
        self.profiler.begin_loop();
    }

    #[inline]
    pub(crate) fn loop_end(&mut self) {
        self.profiler.end_loop();
    }

    /// Counts one processed event of `kind` (an index into
    /// [`EVENT_KINDS`]) and answers whether a series sample is due at `now`.
    #[inline]
    pub(crate) fn note_event(&mut self, kind: usize, now: SimTime) -> bool {
        self.profiler.note(kind);
        self.sampler.due(now)
    }

    #[inline]
    pub(crate) fn action_timer(&mut self) -> Option<Instant> {
        self.profiler.action_timer()
    }

    #[inline]
    pub(crate) fn record_actions(&mut self, per_kind: &[u32], timer: Option<Instant>) {
        self.profiler.record_actions(per_kind, timer);
    }

    pub(crate) fn record_series(&mut self, now: SimTime, values: Vec<u64>) {
        self.sampler.record(now, values);
    }

    /// Folds one record into the span trace: the only mapping from the
    /// facts the cluster records to span begins and ends. Every such record
    /// names its node, whose lane holds the spans it may close.
    pub(crate) fn observe(&mut self, record: &Record) {
        use SpanKind::*;
        match *record {
            Record::Launched(at, a, node) | Record::Speculated(at, a, node) => {
                self.begin(Attempt, Some(a), node, at)
            }
            Record::Suspended(at, a, node, _) => self.begin(SuspendCycle, Some(a), node, at),
            Record::Resumed(at, a, node, _) => self.end(Some(SuspendCycle), Some(a), node, at),
            Record::ShuffleStalled(at, a, node, 1, _) => {
                self.begin(ShuffleStall, Some(a), node, at)
            }
            Record::ShuffleRecovered(at, a, node) => {
                self.end(Some(ShuffleStall), Some(a), node, at)
            }
            Record::Killed(at, a, node, _)
            | Record::Completed(at, a, node, _)
            | Record::AttemptLost(at, a, node)
            | Record::SiblingKilled(at, a, node, _) => self.end(None, Some(a), node, at),
            Record::NodePartitioned(at, node) => self.begin(Partition, None, node, at),
            // The partition window closes at the heal or at the node's
            // death, whichever comes first.
            Record::PartitionHealed(at, node)
            | Record::NodeSilent(at, node)
            | Record::NodeFailed(at, node, NodeLoss::Crash(..))
            | Record::NodeDecommissioned(at, node, ..) => self.end(Some(Partition), None, node, at),
            _ => {}
        }
    }

    /// Opens a span on `node`'s lane. A begin while a span of the same kind
    /// and attempt is open there is ignored (the first begin wins — matches
    /// the engine's first-commit-wins flavor and keeps the trace balanced).
    fn begin(&mut self, kind: SpanKind, attempt: Option<AttemptId>, node: NodeId, at: SimTime) {
        let lane = &mut self.open[node.0 as usize];
        let spans = &self.spans;
        if lane.iter().any(|&i| {
            let span = &spans[i as usize];
            span.kind == kind && span.attempt == attempt
        }) {
            return;
        }
        if spans.len() >= MAX_SPANS {
            self.dropped_spans += 1;
            return;
        }
        lane.push(spans.len() as u32);
        self.spans.push(Span {
            kind,
            attempt,
            node,
            begin: at,
            end: None,
        });
    }

    /// Closes every open span of `attempt` on `node`'s lane, only those of
    /// `kind` when one is given; a partition window is the lane's span with
    /// no attempt. A no-op when none is open (the span was never begun, was
    /// dropped at the cap, or was already closed by an earlier teardown
    /// path).
    fn end(
        &mut self,
        kind: Option<SpanKind>,
        attempt: Option<AttemptId>,
        node: NodeId,
        at: SimTime,
    ) {
        let Some(lane) = self.open.get_mut(node.0 as usize) else {
            return;
        };
        let (spans, histograms) = (&mut self.spans, &mut self.histograms);
        lane.retain(|&i| {
            let span = &mut spans[i as usize];
            if span.attempt != attempt || kind.is_some_and(|k| k != span.kind) {
                return true;
            }
            let end = at.max(span.begin);
            span.end = Some(end);
            histograms[span.kind as usize].record(end.as_micros() - span.begin.as_micros());
            false
        });
    }

    /// Number of spans still open (attempts running at `max_time`, unhealed
    /// partitions, ...). The exporter clamps these to the final time.
    pub fn open_spans(&self) -> usize {
        self.open.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, TaskId, TaskKind};
    use crate::metrics::KillCause;

    fn attempt(index: u32) -> AttemptId {
        AttemptId {
            task: TaskId {
                job: JobId(1),
                kind: TaskKind::Reduce,
                index,
            },
            number: 0,
        }
    }

    fn at(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A fresh state for three nodes fed `records` in order.
    fn fold(records: &[Record]) -> ObsState {
        let mut obs = ObsState::new(3);
        for record in records {
            obs.observe(record);
        }
        obs
    }

    fn open_kinds(obs: &ObsState, a: AttemptId) -> Vec<SpanKind> {
        obs.spans()
            .iter()
            .filter(|s| s.attempt == Some(a) && s.end.is_none())
            .map(|s| s.kind)
            .collect()
    }

    #[test]
    fn a_kill_closes_every_span_of_its_attempt_and_no_other() {
        let (a, b, node) = (attempt(0), attempt(1), NodeId(1));
        let obs = fold(&[
            Record::Launched(at(0), a, node),
            Record::Launched(at(0), b, node),
            Record::ShuffleStalled(at(1), a, node, 1, SimDuration::from_secs(1)),
            Record::Suspended(at(2), a, node, 0.5),
            Record::Suspended(at(2), b, node, 0.5),
            Record::Killed(at(5), a, node, KillCause::Signal(SimDuration::ZERO)),
        ]);
        assert!(open_kinds(&obs, a).is_empty());
        assert_eq!(
            open_kinds(&obs, b),
            [SpanKind::Attempt, SpanKind::SuspendCycle]
        );
        let ends: Vec<_> = obs
            .spans()
            .iter()
            .filter(|s| s.attempt == Some(a))
            .map(|s| (s.kind, s.end))
            .collect();
        assert_eq!(
            ends,
            [
                (SpanKind::Attempt, Some(at(5))),
                (SpanKind::ShuffleStall, Some(at(5))),
                (SpanKind::SuspendCycle, Some(at(5))),
            ]
        );
        assert_eq!(obs.open_spans(), 2);
    }

    #[test]
    fn a_second_suspend_in_an_open_cycle_is_ignored() {
        let (a, node) = (attempt(0), NodeId(0));
        let obs = fold(&[
            Record::Launched(at(0), a, node),
            Record::Suspended(at(1), a, node, 0.2),
            Record::Suspended(at(2), a, node, 0.4),
            Record::Resumed(at(4), a, node, SimDuration::ZERO),
        ]);
        let cycles: Vec<_> = obs
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::SuspendCycle)
            .map(|s| (s.begin, s.end))
            .collect();
        assert_eq!(cycles, [(at(1), Some(at(4)))], "the first begin wins");
        assert_eq!(obs.histogram(SpanKind::SuspendCycle).sum, 3_000_000);
    }

    #[test]
    fn an_end_without_an_open_span_is_a_no_op() {
        let a = attempt(0);
        let obs = fold(&[
            Record::Launched(at(0), a, NodeId(0)),
            Record::Resumed(at(1), a, NodeId(1), SimDuration::ZERO),
            Record::Completed(at(2), a, NodeId(2), false),
            Record::AttemptLost(at(3), a, NodeId(99)),
            Record::PartitionHealed(at(3), NodeId(99)),
        ]);
        assert_eq!(obs.open_spans(), 1);
        assert_eq!(obs.spans()[0].end, None);
        assert!(SPAN_KINDS.iter().all(|&k| obs.histogram(k).count == 0));
    }

    #[test]
    fn partition_windows_close_at_a_heal_or_the_nodes_death() {
        let closers = [
            Record::PartitionHealed(at(9), NodeId(0)),
            Record::NodeSilent(at(9), NodeId(0)),
            Record::NodeFailed(at(9), NodeId(0), NodeLoss::Crash(0, 0)),
            Record::NodeDecommissioned(at(9), NodeId(0), 0, 0),
        ];
        for closer in closers {
            let obs = fold(&[Record::NodePartitioned(at(1), NodeId(0)), closer]);
            assert_eq!(obs.spans()[0].end, Some(at(9)), "{closer:?}");
            assert_eq!(obs.open_spans(), 0);
        }
        let confirmed = Record::NodeFailed(at(9), NodeId(0), NodeLoss::PartitionConfirmed);
        let obs = fold(&[Record::NodePartitioned(at(1), NodeId(0)), confirmed]);
        assert_eq!(obs.spans()[0].end, None);
        assert_eq!(obs.open_spans(), 1);
    }

    #[test]
    fn histograms_count_closed_spans_and_open_spans_the_rest() {
        let (a, b, c) = (attempt(0), attempt(1), attempt(2));
        let obs = fold(&[
            Record::Launched(at(0), a, NodeId(0)),
            Record::Speculated(at(0), b, NodeId(1)),
            Record::Launched(at(0), c, NodeId(2)),
            Record::NodePartitioned(at(1), NodeId(2)),
            Record::Suspended(at(1), a, NodeId(0), 0.1),
            Record::Resumed(at(3), a, NodeId(0), SimDuration::ZERO),
            Record::ShuffleStalled(at(3), b, NodeId(1), 1, SimDuration::ZERO),
            Record::ShuffleRecovered(at(4), b, NodeId(1)),
            Record::SiblingKilled(at(5), b, NodeId(1), SimDuration::ZERO),
            Record::Completed(at(6), a, NodeId(0), false),
        ]);
        let closed = obs.spans().iter().filter(|s| s.end.is_some()).count();
        let histogrammed: u64 = SPAN_KINDS.iter().map(|&k| obs.histogram(k).count).sum();
        assert_eq!(histogrammed, closed as u64);
        assert_eq!(closed, 4);
        assert_eq!(obs.open_spans(), obs.spans().len() - closed);
        assert_eq!(obs.open_spans(), 2, "c's attempt and node 2's partition");
    }

    const SPAN_KINDS: [SpanKind; 4] = [
        SpanKind::Attempt,
        SpanKind::SuspendCycle,
        SpanKind::ShuffleStall,
        SpanKind::Partition,
    ];
}
