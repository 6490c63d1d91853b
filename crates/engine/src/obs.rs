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
use std::collections::HashMap;
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

/// Identity of an open span; closing uses the same key that opened it.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum SpanKey {
    Attempt(AttemptId),
    Suspend(AttemptId),
    Shuffle(AttemptId),
    Partition(NodeId),
}

impl SpanKey {
    fn kind(self) -> SpanKind {
        match self {
            SpanKey::Attempt(_) => SpanKind::Attempt,
            SpanKey::Suspend(_) => SpanKind::SuspendCycle,
            SpanKey::Shuffle(_) => SpanKind::ShuffleStall,
            SpanKey::Partition(_) => SpanKind::Partition,
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
    open: HashMap<SpanKey, usize>,
    dropped_spans: u64,
    // Per-family duration histograms, indexed by `SpanKind as usize` and
    // recorded when a span closes (micros of virtual time).
    histograms: [LogHistogram; 4],
}

impl ObsState {
    pub(crate) fn new() -> Self {
        ObsState {
            profiler: LoopProfiler::new(&EVENT_KINDS, &ACTION_KINDS),
            sampler: TimeSeriesSampler::new(
                SAMPLE_INTERVAL,
                SERIES_COLUMNS.iter().map(|c| c.to_string()).collect(),
            ),
            spans: Vec::new(),
            open: HashMap::new(),
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

    #[inline]
    pub(crate) fn note_event(&mut self, kind: usize) {
        self.profiler.note(kind);
    }

    #[inline]
    pub(crate) fn action_timer(&mut self) -> Option<Instant> {
        self.profiler.action_timer()
    }

    #[inline]
    pub(crate) fn record_actions(&mut self, per_kind: &[u32], timer: Option<Instant>) {
        self.profiler.record_actions(per_kind, timer);
    }

    #[inline]
    pub(crate) fn series_due(&self, now: SimTime) -> bool {
        self.sampler.due(now)
    }

    pub(crate) fn record_series(&mut self, now: SimTime, values: Vec<u64>) {
        self.sampler.record(now, values);
    }

    /// Folds one record into the span trace: the only mapping from the
    /// facts the cluster records to span begins and ends.
    pub(crate) fn observe(&mut self, record: &Record) {
        match *record {
            Record::Launched(at, a, node) | Record::Speculated(at, a, node) => {
                self.begin(SpanKey::Attempt(a), node, at)
            }
            Record::Suspended(at, a, node, _) => self.begin(SpanKey::Suspend(a), node, at),
            Record::Resumed(at, a, ..) => self.end(SpanKey::Suspend(a), at),
            Record::ShuffleStalled(at, a, node, 1, _) => self.begin(SpanKey::Shuffle(a), node, at),
            Record::ShuffleRecovered(at, a, _) => self.end(SpanKey::Shuffle(a), at),
            Record::Killed(at, a, ..)
            | Record::Completed(at, a, ..)
            | Record::AttemptLost(at, a, _)
            | Record::SiblingKilled(at, a, ..) => {
                for key in [
                    SpanKey::Suspend(a),
                    SpanKey::Shuffle(a),
                    SpanKey::Attempt(a),
                ] {
                    self.end(key, at);
                }
            }
            Record::NodePartitioned(at, node) => self.begin(SpanKey::Partition(node), node, at),
            // The partition window closes at the heal or at the node's
            // death, whichever comes first.
            Record::PartitionHealed(at, node)
            | Record::NodeSilent(at, node)
            | Record::NodeFailed(at, node, NodeLoss::Crash(..))
            | Record::NodeDecommissioned(at, node, ..) => self.end(SpanKey::Partition(node), at),
            _ => {}
        }
    }

    /// Opens a span. A begin on a key that is already open is ignored (the
    /// first begin wins — matches the engine's first-commit-wins flavor and
    /// keeps the trace balanced).
    fn begin(&mut self, key: SpanKey, node: NodeId, at: SimTime) {
        if self.open.contains_key(&key) {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped_spans += 1;
            return;
        }
        let attempt = match key {
            SpanKey::Attempt(a) | SpanKey::Suspend(a) | SpanKey::Shuffle(a) => Some(a),
            SpanKey::Partition(_) => None,
        };
        self.open.insert(key, self.spans.len());
        self.spans.push(Span {
            kind: key.kind(),
            attempt,
            node,
            begin: at,
            end: None,
        });
    }

    /// Closes a span; a no-op when the key is not open (the span was never
    /// begun, was dropped at the cap, or was already closed by an earlier
    /// teardown path).
    fn end(&mut self, key: SpanKey, at: SimTime) {
        let Some(idx) = self.open.remove(&key) else {
            return;
        };
        let span = &mut self.spans[idx];
        let end = at.max(span.begin);
        span.end = Some(end);
        let micros = end.as_micros() - span.begin.as_micros();
        self.histograms[span.kind as usize].record(micros);
    }

    /// Number of spans still open (attempts running at `max_time`, unhealed
    /// partitions, ...). The exporter clamps these to the final time.
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }
}
