//! Event-loop profiler: attributes wall-clock time to event kinds with
//! coarse batched timing.
//!
//! Reading a monotonic clock per event would dominate a loop that processes
//! millions of events per second, so the profiler reads [`Instant`] once per
//! *batch* (a few hundred events) and splits the batch's elapsed wall time
//! across the event kinds seen in it, proportionally to their counts. Counts
//! stay exact; per-kind wall time is approximate at batch granularity but
//! sums to the full loop duration, so attribution is complete by
//! construction (the `≥95%` smoke tests guard against future regressions
//! such as un-flushed tails).
//!
//! A second, independent view covers scheduler actions: every action is
//! counted, and one in [`ACTION_SAMPLE_EVERY`] scheduler invocations is
//! timed directly and scaled up. Their wall time overlaps the event-kind
//! view (actions run *inside* event handlers) and is reported separately,
//! not added to the loop total.
//!
//! ```
//! use mrp_sim::LoopProfiler;
//!
//! let mut p = LoopProfiler::new(&["heartbeat", "phase_done"], &["launch"]);
//! p.begin_loop();
//! for _ in 0..1000 {
//!     p.note(0);
//! }
//! p.note(1);
//! p.end_loop();
//! let report = p.report();
//! assert_eq!(report.events[0].count, 1000);
//! assert_eq!(report.events[1].count, 1);
//! assert!(report.attribution() >= 0.95);
//! ```

use std::time::Instant;

/// Events per timing batch. Large enough that the two `Instant` reads per
/// batch are noise, small enough that attribution tracks phase changes in
/// the workload.
const BATCH_EVENTS: u32 = 256;

/// One scheduler invocation in this many is timed directly (and scaled by
/// the same factor); the rest only count their actions.
pub const ACTION_SAMPLE_EVERY: u64 = 64;

/// Profiles an event loop by kind. See the module docs for the approach.
#[derive(Clone, Debug)]
pub struct LoopProfiler {
    kind_names: Vec<String>,
    kind_counts: Vec<u64>,
    kind_nanos: Vec<f64>,
    action_names: Vec<String>,
    action_counts: Vec<u64>,
    action_nanos: Vec<f64>,
    action_calls: u64,
    batch: Vec<u32>,
    batch_events: u32,
    batch_start: Option<Instant>,
    loop_start: Option<Instant>,
    loop_nanos: f64,
    attributed_nanos: f64,
    idle_nanos: f64,
}

impl LoopProfiler {
    /// A profiler for the given event kinds and scheduler-action kinds.
    /// [`note`](Self::note) / [`record_actions`](Self::record_actions) index
    /// into these slices.
    pub fn new(kinds: &[&str], actions: &[&str]) -> Self {
        LoopProfiler {
            kind_names: kinds.iter().map(|s| s.to_string()).collect(),
            kind_counts: vec![0; kinds.len()],
            kind_nanos: vec![0.0; kinds.len()],
            action_names: actions.iter().map(|s| s.to_string()).collect(),
            action_counts: vec![0; actions.len()],
            action_nanos: vec![0.0; actions.len()],
            action_calls: 0,
            batch: vec![0; kinds.len()],
            batch_events: 0,
            batch_start: None,
            loop_start: None,
            loop_nanos: 0.0,
            attributed_nanos: 0.0,
            idle_nanos: 0.0,
        }
    }

    /// Mark the start of (one entry into) the event loop. Wall time outside
    /// `begin_loop`/`end_loop` windows is never attributed.
    pub fn begin_loop(&mut self) {
        let now = Instant::now();
        self.batch_start = Some(now);
        self.loop_start = Some(now);
    }

    /// Record one processed event of the given kind, inside a
    /// `begin_loop`/`end_loop` window: it is counted when its batch flushes.
    pub fn note(&mut self, kind: usize) {
        self.batch[kind] += 1;
        self.batch_events += 1;
        if self.batch_events >= BATCH_EVENTS {
            self.flush();
        }
    }

    fn flush(&mut self) -> Instant {
        let now = Instant::now();
        let Some(start) = self.batch_start else {
            return now;
        };
        let elapsed = now.duration_since(start).as_secs_f64() * 1e9;
        if self.batch_events == 0 {
            // An empty window (loop entered but no events yet): real loop
            // time, but nothing to pin it on.
            self.idle_nanos += elapsed;
        } else {
            let total = f64::from(self.batch_events);
            for (i, n) in self.batch.iter_mut().enumerate() {
                if *n > 0 {
                    self.kind_counts[i] += u64::from(*n);
                    self.kind_nanos[i] += elapsed * f64::from(*n) / total;
                    *n = 0;
                }
            }
            self.attributed_nanos += elapsed;
        }
        self.batch_events = 0;
        self.batch_start = Some(now);
        now
    }

    /// Mark the end of the current event-loop entry, flushing the partial
    /// batch so the whole window is attributed. The loop window is closed at
    /// the flush's own timestamp, so attributed + idle time partitions the
    /// window exactly.
    pub fn end_loop(&mut self) {
        let now = self.flush();
        if let Some(start) = self.loop_start.take() {
            self.loop_nanos += now.duration_since(start).as_secs_f64() * 1e9;
        }
        self.batch_start = None;
    }

    /// Called once per scheduler invocation that returned actions; returns
    /// a start timestamp for the one-in-[`ACTION_SAMPLE_EVERY`] such
    /// invocations that are timed.
    pub fn action_timer(&mut self) -> Option<Instant> {
        self.action_calls += 1;
        if self.action_calls.is_multiple_of(ACTION_SAMPLE_EVERY) {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Record the actions of one scheduler invocation: `per_kind[i]` actions
    /// of kind `i`, plus the timestamp returned by
    /// [`action_timer`](Self::action_timer) when this invocation was
    /// sampled. Sampled elapsed time is scaled by the sampling factor and
    /// split across the invocation's action kinds by count.
    pub fn record_actions(&mut self, per_kind: &[u32], timer: Option<Instant>) {
        let total: u32 = per_kind.iter().sum();
        for (i, &n) in per_kind.iter().enumerate() {
            self.action_counts[i] += u64::from(n);
        }
        if let (Some(start), true) = (timer, total > 0) {
            let scaled = start.elapsed().as_secs_f64() * 1e9 * ACTION_SAMPLE_EVERY as f64;
            for (i, &n) in per_kind.iter().enumerate() {
                if n > 0 {
                    self.action_nanos[i] += scaled * f64::from(n) / f64::from(total);
                }
            }
        }
    }

    /// Snapshot the accumulated profile.
    pub fn report(&self) -> ProfileReport {
        let events = self
            .kind_names
            .iter()
            .zip(&self.kind_counts)
            .zip(&self.kind_nanos)
            .map(|((name, &count), &nanos)| ProfileRow {
                name: name.clone(),
                count,
                wall_secs: nanos / 1e9,
            })
            .collect();
        let actions = self
            .action_names
            .iter()
            .zip(&self.action_counts)
            .zip(&self.action_nanos)
            .map(|((name, &count), &nanos)| ProfileRow {
                name: name.clone(),
                count,
                wall_secs: nanos / 1e9,
            })
            .collect();
        ProfileReport {
            events,
            actions,
            loop_wall_secs: self.loop_nanos / 1e9,
            attributed_secs: self.attributed_nanos / 1e9,
            idle_secs: self.idle_nanos / 1e9,
        }
    }
}

/// One profiled row: an event kind or scheduler action.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileRow {
    /// Kind name as passed to [`LoopProfiler::new`].
    pub name: String,
    /// Exact number of occurrences.
    pub count: u64,
    /// Wall-clock seconds attributed to this kind (batch-approximate).
    pub wall_secs: f64,
}

/// Snapshot of a [`LoopProfiler`].
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileReport {
    /// Per-event-kind rows, in the order passed to [`LoopProfiler::new`].
    pub events: Vec<ProfileRow>,
    /// Per-scheduler-action rows (wall time is sampled and scaled; it
    /// overlaps the event rows rather than adding to the loop total).
    pub actions: Vec<ProfileRow>,
    /// Total wall time spent inside `begin_loop`/`end_loop` windows.
    pub(crate) loop_wall_secs: f64,
    /// Wall time attributed to some event kind.
    pub(crate) attributed_secs: f64,
    /// Loop wall time observed in windows that processed no events.
    pub(crate) idle_secs: f64,
}

impl ProfileReport {
    /// Fraction of loop wall time attributed to some event kind
    /// (1.0 for a loop that processed no events at all).
    pub fn attribution(&self) -> f64 {
        if self.loop_wall_secs <= 0.0 || self.total_events() == 0 {
            1.0
        } else {
            self.attributed_secs / self.loop_wall_secs
        }
    }

    /// Total number of profiled events.
    pub fn total_events(&self) -> u64 {
        self.events.iter().map(|r| r.count).sum()
    }

    /// Render the profile as an aligned plain-text table (events, then
    /// actions), sorted by attributed wall time, descending.
    pub fn table(&self) -> String {
        fn section(out: &mut String, title: &str, rows: &[ProfileRow], denom: f64) {
            let mut rows: Vec<&ProfileRow> = rows.iter().filter(|r| r.count > 0).collect();
            rows.sort_by(|a, b| {
                b.wall_secs
                    .partial_cmp(&a.wall_secs)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| b.count.cmp(&a.count))
            });
            out.push_str(&format!(
                "{title}\n  {:<22} {:>12} {:>12} {:>7}\n",
                "kind", "count", "wall_ms", "share"
            ));
            for r in rows {
                let share = if denom > 0.0 {
                    r.wall_secs / denom * 100.0
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "  {:<22} {:>12} {:>12.3} {:>6.1}%\n",
                    r.name,
                    r.count,
                    r.wall_secs * 1e3,
                    share
                ));
            }
        }
        let mut out = String::new();
        section(&mut out, "event loop", &self.events, self.loop_wall_secs);
        section(
            &mut out,
            "scheduler actions",
            &self.actions,
            self.loop_wall_secs,
        );
        out.push_str(&format!(
            "  loop wall {:.3} ms, attributed {:.1}% ({} events)\n",
            self.loop_wall_secs * 1e3,
            self.attribution() * 100.0,
            self.total_events()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_exact_and_attribution_is_complete() {
        let mut p = LoopProfiler::new(&["a", "b", "c"], &["x"]);
        p.begin_loop();
        for i in 0..10_000u32 {
            p.note((i % 3) as usize);
        }
        p.end_loop();
        let r = p.report();
        assert_eq!(r.events[0].count, 3334);
        assert_eq!(r.events[1].count, 3333);
        assert_eq!(r.events[2].count, 3333);
        assert!(r.attribution() >= 0.95, "attribution {}", r.attribution());
        // Attributed time never exceeds observed loop time (modulo clock
        // resolution on the final partial flush).
        assert!(r.attributed_secs <= r.loop_wall_secs + 1e-6);
    }

    #[test]
    fn multiple_loop_windows_accumulate() {
        let mut p = LoopProfiler::new(&["a"], &[]);
        for _ in 0..3 {
            p.begin_loop();
            for _ in 0..100 {
                p.note(0);
            }
            p.end_loop();
        }
        let r = p.report();
        assert_eq!(r.events[0].count, 300);
        assert!(r.attribution() >= 0.95);
    }

    #[test]
    fn actions_count_exactly_and_sample_timing() {
        let mut p = LoopProfiler::new(&["a"], &["launch", "kill"]);
        p.begin_loop();
        for _ in 0..200 {
            let t = p.action_timer();
            p.record_actions(&[2, 1], t);
        }
        p.end_loop();
        let r = p.report();
        assert_eq!(r.actions[0].count, 400);
        assert_eq!(r.actions[1].count, 200);
        // 200 calls at a 1-in-64 sampling rate: at least three were timed.
        assert!(r.actions[0].wall_secs >= 0.0);
        let text = r.table();
        assert!(text.contains("launch"));
        assert!(text.contains("attributed"));
    }

    #[test]
    fn empty_loop_reports_full_attribution() {
        let mut p = LoopProfiler::new(&["a"], &[]);
        p.begin_loop();
        p.end_loop();
        let r = p.report();
        assert_eq!(r.total_events(), 0);
        assert_eq!(r.attribution(), 1.0);
    }
}
