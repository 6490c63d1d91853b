//! The recount harness shared by the determinism and delay suites.

use mrp_engine::{Cluster, ClusterReport, PendingTotals, RackSlots};
use mrp_sim::{SimDuration, SimTime};

/// Drives `build`'s cluster in one-second slices of virtual time through
/// repeated `Cluster::run` calls. After every slice, each job's seven
/// engine-maintained counters must equal a recount from its task list, the
/// cluster-wide pending totals a recount from the jobs, and each rack's
/// free-slot totals a recount from its members' TaskTrackers. The sliced run
/// must also end with the same report and event count as one uninterrupted
/// run, which must drain and is returned.
pub fn assert_counters_match_recount_per_second(
    name: &str,
    build: impl Fn() -> Cluster,
) -> ClusterReport {
    let mut whole = build();
    whole.run(SimTime::from_secs(24 * 3_600));
    let expected = whole.report();
    assert!(expected.all_jobs_complete(), "{name}: run must drain");

    let mut sliced = build();
    let mut until = SimTime::ZERO;
    loop {
        sliced.run(until);
        for job in sliced.jobs().values() {
            let mut fresh = job.clone();
            fresh.recount_task_states();
            assert_eq!(
                job.counters(),
                fresh.counters(),
                "{name}: counters of {:?} drifted by {until:?}",
                job.id
            );
        }
        assert_eq!(
            sliced.pending_totals(),
            PendingTotals::from_jobs(sliced.jobs()),
            "{name}: pending totals drifted by {until:?}"
        );
        assert_eq!(
            sliced.rack_slots(),
            RackSlots::recount(sliced.trackers(), sliced.namenode().topology()),
            "{name}: rack free-slot totals drifted by {until:?}"
        );
        if until >= expected.finished_at {
            break;
        }
        until += SimDuration::from_secs(1);
    }
    assert_eq!(sliced.report(), expected, "{name}: slicing changed the run");
    assert_eq!(sliced.events_processed(), whole.events_processed());
    expected
}
