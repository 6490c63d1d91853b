//! The timing decorator only observes: on every workload's smoke shape a
//! decorated run computes the same report, byte for byte, and the same
//! event count as an undecorated one.

use mrp_engine::{ObsConfig, SchedulerPolicy};
use perfbench::policy::TimedPolicy;
use perfbench::workloads::{hfsp, setup, Scale, Workload, MAX_TIME};

fn run(workload: Workload, policy: Box<dyn SchedulerPolicy>) -> (String, u64) {
    let seed = workload.default_seed();
    let mut cluster = setup(workload, Scale::Smoke, seed, policy, ObsConfig::default()).cluster;
    cluster.run(MAX_TIME);
    let report = cluster.report();
    assert!(
        report.all_jobs_complete(),
        "{}: the smoke run must drain",
        workload.name()
    );
    (format!("{report:?}"), cluster.events_processed())
}

#[test]
fn decorated_runs_match_plain_runs() {
    for workload in Workload::ALL {
        let (plain_report, plain_events) = run(workload, hfsp());
        let (policy, counters) = TimedPolicy::wrap(hfsp());
        let (timed_report, timed_events) = run(workload, policy);
        assert!(
            plain_report == timed_report,
            "{}: the decorator changed the report",
            workload.name()
        );
        assert_eq!(
            plain_events,
            timed_events,
            "{}: the decorator changed the event count",
            workload.name()
        );
        let counters = counters.borrow();
        assert!(
            counters.heartbeat_calls > 0 && counters.actions_of("launch") > 0,
            "{}: the decorator saw no traffic: {counters:?}",
            workload.name()
        );
        assert!(counters.heartbeat_yielding <= counters.heartbeat_calls);
    }
}
