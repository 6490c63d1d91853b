//! CI timing gate: the per-event cost of each tracked scenario against the
//! `sim_throughput` anchor, and what full observability costs on the anchor.
//!
//! Each bar runs interleaved pairs — its scenario and the anchor, the order
//! alternating from pair to pair — and takes the per-pair ratio of events
//! per CPU second. The CPU clock leaves out stretches in which the thread
//! was descheduled, and both sides of a pair share the host's state of the
//! moment, so a slow stretch of a shared host cancels in the ratio. The
//! gate prints q1/median/q3 of each bar's ratios and fails when a median is
//! below its floor.
//!
//! Floors: 1/3 for the scenarios held to "within 3x of the anchor"; half
//! the recorded ratio for the rest (`multi_tenant` 0.691, `swim_cluster`
//! 0.342, `memory_pressure` 0.108); and obs-on at 0.90 or more of obs-off.
//!
//! What the scenarios compute, as opposed to how fast, is held by the
//! fixed-seed tests in `tests/quality_bars.rs`.
//!
//! Run with `cargo run --release -p mrp-bench --bin check_bench`.

use mrp_engine::{Cluster, ObsConfig, SwapConfig};
use mrp_experiments::{
    run_memory_pressure, run_rack_outage, run_tenant_scenario, sim_throughput_cluster,
    sim_throughput_config, FaultChurnConfig, MemoryPressureConfig, PartitionDetectConfig,
    RackOutageConfig, SwimClusterConfig, TenantScenarioConfig, CATALOGUE_HORIZON,
};
use mrp_preempt::PreemptionPrimitive;
use perfbench::clock::CpuInstant;
use perfbench::stats::quartiles;

/// Events per CPU second of `cluster.run` alone: building the cluster and
/// loading its inputs is set-up, not the per-event cost the bars bound.
fn drain(mut cluster: Cluster) -> f64 {
    let start = CpuInstant::now();
    cluster.run(CATALOGUE_HORIZON);
    let cpu_secs = start.elapsed().as_secs_f64();
    assert!(
        cluster.report().all_jobs_complete(),
        "a timed scenario must drain"
    );
    cluster.events_processed() as f64 / cpu_secs
}

/// Events per CPU second of a whole experiments-crate run, which builds its
/// own cluster; its set-up is small against the run at these shapes.
fn whole(run: impl FnOnce() -> u64) -> f64 {
    let start = CpuInstant::now();
    let events = run();
    events as f64 / start.elapsed().as_secs_f64()
}

fn anchor() -> f64 {
    drain(sim_throughput_cluster(sim_throughput_config()))
}

fn observed_anchor() -> f64 {
    drain(sim_throughput_cluster(
        sim_throughput_config().with_obs(ObsConfig::full()),
    ))
}

fn swim_cluster() -> f64 {
    let sc = SwimClusterConfig::full();
    drain(sc.build(sc.config()))
}

fn locality_delay() -> f64 {
    let sc = SwimClusterConfig::locality_delay();
    drain(sc.build(sc.config()))
}

fn fault_churn() -> f64 {
    let sc = FaultChurnConfig::full();
    drain(sc.build(sc.config()))
}

fn partition_detect() -> f64 {
    let sc = PartitionDetectConfig::full();
    drain(sc.build(sc.config()))
}

fn rack_outage() -> f64 {
    whole(|| run_rack_outage(&RackOutageConfig::full()).events)
}

fn multi_tenant() -> f64 {
    let config = TenantScenarioConfig::full(PreemptionPrimitive::SuspendResume);
    whole(|| run_tenant_scenario(&config).events_processed)
}

fn memory_pressure() -> f64 {
    let config = MemoryPressureConfig::full(SwapConfig::enabled());
    whole(|| run_memory_pressure(&config).events_processed)
}

/// One timing bar: the median of [`PAIRS`] per-pair ratios of `run`'s
/// events per CPU second over the anchor's must reach `floor`.
struct Bar {
    name: &'static str,
    floor: f64,
    run: fn() -> f64,
}

/// Pairs per bar; odd, so the median is one pair's ratio.
const PAIRS: usize = 11;

const THIRD: f64 = 1.0 / 3.0;

const BARS: [Bar; 8] = [
    Bar {
        name: "fault_churn",
        floor: THIRD,
        run: fault_churn,
    },
    Bar {
        name: "locality_delay",
        floor: THIRD,
        run: locality_delay,
    },
    Bar {
        name: "rack_outage",
        floor: THIRD,
        run: rack_outage,
    },
    Bar {
        name: "partition_detect",
        floor: THIRD,
        run: partition_detect,
    },
    Bar {
        name: "multi_tenant",
        floor: 0.346,
        run: multi_tenant,
    },
    Bar {
        name: "swim_cluster",
        floor: 0.171,
        run: swim_cluster,
    },
    Bar {
        name: "memory_pressure",
        floor: 0.054,
        run: memory_pressure,
    },
    Bar {
        name: "obs-on/obs-off",
        floor: 0.90,
        run: observed_anchor,
    },
];

fn main() {
    println!(
        "check_bench: events per CPU second over the sim_throughput anchor's, \
         {PAIRS} interleaved pairs per bar"
    );
    let mut failed = Vec::new();
    for bar in &BARS {
        let ratios: Vec<f64> = (0..PAIRS)
            .map(|pair| {
                let (run, anchor) = if pair % 2 == 0 {
                    ((bar.run)(), anchor())
                } else {
                    let anchor = anchor();
                    ((bar.run)(), anchor)
                };
                run / anchor
            })
            .collect();
        let [q1, median, q3] = quartiles(&ratios).expect("PAIRS is at least two");
        let ok = median >= bar.floor;
        println!(
            "  {:<16} q1 {q1:.3}  median {median:.3}  q3 {q3:.3}  floor {:.3}  [{}]",
            bar.name,
            bar.floor,
            if ok { "ok" } else { "BELOW FLOOR" },
        );
        if !ok {
            failed.push(bar.name);
        }
    }
    if !failed.is_empty() {
        eprintln!(
            "check_bench: FAILED: median below its floor for {}",
            failed.join(", ")
        );
        std::process::exit(1);
    }
    println!("check_bench: OK");
}
