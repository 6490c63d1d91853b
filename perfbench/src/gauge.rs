//! A fixed reference workload that gauges how fast the host runs at the
//! moment, so that timings can be expressed at one reference speed.
//!
//! On a shared host the same simulation takes up to 1.7 times as long in one
//! stretch of minutes as in the next, CPU time included: neighbours on the
//! same machine slow the memory system down without taking the thread off
//! the CPU. An arithmetic loop hardly notices; allocation-heavy code with
//! scattered reads and writes, as the simulator's is, notices as much as
//! the simulator does. The gauge is a fixed amount of such work — a hash
//! map filled and updated while many small boxes are allocated — and lives
//! in the benchmark, so no change to the simulator alters it. Timing it
//! between runs and rescaling each run by [`Gauge::scale`] removes most of
//! the host's swing while keeping every change in the simulator's own cost.

use crate::clock::CpuInstant;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;

/// CPU seconds one [`Gauge::measure`] takes on the reference host: the
/// 2-core Xeon the benchmark was calibrated on, in a quiet stretch.
pub const REFERENCE_SECS: f64 = 0.05;

/// Boxes allocated, and map updates made, in one measurement.
const STEPS: u64 = 400_000;

/// Distinct keys of the map.
const KEYS: u64 = 200_000;

/// The reference workload.
#[derive(Debug, Default)]
pub struct Gauge;

impl Gauge {
    /// CPU seconds one pass of the reference workload takes now. Every pass
    /// does the same work; the hasher has fixed keys.
    pub fn measure(&self) -> f64 {
        let start = CpuInstant::now();
        let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut boxes: Vec<Box<[u64; 4]>> = Vec::new();
        for i in 0..STEPS {
            let key = mix(i) % KEYS;
            *map.entry(key).or_insert(0) += i;
            boxes.push(Box::new([i, key, i ^ key, 0]));
        }
        black_box((&map, &boxes));
        drop(boxes);
        drop(map);
        start.elapsed().as_secs_f64()
    }

    /// The factor that turns CPU seconds spent while the gauge read
    /// `before` and `after` into seconds at the reference host's speed.
    pub fn scale(before: f64, after: f64) -> f64 {
        2.0 * REFERENCE_SECS / (before + after)
    }
}

/// SplitMix64's output function.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
