//! # mrp-bench — benchmark harness
//!
//! This crate hosts the benches that regenerate every figure of the paper and
//! the `sim_throughput` bench that tracks the simulation core's events/sec
//! (see `benches/`). The harness is self-contained (`std::time::Instant`
//! based) because the build environment has no access to crates.io: each
//! bench is a `harness = false` binary that calls [`Bench::measure`].
//!
//! Run them with `cargo bench --workspace`; each bench prints the reproduced
//! table so the captured output doubles as the data behind `EXPERIMENTS.md`.
//! `cargo bench --bench <name> -- --test` runs one smoke iteration without
//! timing (used by CI). Full runs of the benches with a checked-in
//! `BENCH_*.json` baseline leave it untouched unless run with
//! `-- --write-baseline`.

#![warn(missing_docs)]

pub mod scenarios;

use std::time::Instant;

/// Timing options parsed from the bench binary's command line.
#[derive(Clone, Copy, Debug)]
pub struct Bench {
    /// `--test`: run each benchmark body exactly once, skip timing output.
    test_mode: bool,
    /// `--write-baseline`: let [`Bench::write_baseline`] overwrite the
    /// checked-in baseline.
    write_baseline: bool,
    /// Number of measured iterations per benchmark.
    iterations: usize,
}

impl Bench {
    /// Parses `--test` (smoke mode) and `--write-baseline` from the command
    /// line; every other argument (e.g. the `--bench` flag cargo appends) is
    /// ignored.
    pub fn from_args() -> Self {
        Bench {
            test_mode: std::env::args().any(|a| a == "--test"),
            write_baseline: std::env::args().any(|a| a == "--write-baseline"),
            iterations: 5,
        }
    }

    /// Writes `json` to the checked-in baseline `file` at the repository
    /// root, but only when the bench was run with `--write-baseline`: a
    /// plain full run prints its numbers and leaves the baseline as it is.
    pub fn write_baseline(&self, file: &str, json: &str) {
        if !self.write_baseline {
            println!("baseline {file} left unchanged (pass --write-baseline to update it)");
            return;
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file);
        match std::fs::write(&path, format!("{json}\n")) {
            Ok(()) => println!("baseline written to {}", path.display()),
            Err(e) => eprintln!("could not write baseline {}: {e}", path.display()),
        }
    }

    /// True when running in `--test` smoke mode.
    pub fn is_test(&self) -> bool {
        self.test_mode
    }

    /// Runs `f` under the harness: once in smoke mode, otherwise one warmup
    /// plus the configured number of timed runs. Prints and returns the mean
    /// wall-clock seconds per iteration.
    pub fn measure<R>(&self, name: &str, mut f: impl FnMut() -> R) -> f64 {
        if self.test_mode {
            let start = Instant::now();
            let _ = f();
            let secs = start.elapsed().as_secs_f64();
            println!("{name}: smoke run ok ({secs:.3}s)");
            return secs;
        }
        let _ = f(); // warmup
        let mut times = Vec::with_capacity(self.iterations);
        for _ in 0..self.iterations {
            let start = Instant::now();
            let _ = f();
            times.push(start.elapsed().as_secs_f64());
        }
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        println!(
            "{name}: mean {mean:.4}s, min {min:.4}s over {} iterations",
            times.len()
        );
        mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_time() {
        let bench = Bench {
            test_mode: true,
            write_baseline: false,
            iterations: 1,
        };
        let secs = bench.measure("noop", || 1 + 1);
        assert!(secs >= 0.0);
        assert!(bench.is_test());
    }

    #[test]
    fn timed_mode_runs_all_iterations() {
        let bench = Bench {
            test_mode: false,
            write_baseline: false,
            iterations: 3,
        };
        let mut runs = 0;
        bench.measure("count", || runs += 1);
        assert_eq!(runs, 4, "one warmup + three timed iterations");
    }

    #[test]
    fn baselines_are_written_only_on_request() {
        let bench = Bench {
            test_mode: false,
            write_baseline: false,
            iterations: 1,
        };
        let file = "BENCH_unrequested_write.json";
        bench.write_baseline(file, "{}");
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file);
        assert!(
            !path.exists(),
            "a run without --write-baseline wrote {file}"
        );
    }
}
