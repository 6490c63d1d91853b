//! The simulator's benchmark: four fixed-seed workloads timed end to end,
//! plus a traced run that splits each one layer by layer.
//!
//! The `perfbench` binary drives these modules; the library half exists so
//! the tests can drive them too.

pub mod clock;
pub mod gauge;
pub mod policy;
pub mod replay;
pub mod stats;
pub mod workloads;
