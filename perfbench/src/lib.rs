//! Host performance benchmark of the mach-locking workspace.
//!
//! One binary runs one named workload for a fixed time as a closed loop
//! of one client thread, prints every end-to-end metric
//! (or, in the traced run, every per-layer metric) and checks the
//! workload's correctness ledgers. See `README.md` next to this crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod guard;
pub mod harness;
pub mod hist;
pub mod reference;
pub mod report;
pub mod rng;
pub mod trace;
pub mod workloads;
