//! # dbre-e2ebench
//!
//! The repository's benchmark: complete reverse-engineering dialogues
//! over generated legacy systems, timed end to end through the public
//! entry points, checked against the ground truth, and — in a separate
//! traced run — broken down layer by layer from outside the program.
//! See `README.md` in this directory for the workloads and metrics.

#![forbid(unsafe_code)]

pub mod bench;
pub mod trace;
pub mod workload;
