//! YCSB workload generation and a closed-loop runner.
//!
//! Reimplements the slice of the Yahoo! Cloud Serving Benchmark the paper
//! evaluates with (§5.3): workloads A (update-heavy), B (read-mostly),
//! C (read-only), D (read-latest) and F (read-modify-write), driven by
//! client threads against any [`apps::KvApp`]. Workload E (scans) is
//! omitted, as in the paper.
//!
//! Measurement is closed-loop ([`Runner::run`]): each client thread sends
//! back-to-back requests and throughput is the output, which is how the
//! paper's figures are produced. Key/value shapes follow the paper's setup:
//! 24-byte keys and 100-byte values, zipfian request distributions, and
//! per-thread latency histograms merged into a [`Report`].

pub mod generator;
pub mod runner;
pub mod workload;

pub use generator::{KeyChooser, ScrambledZipfian, Zipfian};
pub use runner::{LoadSpec, Report, RunSpec, Runner};
pub use workload::{OpKind, Workload, WorkloadMix};
