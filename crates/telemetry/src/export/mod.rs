//! Operator-facing export plane: formats that leave the process.
//!
//! Everything in-process ([`crate::Telemetry`], rings, registry) is wire-
//! format agnostic; this module renders it for external consumers:
//!
//! * [`prometheus`] — text exposition format for a Prometheus scrape;
//! * [`http`] — a tiny std-only blocking HTTP server exposing `/metrics`
//!   (Prometheus), `/snapshot` (full JSON), and `/trace` (Chrome trace);
//! * [`chrome`] — Chrome trace event format (`chrome://tracing`, Perfetto)
//!   for span trees.

pub mod chrome;
pub mod http;
pub mod prometheus;
