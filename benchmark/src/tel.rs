//! Reading the system's own counters over a window, through the public
//! `Telemetry` surface only: two probes bracket the window, the difference
//! is what the window did.

use std::collections::BTreeMap;

use telemetry::{Histogram, Telemetry};

pub struct Probe {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

impl Probe {
    pub fn take(tel: &Telemetry) -> Self {
        Probe {
            counters: tel.snapshot().counters.into_iter().collect(),
            hists: tel.histograms_full().into_iter().collect(),
        }
    }

    /// What happened between `self` and the later probe `end`.
    pub fn until(&self, end: &Probe) -> Window {
        let counters = end
            .counters
            .iter()
            .map(|(k, v)| {
                let before = self.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect();
        let hists = end
            .hists
            .iter()
            .map(|(k, h)| {
                let grown = match self.hists.get(k) {
                    Some(before) => h.diff(before),
                    None => h.clone(),
                };
                (k.clone(), grown)
            })
            .collect();
        Window { counters, hists }
    }
}

pub struct Window {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

impl Window {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn hist_count(&self, name: &str) -> u64 {
        self.hists.get(name).map_or(0, Histogram::count)
    }

    pub fn hist_mean(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, Histogram::mean)
    }

    pub fn hist_p50(&self, name: &str) -> f64 {
        self.hists
            .get(name)
            .and_then(|h| h.percentile(50.0))
            .map_or(0.0, |v| v as f64)
    }

    /// Bursts NCL posted in the window, whatever triggered them.
    pub fn ncl_bursts(&self) -> u64 {
        [
            "ncl.flush.submit",
            "ncl.flush.window_full",
            "ncl.flush.barrier",
            "ncl.flush.replace",
        ]
        .iter()
        .map(|n| self.counter(n))
        .sum()
    }

    /// The `ncl.*` and `rdma.*` metrics that come straight from the system's
    /// counters, given the user bytes the window wrote.
    pub fn layer_counts(&self, user_bytes: u64, out: &mut crate::Values) {
        let records = self.hist_count("ncl.record.e2e");
        let per_record = |v: u64| {
            if records == 0 {
                0.0
            } else {
                v as f64 / records as f64
            }
        };
        out.insert("ncl.records", records as f64);
        out.insert("ncl.stage_ns", self.hist_mean("ncl.record.stage"));
        out.insert("ncl.doorbell_ns", self.hist_mean("ncl.record.doorbell"));
        out.insert("ncl.wire_ns", self.hist_mean("ncl.record.wire"));
        out.insert("ncl.ack_ns", self.hist_mean("ncl.record.ack"));
        out.insert("ncl.doorbells_per_record", per_record(self.ncl_bursts()));
        out.insert(
            "ncl.wire_bytes_per_user_byte",
            if user_bytes == 0 {
                0.0
            } else {
                self.counter("ncl.wire.bytes") as f64 / user_bytes as f64
            },
        );
        out.insert("ncl.window_stalls", self.counter("ncl.window.stall") as f64);
        out.insert(
            "ncl.header_per_record_fallbacks",
            self.counter("ncl.header.per_record") as f64,
        );
        out.insert("ncl.flush_submit", self.counter("ncl.flush.submit") as f64);
        out.insert(
            "ncl.flush_barrier",
            self.counter("ncl.flush.barrier") as f64,
        );
        out.insert(
            "ncl.flush_window_full",
            self.counter("ncl.flush.window_full") as f64,
        );
        out.insert(
            "rdma.wrs_per_record",
            per_record(self.hist_count("rdma.wr.wire")),
        );
        out.insert("rdma.wire_p50_ns", self.hist_p50("rdma.wr.wire"));
        out.insert(
            "splitfs.fsync_barrier_p50_ns",
            self.hist_p50("splitfs.fsync.barrier"),
        );
        out.insert(
            "splitfs.fallback_engaged",
            self.counter("splitfs.fallback.engaged") as f64,
        );
    }
}
