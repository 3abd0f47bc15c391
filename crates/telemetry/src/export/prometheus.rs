//! Prometheus text exposition format (version 0.0.4) over the registry.
//!
//! Counters and gauges map directly; histograms are rendered as the standard
//! cumulative `_bucket{le="..."}` / `_sum` / `_count` triple using a fixed
//! decade ladder of nanosecond thresholds (1µs … 1s), computed from the
//! log-linear buckets via [`crate::Histogram::count_at_most`] (±~3% at the
//! boundaries — the underlying buckets are finer than the exported ladder).
//!
//! Metric names are sanitized (`.`/other specials → `_`), prefixed with
//! `splitft_`, and histograms get a `_ns` unit suffix, so `ncl.record.wire`
//! exports as `splitft_ncl_record_wire_ns`.

use crate::{Histogram, Telemetry};

/// Exported cumulative-bucket thresholds, in nanoseconds: 1µs .. 1s decades.
pub const LE_BOUNDS_NS: [u64; 7] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Sanitizes a registry metric name into a Prometheus metric name:
/// `[a-zA-Z0-9_:]` pass through, everything else becomes `_`, and the
/// `splitft_` namespace prefix is prepended.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("splitft_");
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        // A leading digit is invalid even though digits are fine later.
        if ok && !(i == 0 && c.is_ascii_digit()) {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn render_histogram(out: &mut String, name: &str, h: &Histogram) {
    let base = format!("{}_ns", sanitize_name(name));
    out.push_str(&format!("# TYPE {base} histogram\n"));
    for le in LE_BOUNDS_NS {
        out.push_str(&format!(
            "{base}_bucket{{le=\"{le}\"}} {}\n",
            h.count_at_most(le)
        ));
    }
    out.push_str(&format!("{base}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
    out.push_str(&format!("{base}_sum {}\n", h.sum()));
    out.push_str(&format!("{base}_count {}\n", h.count()));
}

/// Renders the full registry in Prometheus text exposition format.
///
/// One synthetic series rides along: `splitft_trace_dropped_total`, the
/// number of span-ring entries evicted before being read. It comes from the rings' own drop accounting rather than a
/// registry counter, so it is authoritative and always present — a scrape
/// can alert on trace loss even when nothing else incremented.
pub fn render(tel: &Telemetry) -> String {
    let snap = tel.snapshot();
    let mut out = String::new();
    let dropped = snap.spans_dropped;
    out.push_str(&format!(
        "# TYPE splitft_trace_dropped_total counter\nsplitft_trace_dropped_total {dropped}\n"
    ));
    for (name, v) in &snap.counters {
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
    }
    for (name, h) in tel.histograms_full() {
        render_histogram(&mut out, &name, &h);
    }
    out
}

/// Structural validation of Prometheus text format, used by tests and the
/// scrape smoke test: every non-comment line is `name[{labels}] value`, every
/// histogram has monotone non-decreasing buckets ending at `+Inf == _count`.
pub fn validate(text: &str) -> Result<(), String> {
    let mut last_bucket: Option<(String, u64)> = None;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {ln}: no value separator"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {ln}: unparseable value {value:?}"))?;
        let metric = name_part.split('{').next().unwrap_or(name_part);
        if !metric
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {ln}: invalid metric name {metric:?}"));
        }
        if let Some(base) = metric.strip_suffix("_bucket") {
            let count = value as u64;
            if let Some((prev_base, prev_count)) = &last_bucket {
                if prev_base == base && count < *prev_count {
                    return Err(format!("line {ln}: bucket counts not cumulative"));
                }
            }
            last_bucket = Some((base.to_string(), count));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize_name("ncl.record.wire"), "splitft_ncl_record_wire");
        assert_eq!(sanitize_name("9lives"), "splitft__lives");
        assert_eq!(sanitize_name("a-b c"), "splitft_a_b_c");
    }

    #[test]
    fn render_matches_golden_file() {
        let tel = Telemetry::new();
        tel.counter("ncl.flush.submit").add(4);
        tel.gauge("ncl.window.depth").set(-1);
        let h = tel.histogram("ncl.record.wire");
        h.record(500); // below 1µs
        h.record(50_000); // 50µs
        h.record(2_000_000); // 2ms
        let text = render(&tel);
        let golden = include_str!("../../tests/golden/prometheus.txt");
        assert_eq!(text, golden, "prometheus exposition drifted from golden");
    }

    #[test]
    fn render_is_structurally_valid() {
        let tel = Telemetry::new();
        tel.counter("a.b").inc();
        tel.gauge("g").set(3);
        let h = tel.histogram("lat");
        for v in [100u64, 10_000, 1_000_000, 2_000_000_000] {
            h.record(v);
        }
        let text = render(&tel);
        validate(&text).unwrap();
        assert!(text.contains("splitft_lat_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("splitft_lat_ns_count 4"));
    }

    #[test]
    fn trace_dropped_total_tracks_ring_evictions() {
        let tel = Telemetry::new();
        assert!(render(&tel).contains("splitft_trace_dropped_total 0"));
        tel.set_span_capacity(1);
        let now = std::time::Instant::now();
        for trace in [1, 2] {
            let root = (trace, trace, 0);
            crate::tests::record(&tel, root, crate::spans::NCL_WRITE, "x", 1, (now, now));
        }
        // The second write evicts the first from the 1-slot record ring.
        let text = render(&tel);
        let line = text
            .lines()
            .find(|l| l.starts_with("splitft_trace_dropped_total "))
            .unwrap();
        let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(n >= 1, "expected drops, got {text}");
        assert_eq!(n, tel.trace_dropped());
    }

    #[test]
    fn validate_rejects_non_cumulative_buckets() {
        let bad = "x_bucket{le=\"10\"} 5\nx_bucket{le=\"100\"} 3\n";
        assert!(validate(bad).is_err());
        assert!(validate("ok 1\n").is_ok());
        assert!(validate("no-value-here\n").is_err());
    }
}
