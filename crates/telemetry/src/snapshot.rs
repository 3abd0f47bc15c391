//! Point-in-time snapshot of a [`crate::Telemetry`] handle, renderable as
//! JSON (the scrape endpoint's `/snapshot`). Prometheus text is
//! [`crate::export::prometheus`].

use crate::hist::Summary;
use crate::span::Span;

/// Escapes a string for embedding inside a JSON string literal.
///
/// Public so downstream emitters of hand-rolled JSON (the bench harness, the
/// exporters) share one correct implementation instead of interpolating raw
/// strings.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Everything a [`crate::Telemetry`] handle knows, frozen at one instant.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<(String, Summary)>,
    /// The span rings' contents, as [`crate::Telemetry::spans`] lists them.
    pub spans: Vec<Span>,
    /// Spans evicted from the rings before this snapshot.
    pub spans_dropped: u64,
}

impl TelemetrySnapshot {
    /// Looks up a counter by exact name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Looks up a histogram summary by exact name.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
    }

    /// Renders the full snapshot as one JSON object.
    pub fn render_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| format!("\"{}\": {}", json_escape(n), v))
            .collect::<Vec<_>>()
            .join(", ");
        let gauges = self
            .gauges
            .iter()
            .map(|(n, v)| format!("\"{}\": {}", json_escape(n), v))
            .collect::<Vec<_>>()
            .join(", ");
        let hists = self
            .histograms
            .iter()
            .map(|(n, s)| format!("\"{}\": {}", json_escape(n), s.to_json()))
            .collect::<Vec<_>>()
            .join(", ");
        let spans = self
            .spans
            .iter()
            .map(Span::to_json)
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"counters\": {{{counters}}}, \"gauges\": {{{gauges}}}, \"histograms\": {{{hists}}}, \"spans\": [{spans}], \"spans_dropped\": {}}}",
            self.spans_dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn renders_are_well_formed() {
        let snap = TelemetrySnapshot {
            counters: vec![("ncl.flush.submit".into(), 4)],
            gauges: vec![("ncl.window.depth".into(), -1)],
            histograms: vec![(
                "ncl.record.wire".into(),
                Summary {
                    count: 2,
                    mean_ns: 150.0,
                    min_ns: 100,
                    p50_ns: 100,
                    p99_ns: 200,
                    max_ns: 200,
                    overflow: 1,
                },
            )],
            spans: vec![
                Span {
                    trace: 2,
                    id: 2,
                    name: "epoch-bump",
                    scope: "peer-0",
                    epoch: 7,
                    start_ns: 42,
                    end_ns: 42,
                    ..Span::default()
                },
                Span {
                    trace: 3,
                    id: 3,
                    parent: 0,
                    name: "ncl.write",
                    scope: "app/f",
                    epoch: 7,
                    seq: (1, 4),
                    start_ns: 40,
                    end_ns: 90,
                    detail: None,
                },
            ],
            spans_dropped: 1,
        };
        let json = snap.render_json();
        assert!(json.contains("\"ncl.flush.submit\": 4"));
        assert!(json.contains("\"name\": \"epoch-bump\""));
        assert!(json.contains("\"name\": \"ncl.write\""));
        assert!(json.contains("\"ncl.record.wire\""));
        assert!(json.contains("\"overflow\": 1"));
        assert!(json.contains("\"epoch\": 7"));
        assert!(json.contains("\"seq\": [1, 4]"));
        assert!(json.contains("\"spans_dropped\": 1"));
        assert_eq!(snap.counter("ncl.flush.submit"), 4);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.summary("ncl.record.wire").unwrap().count, 2);
    }

    /// Regression test: metric names, span scopes, and details containing
    /// JSON-special characters must render as *valid* JSON, with quotes,
    /// backslashes, and control chars escaped in every string position.
    #[test]
    fn render_json_escapes_hostile_names_and_labels() {
        let snap = TelemetrySnapshot {
            counters: vec![("evil\"name\\with\nnewline".into(), 1)],
            gauges: vec![("tab\there".into(), 2)],
            histograms: vec![(
                "quote\"hist".into(),
                Summary {
                    count: 1,
                    mean_ns: 1.0,
                    min_ns: 1,
                    p50_ns: 1,
                    p99_ns: 1,
                    max_ns: 1,
                    overflow: 0,
                },
            )],
            spans: vec![
                Span {
                    trace: 2,
                    id: 2,
                    name: "epoch-bump",
                    scope: "app/\"weird\\path",
                    epoch: 1,
                    detail: Some("ctrl\u{1}char and \"quotes\"".into()),
                    ..Span::default()
                },
                Span {
                    trace: 1,
                    id: 1,
                    parent: 0,
                    name: "ncl.write",
                    scope: "peer\\0",
                    epoch: 1,
                    seq: (0, 0),
                    start_ns: 0,
                    end_ns: 1,
                    detail: None,
                },
            ],
            spans_dropped: 0,
        };
        let json = snap.render_json();
        // No raw (unescaped) quote may terminate a string early: strip the
        // escape sequences and verify balanced braces/brackets remain.
        assert!(json.contains("evil\\\"name\\\\with\\nnewline"));
        assert!(json.contains("tab\\there"));
        assert!(json.contains("quote\\\"hist"));
        assert!(json.contains("app/\\\"weird\\\\path"));
        assert!(json.contains("ctrl\\u0001char"));
        assert!(json.contains("peer\\\\0"));
        // A quick structural sanity check: after removing escaped characters,
        // the number of quotes must be even.
        let unescaped = json.replace("\\\\", "").replace("\\\"", "");
        assert_eq!(unescaped.matches('"').count() % 2, 0);
        assert!(!unescaped.contains('\n'));
    }
}
