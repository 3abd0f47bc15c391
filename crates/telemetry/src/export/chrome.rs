//! Chrome's JSON trace format (`traceEvents`) for span trees.
//!
//! The output loads directly into `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev): one complete event (`"ph": "X"`) per
//! span, with microsecond `ts`/`dur` as the format requires. Spans are
//! grouped so each trace id renders as its own track: `pid` is the span name
//! category hash-free constant 1 (one process), `tid` is the trace id, which
//! makes every burst's causal chain a separate row with its stage, doorbell,
//! wire, and ack children nested by time. Tree structure (`span`/`parent`
//! ids), scope, epoch and the record range `seq` travel in `args`.
//!
//! The rendering is line-structural — header line, one event per line, footer
//! line — so [`validate`] can check exported files without a JSON parser.

use crate::snapshot::json_escape;
use crate::Span;

/// Renders spans as a Chrome trace JSON document.
pub fn render(spans: &[Span]) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        // ts/dur are microseconds (f64) in the trace event format.
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"scope\": \"{}\", \"epoch\": {}, \"seq\": [{}, {}], \"span\": {}, \"parent\": {}}}}}{sep}\n",
            json_escape(s.name),
            json_escape(s.name.split('.').next().unwrap_or("span")),
            s.trace,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            json_escape(s.scope),
            s.epoch,
            s.seq.0,
            s.seq.1,
            s.id,
            s.parent,
        ));
    }
    out.push_str("]}\n");
    out
}

/// Structural validation of a rendered Chrome trace: header/footer framing
/// plus per-line checks that every event carries the fields Perfetto needs
/// (`name`, `ph`, `pid`, `tid`, `ts`, `dur`). Returns the event count.
pub fn validate(text: &str) -> Result<usize, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty document")?;
    if !header.contains("\"traceEvents\"") {
        return Err("missing traceEvents header".into());
    }
    let mut events = 0usize;
    let mut saw_footer = false;
    for (ln, line) in lines.enumerate() {
        let ln = ln + 2;
        if line == "]}" {
            saw_footer = true;
            continue;
        }
        if saw_footer {
            if !line.trim().is_empty() {
                return Err(format!("line {ln}: content after footer"));
            }
            continue;
        }
        for key in [
            "\"name\"",
            "\"ph\": \"X\"",
            "\"pid\"",
            "\"tid\"",
            "\"ts\"",
            "\"dur\"",
        ] {
            if !line.contains(key) {
                return Err(format!("line {ln}: event missing {key}"));
            }
        }
        events += 1;
    }
    if !saw_footer {
        return Err("missing footer".into());
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans;

    fn span(trace: u64, id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            trace,
            id,
            parent,
            name,
            scope: "app/f",
            epoch: 2,
            seq: (0, 0),
            start_ns: start,
            end_ns: end,
            detail: None,
        }
    }

    #[test]
    fn render_validates_and_counts() {
        let spans = vec![
            span(5, 5, 0, spans::NCL_WRITE, 0, 10_000),
            span(5, 6, 5, spans::NCL_STAGE, 0, 1_000),
            span(5, 7, 5, spans::NCL_WIRE_PEER, 2_000, 9_000),
        ];
        let text = render(&spans);
        assert_eq!(validate(&text).unwrap(), 3);
        assert!(text.contains("\"tid\": 5"));
        assert!(text.contains("\"ts\": 2.000"));
        assert!(text.contains("\"dur\": 7.000"));
        assert!(text.contains("\"parent\": 5"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let text = render(&[]);
        assert_eq!(validate(&text).unwrap(), 0);
    }

    #[test]
    fn validate_rejects_malformed_events() {
        assert!(validate("{\"traceEvents\": [\n{\"name\": \"x\"}\n]}\n").is_err());
        assert!(validate("nonsense\n").is_err());
    }
}
