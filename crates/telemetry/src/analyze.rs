//! Offline analysis of a span stream: JSONL replay through the invariant
//! engine, and a stage-aggregated flamegraph-style breakdown.
//!
//! A telemetry JSONL file (from [`crate::Telemetry::set_jsonl_sink`]) holds
//! one span per line — record-path spans, control phases and facts alike.
//! This module owns three things: reading such a file back
//! ([`parse_jsonl`]), the stage aggregation, and the rendering of a
//! [`TraceReport`]. The rules, their codes and their messages are
//! [`crate::checker`]'s and nobody else's: [`analyze`] builds a
//! [`Checker::replay`] (every lag unbounded, no violation cap), feeds it the
//! spans in the order given and finalizes it. Rules 1–3 are therefore
//! insensitive to span order, and rules 4 and 5 read the given order, which
//! a sink file, [`crate::Telemetry::spans`] and a flight dump all keep as
//! recorded. A `trace-truncated` fact anywhere in the input downgrades the
//! span-completeness rules for the whole input ([`TraceReport::truncated`]).
//! The same call backs `trace_analyzer --check` in CI and the integration
//! tests' trace assertions.

use std::collections::{BTreeMap, BTreeSet};

use crate::checker::{invariant, Checker, Violation};
use crate::span::intern_scope;
use crate::{spans, Span};

/// Extracts `"key": "string"` from a flat JSON object line, unescaping.
fn str_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = line[at..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// What follows `"key":` in a flat JSON object line.
fn value_of<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    Some(&line[at..])
}

/// The unsigned integer `s` starts with (after whitespace), and the rest.
fn leading_u64(s: &str) -> Option<(u64, &str)> {
    let s = s.trim_start();
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    Some((s[..end].parse().ok()?, &s[end..]))
}

/// Extracts `"key": 123` from a flat JSON object line.
fn u64_field(line: &str, key: &str) -> Option<u64> {
    leading_u64(value_of(line, key)?).map(|(v, _)| v)
}

/// The `[lo, hi]` pair `s` starts with (after whitespace).
fn leading_range(s: &str) -> Option<(u64, u64)> {
    let (lo, rest) = leading_u64(s.trim_start().strip_prefix('[')?)?;
    let (hi, rest) = leading_u64(rest.trim_start().strip_prefix(',')?)?;
    rest.trim_start().starts_with(']').then_some((lo, hi))
}

/// Parses a telemetry JSONL document back into spans. Lines that are empty
/// are skipped; structurally broken lines and lines of any other type are
/// errors (a truncated final line from a crashed process is reported, not
/// silently dropped).
pub fn parse_jsonl(text: &str) -> Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.trim().is_empty() {
            continue;
        }
        match str_field(line, "type").as_deref() {
            Some("span") => {}
            other => return Err(format!("line {ln}: unknown record type {other:?}")),
        }
        let parse = || -> Option<Span> {
            Some(Span {
                trace: u64_field(line, "trace")?,
                id: u64_field(line, "id")?,
                parent: u64_field(line, "parent")?,
                name: intern_scope(&str_field(line, "name")?),
                scope: intern_scope(&str_field(line, "scope")?),
                epoch: u64_field(line, "epoch")?,
                // Files written before spans had a range have none.
                seq: match value_of(line, "seq") {
                    Some(value) => leading_range(value)?,
                    None => (0, 0),
                },
                start_ns: u64_field(line, "start_ns")?,
                end_ns: u64_field(line, "end_ns")?,
                detail: match value_of(line, "detail") {
                    Some(_) => Some(str_field(line, "detail")?.into()),
                    None => None,
                },
            })
        };
        spans.push(parse().ok_or_else(|| format!("line {ln}: malformed span"))?);
    }
    Ok(spans)
}

/// Aggregated timing for one span name.
#[derive(Debug, Clone)]
pub struct StageAgg {
    /// Span name.
    pub name: &'static str,
    /// Closed spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Mean duration.
    pub mean_ns: f64,
    /// Largest duration.
    pub max_ns: u64,
}

/// Outcome of analyzing one trace file (or one in-process ring pair).
#[derive(Debug, Default)]
pub struct TraceReport {
    /// Spans consumed, facts included.
    pub total_spans: usize,
    /// Distinct trace ids seen in spans.
    pub traces: usize,
    /// Acked records, counted by the range of every `ncl.write` root (see
    /// [`crate::MonitorReport::acked_writes`]).
    pub acked_writes: usize,
    /// Write traces with staging activity but no root: submitted, never
    /// acked. Expected under chaos (crashes mid-flight); not a violation.
    pub open_writes: usize,
    /// Spans inside rooted traces whose parent id did not resolve (the
    /// violations coded [`invariant::ORPHAN_SPAN`]).
    pub orphan_spans: usize,
    /// The engine's violations, empty when the trace is clean.
    pub violations: Vec<Violation>,
    /// Per-span-name aggregation, flamegraph ordering.
    pub stages: Vec<StageAgg>,
    /// True when the window under analysis is known incomplete: a
    /// `trace-truncated` fact appears in the stream. Span-completeness
    /// invariants (tree integrity, ack coverage) are skipped rather than
    /// reported as false positives; the other invariants still run.
    pub truncated: bool,
}

impl TraceReport {
    /// True when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-paragraph summary plus the stage breakdown.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} spans across {} traces: {} acked writes, {} open, {} orphan spans, {} violations\n",
            self.total_spans,
            self.traces,
            self.acked_writes,
            self.open_writes,
            self.orphan_spans,
            self.violations.len()
        );
        if self.truncated {
            out.push_str(
                "  NOTE: analysis of truncated window; span-completeness invariants skipped\n",
            );
        }
        for v in &self.violations {
            out.push_str(&format!("  VIOLATION [{}]: {}\n", v.invariant, v.message));
        }
        out.push_str(&self.render_flame());
        out
    }

    /// Stage-aggregated flamegraph-style breakdown: parents above children,
    /// children indented, each line showing count / total / mean / share of
    /// its root's total time.
    pub fn render_flame(&self) -> String {
        // Indentation by well-known parentage: roots, their phases, and
        // the per-peer catch-ups under a control path's `catch_up` phase.
        fn depth(name: &str) -> usize {
            match name {
                spans::NCL_WRITE
                | spans::NCL_CREATE
                | spans::NCL_REPAIR
                | spans::NCL_RECOVER
                | spans::FS_REATTACH_REPLAY => 0,
                spans::NCL_RECOVER_CATCH_UP_PEER | spans::NCL_REPAIR_CATCH_UP_PEER => 2,
                _ => 1,
            }
        }
        fn root_of(name: &str) -> &'static str {
            if name.starts_with("ncl.create") {
                spans::NCL_CREATE
            } else if name.starts_with("ncl.repair") {
                spans::NCL_REPAIR
            } else if name.starts_with("ncl.recover") {
                spans::NCL_RECOVER
            } else if name.starts_with("splitfs.") {
                spans::FS_REATTACH_REPLAY
            } else {
                spans::NCL_WRITE
            }
        }
        let totals: BTreeMap<&str, u64> =
            self.stages.iter().map(|s| (s.name, s.total_ns)).collect();
        let mut out = String::from("stage breakdown (flame):\n");
        for s in &self.stages {
            let root_total = *totals.get(root_of(s.name)).unwrap_or(&0);
            let share = if root_total > 0 {
                100.0 * s.total_ns as f64 / root_total as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:indent$}{:<28} n={:<8} total={:>12.3}ms mean={:>10.1}µs max={:>10.1}µs {:>5.1}%\n",
                "",
                s.name,
                s.count,
                s.total_ns as f64 / 1e6,
                s.mean_ns / 1e3,
                s.max_ns as f64 / 1e3,
                share,
                indent = depth(s.name) * 2,
            ));
        }
        out
    }
}

/// Orders stage rows so each root precedes its children (flame layout).
fn flame_order(name: &str) -> (usize, &str) {
    let rank = spans::ALL
        .iter()
        .position(|n| *n == name)
        .unwrap_or(usize::MAX);
    (rank, name)
}

/// Replays the given spans through a [`Checker::replay`] (see the module
/// docs) and aggregates them by name, facts aside. `quorum` is the f+1
/// write quorum the deployment ran with (2 for the default 3-replica set).
pub fn analyze(spans_in: &[Span], quorum: usize) -> TraceReport {
    let mut checker = Checker::replay(quorum);
    let mut traces: BTreeSet<u64> = BTreeSet::new();
    let mut agg: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans_in {
        checker.feed_span(s);
        traces.insert(s.trace);
        if s.is_fact() {
            continue;
        }
        let e = agg.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 = e.2.max(s.duration_ns());
    }
    checker.finalize();
    let verdict = checker.report();

    let mut stages: Vec<StageAgg> = agg
        .into_iter()
        .map(|(name, (count, total_ns, max_ns))| StageAgg {
            name,
            count,
            total_ns,
            mean_ns: total_ns as f64 / count as f64,
            max_ns,
        })
        .collect();
    stages.sort_by_key(|s| flame_order(s.name));

    TraceReport {
        total_spans: spans_in.len(),
        traces: traces.len(),
        acked_writes: verdict.acked_writes as usize,
        open_writes: verdict.open_writes as usize,
        orphan_spans: verdict
            .violations
            .iter()
            .filter(|v| v.invariant == invariant::ORPHAN_SPAN)
            .count(),
        violations: verdict.violations.clone(),
        stages,
        truncated: verdict.truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // What the engine makes of a feed is tested once, for this front end and
    // the live one together, by the case table in `crate::monitor`'s tests.

    fn sp(trace: u64, id: u64, parent: u64, name: &'static str, scope: &'static str) -> Span {
        Span {
            trace,
            id,
            parent,
            name,
            scope,
            epoch: 1,
            seq: (0, 0),
            start_ns: 100,
            end_ns: 200,
            detail: None,
        }
    }

    #[test]
    fn report_counts_renders_and_aggregates() {
        let spans = vec![
            sp(10, 11, 10, spans::NCL_STAGE, "app/f"),
            sp(10, 12, 10, spans::NCL_DOORBELL, "app/f"),
            sp(10, 13, 10, spans::NCL_WIRE_PEER, "peer-0"),
            sp(10, 99, 55, spans::NCL_ACK, "app/f"),
            sp(10, 10, 0, spans::NCL_WRITE, "app/f"),
            sp(20, 21, 20, spans::NCL_STAGE, "app/f"),
        ];
        let report = analyze(&spans, 2);
        assert_eq!((report.total_spans, report.traces), (6, 2));
        assert_eq!((report.acked_writes, report.open_writes), (1, 1));
        assert_eq!(report.orphan_spans, 1);
        assert_eq!(report.violations.len(), 2);
        let text = report.render();
        assert!(text.contains("VIOLATION [orphan-span]: trace 10: span 99"));
        assert!(text.contains("VIOLATION [ack-coverage]: trace 10: acked write covered by 1"));
        let stage = report.stages.iter().find(|s| s.name == spans::NCL_STAGE);
        assert_eq!(stage.map(|s| (s.count, s.total_ns)), Some((2, 200)));
        let flame = report.render_flame();
        assert!(flame.find("ncl.write").unwrap() < flame.find("ncl.wire.peer").unwrap());

        let truncated = sp(1, 1, 0, spans::TRACE_TRUNCATED, "telemetry");
        let report = analyze(&[&[truncated][..], &spans].concat(), 2);
        assert!(report.ok() && report.truncated);
        assert!(report.render().contains("truncated window"));
        assert!(
            report
                .stages
                .iter()
                .all(|s| s.name != spans::TRACE_TRUNCATED),
            "a fact is not a stage"
        );
    }

    #[test]
    fn flame_places_control_roots_their_phases_and_per_peer_catch_ups() {
        let spans = vec![
            sp(30, 31, 30, spans::NCL_REPAIR_GET_PEER, "app/f"),
            sp(30, 33, 32, spans::NCL_REPAIR_CATCH_UP_PEER, "peer-3"),
            sp(30, 32, 30, spans::NCL_REPAIR_CATCH_UP, "app/f"),
            sp(30, 30, 0, spans::NCL_REPAIR, "app/f"),
            sp(40, 41, 40, spans::NCL_CREATE_CONNECT_MR, "app/f"),
            sp(40, 40, 0, spans::NCL_CREATE, "app/f"),
        ];
        let report = analyze(&spans, 2);
        assert!(report.ok(), "{}", report.render());
        let flame = report.render_flame();
        let line = |name: &str| {
            let at = |l: &&str| l.trim_start().starts_with(&format!("{name} "));
            let (i, l) = flame.lines().enumerate().find(|(_, l)| at(l)).unwrap();
            (i, l.len() - l.trim_start().len())
        };
        let (root, phase, peer) = (
            line(spans::NCL_REPAIR),
            line(spans::NCL_REPAIR_CATCH_UP),
            line(spans::NCL_REPAIR_CATCH_UP_PEER),
        );
        assert!(root.0 < phase.0 && phase.0 < peer.0, "{flame}");
        assert_eq!((phase.1 - root.1, peer.1 - root.1), (2, 4), "{flame}");
        assert!(line(spans::NCL_CREATE).0 < line(spans::NCL_CREATE_CONNECT_MR).0);
        // A phase's share is of its own root: 100 of the repair's 100 ns.
        let get_peer = flame.lines().find(|l| l.contains("ncl.repair.get_peer"));
        assert!(get_peer.unwrap().ends_with("100.0%"), "{flame}");
    }

    #[test]
    fn jsonl_round_trip() {
        let span = Span {
            seq: (3, 18),
            ..sp(7, 7, 0, spans::NCL_WRITE, "app/\"quoted\"")
        };
        let fact = Span {
            detail: Some("tab\there".into()),
            ..sp(8, 8, 0, spans::EPOCH_BUMP, "peer-0")
        };
        let text = format!("{}\n{}\n", span.to_json(), fact.to_json());
        assert_eq!(parse_jsonl(&text).unwrap(), [span, fact]);

        assert!(parse_jsonl("{\"type\": \"span\"}\n").is_err());
        assert!(parse_jsonl("garbage\n").is_err());
        let other = "{\"type\": \"counter\", \"name\": \"x\"}";
        assert!(parse_jsonl(other).is_err(), "one record type");
    }

    #[test]
    fn a_span_line_without_a_range_reads_as_none() {
        // What a sink wrote before spans carried their record range.
        let old = "{\"type\": \"span\", \"trace\": 7, \"id\": 7, \"parent\": 0, \"name\": \"ncl.write\", \"scope\": \"app/f\", \"epoch\": 1, \"start_ns\": 100, \"end_ns\": 200}";
        let spans = parse_jsonl(old).unwrap();
        assert_eq!(spans, [sp(7, 7, 0, spans::NCL_WRITE, "app/f")]);
        assert_eq!(spans[0].records(), 1);
        let torn = old.replace("\"start_ns\"", "\"seq\": [1, \"start_ns\"");
        assert!(
            parse_jsonl(&torn).is_err(),
            "a range that is there must parse"
        );
    }
}
