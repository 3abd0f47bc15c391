//! Property tests of the telemetry JSONL decoder, `analyze::parse_jsonl`:
//! the bytes it reads were written by another process (a chaos run's sink,
//! a flight dump), possibly torn by a crash, so
//!
//! * no input makes it panic — arbitrary bytes, and valid span lines with
//!   bytes overwritten or cut off, parse or are reported malformed;
//! * every span it is handed back reads exactly as written, whatever its
//!   scope, name and detail hold (quotes, backslashes, control characters,
//!   multi-byte text, text that looks like another field) and whatever its
//!   record range — a fact's detail included.

use proptest::prelude::*;
use telemetry::analyze::parse_jsonl;
use telemetry::{intern_scope, spans, Span};

/// Pieces of span text: JSON specials, look-alikes of other fields, and
/// multi-byte characters. Odd draws are arbitrary scalar values instead.
const TOKENS: [&str; 19] = [
    "\"",
    "\\",
    "\n",
    "\r\t",
    "\u{1}",
    "\u{7f}",
    ":",
    ", ",
    "[",
    "]",
    "\"seq\": [1, 2]",
    "\"trace\": 9",
    "\"detail\": \"x\"",
    "\\u00",
    "é",
    "🦀",
    "peer-0",
    "app/f",
    "ncl.write",
];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..10).prop_map(|draws| {
        draws
            .into_iter()
            .map(|d| match d % 2 {
                0 => TOKENS[(d / 2) as usize % TOKENS.len()].to_string(),
                _ => char::from_u32(d / 2 % 0x11_0000)
                    .unwrap_or('\u{fffd}')
                    .to_string(),
            })
            .collect()
    })
}

fn span() -> impl Strategy<Value = Span> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u32>(), text(), text()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), text()),
    )
        .prop_map(
            |(
                (trace, id, parent),
                (pick, name, scope),
                (epoch, lo, hi),
                (start_ns, end_ns, detail),
            )| {
                // Mostly the well-known names, facts included, sometimes
                // anything at all.
                let mut known = spans::ALL.iter().chain(&spans::FACTS);
                let name = match known
                    .nth(pick as usize % (2 * (spans::ALL.len() + spans::FACTS.len())))
                {
                    Some(known) => known,
                    None => intern_scope(&name),
                };
                // Half the spans are about no records, as off the record path,
                // and half carry a detail.
                let seq = if pick % 2 == 0 { (0, 0) } else { (lo, hi) };
                let detail = (pick & 4 != 0).then(|| detail.into());
                Span {
                    trace,
                    id,
                    parent,
                    name,
                    scope: intern_scope(&scope),
                    epoch,
                    seq,
                    start_ns,
                    end_ns,
                    detail,
                }
            },
        )
}

/// A fact: a zero-length root of a trace of its own, with a detail.
fn fact() -> impl Strategy<Value = Span> {
    (any::<u64>(), any::<u32>(), text(), text()).prop_map(|(trace, pick, scope, detail)| {
        let at = trace / 2;
        Span {
            trace,
            id: trace,
            name: spans::FACTS[pick as usize % spans::FACTS.len()],
            scope: intern_scope(&scope),
            start_ns: at,
            end_ns: at,
            detail: Some(detail.into()),
            ..Span::default()
        }
    })
}

/// A valid span line with `edits` applied: each overwrites one byte, and
/// `cut` (when it falls inside the line) truncates it there.
fn damaged() -> impl Strategy<Value = Vec<u8>> {
    (
        span(),
        prop::collection::vec((any::<u32>(), any::<u8>()), 0..4),
        any::<u32>(),
    )
        .prop_map(|(span, edits, cut)| {
            let mut bytes = span.to_json().into_bytes();
            for (at, byte) in edits {
                let at = at as usize % bytes.len();
                bytes[at] = byte;
            }
            bytes.truncate(cut as usize % (2 * bytes.len()));
            bytes
        })
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse_jsonl(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn damaged_span_lines_never_panic(lines in prop::collection::vec(damaged(), 1..4)) {
        let doc = lines.join(&b'\n');
        let _ = parse_jsonl(&String::from_utf8_lossy(&doc));
    }

    #[test]
    fn arbitrary_spans_round_trip_exactly(written in prop::collection::vec(span(), 0..6)) {
        let doc: String = written.iter().map(|s| s.to_json() + "\n").collect();
        let read = parse_jsonl(&doc).map_err(TestCaseError::fail)?;
        prop_assert_eq!(read, written);
    }

    #[test]
    fn a_facts_detail_round_trips_exactly(written in prop::collection::vec(fact(), 1..6)) {
        let doc: String = written.iter().map(|s| s.to_json() + "\n").collect();
        let read = parse_jsonl(&doc).map_err(TestCaseError::fail)?;
        prop_assert_eq!(read, written);
    }
}
