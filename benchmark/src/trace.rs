//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Kept in memory during the run and written as JSON lines when it ends;
//! nothing inside the crates under test is instrumented for this.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Where span artifacts go, relative to the repository root (`run.sh` runs
/// the benchmark from there).
const OUT_DIR: &str = "benchmark/out";

/// Spans kept per run. Past this the log only counts what it drops: the
/// aggregates (histograms) still see every call, the artifact stays small.
const SPAN_CAP: usize = 200_000;

#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `splitfs.write_at`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 1-based index of the causing span in this log, 0 for a root.
    pub parent: u32,
    /// The workload operation this span belongs to.
    pub op: u64,
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    /// A log whose timestamps count from `epoch` (shared by every client
    /// thread of a run so merged logs line up).
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::with_capacity(SPAN_CAP),
            dropped: 0,
        }
    }

    /// Records one span and returns its id for use as a `parent` (0 when
    /// the log is full and the span was dropped).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        op: u64,
    ) -> u32 {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return 0;
        }
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            parent,
            op,
        });
        self.spans.len() as u32
    }

    /// Mean self time of the root spans that have children: their duration
    /// minus what their child spans cover. `None` when no root has children.
    pub fn mean_root_self_ns(&self) -> Option<f64> {
        let mut children: std::collections::BTreeMap<u32, Vec<(u64, u64)>> = Default::default();
        for s in self.spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let own: Vec<u64> = children
            .iter()
            .map(|(&id, kids)| {
                let root = &self.spans[id as usize - 1];
                crate::stats::self_time_ns(root.start_ns, root.end_ns, kids)
            })
            .collect();
        (!own.is_empty()).then(|| own.iter().sum::<u64>() as f64 / own.len() as f64)
    }

    /// Appends another thread's log, re-basing its parent ids.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        for mut s in other.spans {
            if self.spans.len() >= SPAN_CAP {
                self.dropped += 1;
                continue;
            }
            if s.parent != 0 {
                s.parent += base;
            }
            self.spans.push(s);
        }
    }

    /// Writes the artifact `file` under [`OUT_DIR`] and says, for the run's
    /// notes, how that went.
    pub fn save(&self, file: &str) -> String {
        let path = &Path::new(OUT_DIR).join(file);
        match self.write_jsonl(path) {
            Ok(()) => format!(
                "{} spans -> {} ({} dropped past the cap)",
                self.spans.len(),
                path.display(),
                self.dropped
            ),
            Err(e) => format!("could not write {}: {e}", path.display()),
        }
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn records_parent_links_and_rebases_on_absorb() {
        let epoch = Instant::now();
        let t = |us: u64| epoch + Duration::from_micros(us);
        let mut a = SpanLog::new(epoch);
        let root = a.record("bench.commit", t(0), t(100), 0, 7);
        a.record("splitfs.write_at", t(10), t(20), root, 7);
        let mut b = SpanLog::new(epoch);
        let root_b = b.record("bench.commit", t(200), t(300), 0, 8);
        b.record("splitfs.fsync", t(250), t(290), root_b, 8);
        a.absorb(b);
        let spans = &a.spans;
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, 1);
        assert_eq!(spans[3].parent, 3, "absorbed child points at absorbed root");
        assert_eq!(spans[3].start_ns, 250_000);
        assert_eq!(spans[3].op, 8);
        // Roots of 100 us each with 10 us and 40 us of children.
        assert_eq!(a.mean_root_self_ns(), Some(75_000.0));
    }
}
