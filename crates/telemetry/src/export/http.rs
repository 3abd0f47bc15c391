//! Tiny std-only blocking HTTP scrape endpoint, and the [`Health`] judge
//! behind its `/health` route.
//!
//! One accept-loop thread, one request per connection, four routes:
//!
//! * `GET /metrics`  — Prometheus text exposition (for a scrape job);
//! * `GET /snapshot` — the full [`crate::TelemetrySnapshot`] as JSON;
//! * `GET /trace`    — the span ring rendered as a Chrome trace document;
//! * `GET /health`   — one [`Verdict`] as JSON, **503** when it fails and
//!   200 otherwise, so a plain HTTP health check needs no JSON parsing.
//!
//! A verdict fails when the attached [`crate::OnlineMonitor`] has confirmed
//! a violation or a latency objective `(histogram, threshold_ns, budget)`
//! fails: over its histogram's growth since the previous verdict
//! ([`Histogram::diff`]), more than `budget × total` samples lay above
//! `threshold_ns` (bucket granularity, ~3%). A sample at the threshold is
//! good and an idle window passes.
//!
//! This is deliberately not a real HTTP server: no keep-alive, no TLS, no
//! chunking — a Prometheus scraper and `curl` both speak enough HTTP/1.0 for
//! this to be fine, and the zero-dependency policy of the crate rules out
//! anything heavier. Opt-in via config (e.g. the splitfs testbed's
//! `scrape_addr`); nothing binds a socket unless asked.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::export::{chrome, prometheus};
use crate::{json_escape, FlightRecorder, Histogram, MonitorReport, Telemetry};

/// One latency objective, judged over the window since the previous verdict.
#[derive(Debug, Clone, Default)]
pub struct Objective {
    /// Registry histogram the objective watches.
    pub histogram: String,
    /// Samples at or below this are good.
    pub threshold_ns: u64,
    /// Allowed bad-sample fraction.
    pub budget: f64,
    /// Samples in the window.
    pub total: u64,
    /// Samples in the window above the threshold.
    pub bad: u64,
}

/// One `/health` verdict.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Every objective, in the order added.
    pub objectives: Vec<Objective>,
    /// The online monitor's report, when one is attached.
    pub invariants: Option<MonitorReport>,
}

impl Verdict {
    /// True when no objective had more than `budget` of its window's
    /// samples bad and no invariant is violated.
    pub fn ok(&self) -> bool {
        let met = |o: &Objective| o.bad as f64 <= o.budget * o.total as f64;
        self.objectives.iter().all(met) && self.invariants.as_ref().is_none_or(MonitorReport::ok)
    }

    /// The `/health` body: one JSON object.
    pub fn to_json(&self) -> String {
        let objectives = self.objectives.iter().map(|o| {
            format!(
                "{{\"histogram\": \"{}\", \"threshold_ns\": {}, \"budget\": {:.6}, \"total\": {}, \"bad\": {}}}",
                json_escape(&o.histogram), o.threshold_ns, o.budget, o.total, o.bad
            )
        });
        let invariants = self.invariants.as_ref().map(MonitorReport::to_json);
        format!(
            "{{\"status\": \"{}\", \"objectives\": [{}], \"invariants\": {}}}",
            if self.ok() { "ok" } else { "failing" },
            objectives.collect::<Vec<_>>().join(", "),
            invariants.as_deref().unwrap_or("null")
        )
    }
}

/// Each objective with its histogram at the previous verdict, and whether
/// that verdict failed.
type State = (Vec<(Objective, Histogram)>, bool);

/// The health judge over one [`Telemetry`] handle. Cloning shares state;
/// verdicts are serialized, so every sample lands in exactly one window.
#[derive(Clone)]
pub struct Health {
    tel: Telemetry,
    /// Where a transition into failing dumps the flight recorder.
    dump: Option<(FlightRecorder, PathBuf)>,
    state: Arc<Mutex<State>>,
}

impl Health {
    /// A judge with no objectives. With `dump`, each transition into
    /// failing writes `<dir>/trace-flight-health.jsonl`.
    pub fn new(tel: Telemetry, dump: Option<(FlightRecorder, PathBuf)>) -> Self {
        let state = Arc::default();
        Health { tel, dump, state }
    }

    /// Adds an objective, judged from the next verdict on.
    pub fn add(&self, histogram: &str, threshold_ns: u64, budget: f64) {
        let objective = Objective {
            histogram: histogram.to_string(),
            threshold_ns,
            budget,
            ..Objective::default()
        };
        let mut state = self.state.lock().expect("health poisoned");
        state.0.push((objective, Histogram::new()));
    }

    /// Judges every objective over the window since the previous verdict,
    /// and the monitor's invariants.
    pub fn verdict(&self) -> Verdict {
        // Snapshot under the lock: an older snapshot would re-count a window.
        let mut state = self.state.lock().expect("health poisoned");
        let hists = self.tel.histograms_full();
        for (o, last) in &mut state.0 {
            if let Some((_, current)) = hists.iter().find(|(n, _)| *n == o.histogram) {
                let window = current.diff(last);
                o.total = window.count();
                o.bad = o.total.saturating_sub(window.count_at_most(o.threshold_ns));
                *last = current.clone();
            }
        }
        let verdict = Verdict {
            objectives: state.0.iter().map(|(o, _)| o.clone()).collect(),
            invariants: self.tel.online_monitor().map(|m| m.report()),
        };
        let entered = !verdict.ok() && !state.1;
        state.1 = !verdict.ok();
        drop(state);
        if let (true, Some((recorder, dir))) = (entered, &self.dump) {
            let _ = recorder.dump_into(dir, "health", "health-503");
        }
        verdict
    }
}

/// A running scrape endpoint; dropping it stops the accept loop.
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Binds `addr` (use port 0 for an ephemeral port; see [`Self::addr`])
    /// and serves `tel` until the returned server is dropped. `/health`
    /// serves `health`'s verdicts, or a judge with no objectives without
    /// one (the monitor rides on the telemetry handle, so it needs no
    /// parameter here).
    pub fn start(
        tel: Telemetry,
        addr: &str,
        health: Option<Health>,
    ) -> std::io::Result<ScrapeServer> {
        let health = health.unwrap_or_else(|| Health::new(tel.clone(), None));
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("telemetry-scrape".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // Serve inline: scrapes are rare and tiny, and one
                        // thread keeps the footprint honest.
                        let _ = serve_one(stream, &tel, &health);
                    }
                }
            })?;
        Ok(ScrapeServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn serve_one(mut stream: TcpStream, tel: &Telemetry, health: &Health) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Read until the end of the request head (or the buffer fills); only the
    // request line matters.
    let mut buf = [0u8; 2048];
    let mut used = 0;
    while used < buf.len() {
        match stream.read(&mut buf[used..]) {
            Ok(0) => break,
            Ok(n) => {
                used += n;
                if buf[..used].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..used]);
    let path = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("/");

    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            // The version parameter is what Prometheus expects from a
            // text-format exposition.
            "text/plain; version=0.0.4; charset=utf-8",
            prometheus::render(tel),
        ),
        "/snapshot" => ("200 OK", "application/json", tel.snapshot().render_json()),
        "/trace" => ("200 OK", "application/json", chrome::render(&tel.spans())),
        "/health" => {
            let verdict = health.verdict();
            let status = if verdict.ok() {
                "200 OK"
            } else {
                "503 Service Unavailable"
            };
            (status, "application/json", verdict.to_json())
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; try /metrics, /snapshot, /trace, /health\n".to_string(),
        ),
    };
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans;
    use crate::tests::record;
    use std::io::BufRead;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        let status = head.lines().next().unwrap().to_string();
        (status, body.to_string())
    }

    #[test]
    fn scrape_endpoint_serves_metrics_over_a_real_socket() {
        let tel = Telemetry::new();
        tel.counter("ncl.flush.submit").add(7);
        tel.histogram("ncl.record.e2e").record(123_456);
        let server = ScrapeServer::start(tel.clone(), "127.0.0.1:0", None).unwrap();

        let (status, body) = get(server.addr(), "/metrics");
        assert!(status.contains("200"), "{status}");
        prometheus::validate(&body).unwrap();
        assert!(body.contains("splitft_ncl_flush_submit 7"));
        assert!(body.contains("splitft_ncl_record_e2e_ns_count 1"));

        // Metrics recorded after start show up on the next scrape.
        tel.counter("ncl.flush.submit").add(1);
        let (_, body) = get(server.addr(), "/metrics");
        assert!(body.contains("splitft_ncl_flush_submit 8"));

        let (status, body) = get(server.addr(), "/snapshot");
        assert!(status.contains("200"));
        assert!(body.contains("\"counters\""));

        let (status, body) = get(server.addr(), "/trace");
        assert!(status.contains("200"));
        chrome::validate(&body).unwrap();

        let (status, _) = get(server.addr(), "/nope");
        assert!(status.contains("404"));
        drop(server);
    }

    #[test]
    fn health_endpoint_judges_objectives() {
        let tel = Telemetry::new();
        // /health with no objectives and no monitor is a plain 200.
        let bare = ScrapeServer::start(tel.clone(), "127.0.0.1:0", None).unwrap();
        let (status, body) = get(bare.addr(), "/health");
        assert!(status.contains("200"), "{status}");
        assert_eq!(
            body,
            "{\"status\": \"ok\", \"objectives\": [], \"invariants\": null}"
        );
        drop(bare);

        let health = Health::new(tel.clone(), None);
        health.add("lat", 50, 0.1);
        let server = ScrapeServer::start(tel.clone(), "127.0.0.1:0", Some(health)).unwrap();

        let h = tel.histogram("lat");
        h.record(10);
        let (status, body) = get(server.addr(), "/health");
        assert!(status.contains("200"), "{status}");
        assert!(body.starts_with("{\"status\": \"ok\""), "{body}");

        for _ in 0..10 {
            h.record(60);
        }
        let (status, body) = get(server.addr(), "/health");
        assert!(status.contains("503"), "{status}");
        assert!(body.starts_with("{\"status\": \"failing\""), "{body}");
        assert!(
            body.contains("\"histogram\": \"lat\", \"threshold_ns\": 50, \"budget\": 0.100000, \"total\": 10, \"bad\": 10"),
            "{body}"
        );
        drop(server);
    }

    #[test]
    fn health_body_carries_the_invariant_verdict() {
        use crate::OnlineMonitor;

        let tel = Telemetry::new();
        let monitor = OnlineMonitor::attach(&tel, 2);
        let server = ScrapeServer::start(tel.clone(), "127.0.0.1:0", None).unwrap();
        let (status, body) = get(server.addr(), "/health");
        assert!(status.contains("200"), "{status}");
        assert!(
            body.contains("\"invariants\": {\"status\": \"ok\""),
            "{body}"
        );

        // Seed an ap-map-before-catch-up ordering break: a repair whose
        // ap-map phase has no catch-up before it.
        let (now, trace) = (std::time::Instant::now(), tel.next_trace_id());
        let ap_map = (trace, tel.next_trace_id(), trace);
        record(
            &tel,
            ap_map,
            spans::NCL_REPAIR_AP_MAP,
            "app/f",
            2,
            (now, now),
        );
        record(
            &tel,
            (trace, trace, 0),
            spans::NCL_REPAIR,
            "app/f",
            2,
            (now, now),
        );
        assert!(monitor.violating());
        let (status, body) = get(server.addr(), "/health");
        assert!(status.contains("503"), "{status}");
        assert!(
            body.contains("\"invariants\": {\"status\": \"violating\""),
            "{body}"
        );
        assert!(body.contains("ap-map-order"), "{body}");
        assert!(body.contains("catch-up"), "{body}");
        drop(server);
    }

    #[test]
    fn monitor_violation_flips_health_despite_met_objectives() {
        use crate::OnlineMonitor;
        use std::time::Instant;

        let tel = Telemetry::new();
        let health = Health::new(tel.clone(), None);
        health.add("lat", 50, 0.1);
        tel.histogram("lat").record(10); // comfortably within objective
        let monitor = OnlineMonitor::attach(&tel, 2);
        let server = ScrapeServer::start(tel.clone(), "127.0.0.1:0", Some(health)).unwrap();
        let (status, _) = get(server.addr(), "/health");
        assert!(status.contains("200"), "{status}");

        // The ap-map of one scope published at epoch 5, then at 3.
        for epoch in [5, 3] {
            let (now, trace) = (Instant::now(), tel.next_trace_id());
            let ap_map = (trace, tel.next_trace_id(), trace);
            record(
                &tel,
                ap_map,
                spans::NCL_CREATE_AP_MAP,
                "app/f",
                epoch,
                (now, now),
            );
            let root = (trace, trace, 0);
            record(&tel, root, spans::NCL_CREATE, "app/f", epoch, (now, now));
        }
        assert!(monitor.violating());
        let (status, body) = get(server.addr(), "/health");
        assert!(status.contains("503"), "{status}");
        // One body: the objective, met, beside the invariant that is not.
        assert!(body.contains("\"histogram\": \"lat\""), "{body}");
        assert!(body.contains("ap-map-monotone"), "{body}");
        drop(server);
    }

    /// Every observability route scraped concurrently while the
    /// telemetry handle is under churn — no torn JSON, no deadlock, every
    /// request answered.
    #[test]
    fn concurrent_scrapes_of_all_routes_stay_consistent() {
        use crate::OnlineMonitor;
        use std::sync::atomic::AtomicBool;
        use std::time::Instant;

        let tel = Telemetry::new();
        let health = Health::new(tel.clone(), None);
        health.add("ncl.record.e2e", 5_000_000, 0.05);
        let monitor = OnlineMonitor::attach(&tel, 2);
        let server = ScrapeServer::start(tel.clone(), "127.0.0.1:0", Some(health)).unwrap();
        let addr = server.addr();

        // Writer thread: emit clean write traces + facts,
        // exercising monitor, rings, and registry while scrapes run.
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let tel = tel.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let scope = crate::intern_scope("app/f");
                let mut epoch = 1u64;
                while !stop.load(Ordering::Acquire) {
                    let t0 = Instant::now();
                    let trace = tel.next_trace_id();
                    let child = || (trace, tel.next_trace_id(), trace);
                    for peer in ["peer-0", "peer-1"] {
                        let peer = crate::intern_scope(peer);
                        let at = (t0, Instant::now());
                        record(&tel, child(), spans::NCL_WIRE_PEER, peer, epoch, at);
                    }
                    for name in [spans::NCL_STAGE, spans::NCL_DOORBELL] {
                        record(&tel, child(), name, scope, epoch, (t0, Instant::now()));
                    }
                    let root = (trace, trace, 0);
                    record(
                        &tel,
                        root,
                        spans::NCL_WRITE,
                        scope,
                        epoch,
                        (t0, Instant::now()),
                    );
                    epoch += 1;
                    tel.fact(spans::EPOCH_BUMP, "peer-0", epoch, "");
                    tel.histogram("ncl.record.e2e").record(1_000);
                }
            })
        };

        let scrapers: Vec<_> = ["/metrics", "/health", "/trace", "/snapshot"]
            .into_iter()
            .map(|path| {
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let (status, body) = get(addr, path);
                        assert!(
                            status.contains("200") || status.contains("503"),
                            "{path}: {status}"
                        );
                        if path == "/metrics" {
                            prometheus::validate(&body).unwrap();
                        } else {
                            // Untorn JSON: one object, braces balance.
                            assert!(
                                body.starts_with('{') && body.trim_end().ends_with('}'),
                                "{path}: torn body {body:?}"
                            );
                        }
                    }
                })
            })
            .collect();
        for s in scrapers {
            s.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        writer.join().unwrap();
        assert_eq!(monitor.violation_count(), 0, "{:?}", monitor.report());
        drop(server);
    }

    #[test]
    fn content_length_matches_body() {
        let tel = Telemetry::new();
        tel.counter("c").inc();
        let server = ScrapeServer::start(tel, "127.0.0.1:0", None).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let mut line = String::new();
        let mut content_length = 0usize;
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
            if line == "\r\n" {
                break;
            }
        }
        let mut body = String::new();
        reader.read_to_string(&mut body).unwrap();
        assert_eq!(body.len(), content_length);
    }

    #[test]
    fn the_worst_objective_decides_each_window() {
        let tel = Telemetry::new();
        let health = Health::new(tel.clone(), None);
        health.add("a", 50, 0.1);
        health.add("b", 50, 0.1);
        let hists = [tel.histogram("a"), tel.histogram("b")];
        // Per window: the samples recorded into `a` and `b` (all in the
        // histogram's exact region), then each objective's (total, bad)
        // and the verdict.
        type Row = ([&'static [u64]; 2], [(u64, u64); 2], bool);
        let rows: [Row; 5] = [
            // Idle: an empty window passes.
            ([&[], &[]], [(0, 0), (0, 0)], true),
            // A sample exactly at the threshold is good.
            ([&[50, 49], &[10]], [(2, 0), (1, 0)], true),
            // Bad samples exactly at the budget still meet it.
            (
                [&[10, 10, 10, 10, 10, 10, 10, 10, 10, 60], &[]],
                [(10, 1), (0, 0)],
                true,
            ),
            // One failing objective fails the verdict, whatever the other.
            ([&[10], &[60, 60]], [(1, 0), (2, 2)], false),
            // The window forgets the previous one.
            ([&[10], &[10]], [(1, 0), (1, 0)], true),
        ];
        for (samples, want, ok) in rows {
            for (h, samples) in hists.iter().zip(samples) {
                samples.iter().for_each(|&v| h.record(v));
            }
            let verdict = health.verdict();
            let got: Vec<_> = verdict
                .objectives
                .iter()
                .map(|o| (o.total, o.bad))
                .collect();
            assert_eq!(got, want);
            assert_eq!(verdict.ok(), ok, "{}", verdict.to_json());
            assert!(verdict.invariants.is_none());
        }
    }

    /// Verdicts race live writers and each other: each window is a diff of
    /// cumulative snapshots, so every sample lands in exactly one window,
    /// none double-counted, none lost, however verdicts interleave with
    /// recording.
    #[test]
    fn concurrent_writers_conserve_samples_across_verdicts() {
        use std::sync::atomic::AtomicU64;
        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 5_000;
        let tel = Telemetry::new();
        let h = tel.histogram("lat");
        let health = Health::new(tel.clone(), None);
        health.add("lat", 1_500, 0.1);
        let total = |v: Verdict| v.objectives[0].total;
        let seen = AtomicU64::new(0);
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        h.record(1_000 + (w as u64 * PER_WRITER + i) % 977);
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..50 {
                        seen.fetch_add(total(health.verdict()), Ordering::Relaxed);
                        std::thread::yield_now();
                    }
                });
            }
        });
        // One last verdict takes whatever the racing ones missed.
        let seen = seen.into_inner() + total(health.verdict());
        assert_eq!(seen, WRITERS as u64 * PER_WRITER);
    }

    #[test]
    fn the_dump_fires_once_per_transition_into_failing() {
        let tel = Telemetry::new();
        let dir = std::env::temp_dir().join(format!("health-dump-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = FlightRecorder::with_limits(tel.clone(), 32, 2);
        let health = Health::new(tel.clone(), Some((recorder, dir.clone())));
        health.add("h", 50, 0.1);
        let h = tel.histogram("h");
        let path = dir.join("trace-flight-health.jsonl");
        // Failing, failing again, passing, failing: two transitions.
        for (bad, good, dumped) in [(1, 0, true), (1, 0, false), (0, 100, false), (3, 0, true)] {
            (0..bad).for_each(|_| h.record(60));
            (0..good).for_each(|_| h.record(10));
            let verdict = health.verdict();
            assert_eq!(verdict.ok(), bad == 0);
            assert_eq!(path.exists(), dumped, "{}", verdict.to_json());
            if dumped {
                let text = std::fs::read_to_string(&path).unwrap();
                assert!(text.contains("health-503"), "{text}");
                std::fs::remove_file(&path).unwrap();
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
