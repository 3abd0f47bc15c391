//! Tiny std-only blocking HTTP scrape endpoint.
//!
//! One accept-loop thread, one request per connection, five routes:
//!
//! * `GET /metrics`  — Prometheus text exposition (for a scrape job);
//! * `GET /snapshot` — the full [`crate::TelemetrySnapshot`] as JSON;
//! * `GET /trace`    — the span ring rendered as a Chrome trace document;
//! * `GET /health`   — the SLO plane's [`crate::HealthReport`] as JSON, 200
//!   while healthy/warning and **503 when breached** (so a plain HTTP
//!   health check needs no JSON parsing); without a plane, the monitor's
//!   verdict, and 404 when there is no monitor either. The handler calls [`SloPlane::maybe_tick`], so the
//!   report is fresh but hammering the endpoint cannot shrink SLO windows.
//!   When an [`crate::OnlineMonitor`] is attached to the telemetry handle,
//!   an invariant violation also flips `/health` to 503 — durability-
//!   promise breaks outrank latency in a health check;
//! * `GET /invariants` — the online monitor's [`crate::MonitorReport`] as
//!   JSON (200 clean, 503 violating, 404 when no monitor is attached).
//!
//! This is deliberately not a real HTTP server: no keep-alive, no TLS, no
//! chunking — a Prometheus scraper and `curl` both speak enough HTTP/1.0 for
//! this to be fine, and the zero-dependency policy of the crate rules out
//! anything heavier. Opt-in via config (e.g. the splitfs testbed's
//! `scrape_addr`); nothing binds a socket unless asked.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::export::{chrome, prometheus};
use crate::{SloPlane, Telemetry};

/// A running scrape endpoint; dropping it stops the accept loop.
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Binds `addr` (use port 0 for an ephemeral port; see [`Self::addr`])
    /// and serves `tel` until the returned server is dropped. `/health`
    /// serves `plane`'s report, or the monitor's verdict without one.
    /// `/invariants` serves whatever [`crate::OnlineMonitor`] is attached to
    /// `tel` at request time (the monitor rides on the telemetry handle, so
    /// it needs no parameter here).
    pub fn start(
        tel: Telemetry,
        addr: &str,
        plane: Option<SloPlane>,
    ) -> std::io::Result<ScrapeServer> {
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
                        let _ = serve_one(stream, &tel, plane.as_ref());
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

fn serve_one(
    mut stream: TcpStream,
    tel: &Telemetry,
    plane: Option<&SloPlane>,
) -> std::io::Result<()> {
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
            // An invariant violation outranks latency: the monitor watching
            // durability promises flips /health regardless of SLO burn.
            let violating = tel.online_monitor().is_some_and(|m| m.violating());
            match plane {
                Some(plane) => {
                    let report = plane.maybe_tick();
                    let status = if report.breached() || violating {
                        "503 Service Unavailable"
                    } else {
                        "200 OK"
                    };
                    (status, "application/json", report.to_json())
                }
                None => match tel.online_monitor() {
                    // No SLO plane but a monitor: health is the monitor's
                    // verdict (see /invariants for the full report).
                    Some(m) => {
                        let status = if violating {
                            "503 Service Unavailable"
                        } else {
                            "200 OK"
                        };
                        (status, "application/json", m.render_json())
                    }
                    None => (
                        "404 Not Found",
                        "text/plain; charset=utf-8",
                        "no SLO plane attached\n".to_string(),
                    ),
                },
            }
        }
        "/invariants" => match tel.online_monitor() {
            Some(m) => {
                let status = if m.violating() {
                    "503 Service Unavailable"
                } else {
                    "200 OK"
                };
                (status, "application/json", m.render_json())
            }
            None => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no online monitor attached\n".to_string(),
            ),
        },
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; try /metrics, /snapshot, /trace, /health, /invariants\n".to_string(),
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
    fn health_endpoint_reflects_slo_status() {
        use crate::SloSpec;
        use std::time::Duration;

        let tel = Telemetry::new();
        // /health without a plane (or a monitor) is a 404.
        let bare = ScrapeServer::start(tel.clone(), "127.0.0.1:0", None).unwrap();
        let (status, _) = get(bare.addr(), "/health");
        assert!(status.contains("404"), "{status}");
        drop(bare);

        let plane = SloPlane::new(tel.clone());
        plane.set_min_tick_gap(Duration::from_nanos(0));
        plane.add(SloSpec::new("lat", "lat", 50, 0.1).windows(1, 1));
        let server = ScrapeServer::start(tel.clone(), "127.0.0.1:0", Some(plane)).unwrap();

        let h = tel.histogram("lat");
        h.record(10);
        let (status, body) = get(server.addr(), "/health");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"status\": \"healthy\""), "{body}");

        for _ in 0..10 {
            h.record(60);
        }
        let (status, body) = get(server.addr(), "/health");
        assert!(status.contains("503"), "{status}");
        assert!(body.contains("\"status\": \"breached\""), "{body}");
        // The tick also exported burn gauges, visible on /metrics.
        let (_, metrics) = get(server.addr(), "/metrics");
        assert!(metrics.contains("splitft_slo_status 2"), "{metrics}");
        drop(server);
    }

    #[test]
    fn invariants_endpoint_reflects_monitor_verdict() {
        use crate::OnlineMonitor;

        let tel = Telemetry::new();
        // Without a monitor /invariants is a 404.
        let bare = ScrapeServer::start(tel.clone(), "127.0.0.1:0", None).unwrap();
        let (status, _) = get(bare.addr(), "/invariants");
        assert!(status.contains("404"), "{status}");
        drop(bare);

        let monitor = OnlineMonitor::attach(&tel, 2);
        let server = ScrapeServer::start(tel.clone(), "127.0.0.1:0", None).unwrap();
        let (status, body) = get(server.addr(), "/invariants");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"status\": \"ok\""), "{body}");
        // /health with no SLO plane serves the monitor verdict.
        let (status, _) = get(server.addr(), "/health");
        assert!(status.contains("200"), "{status}");

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
        let (status, body) = get(server.addr(), "/invariants");
        assert!(status.contains("503"), "{status}");
        assert!(body.contains("catch-up"), "{body}");
        let (status, _) = get(server.addr(), "/health");
        assert!(status.contains("503"), "{status}");
        drop(server);
    }

    #[test]
    fn monitor_violation_flips_health_despite_healthy_slos() {
        use crate::{OnlineMonitor, SloSpec};
        use std::time::{Duration, Instant};

        let tel = Telemetry::new();
        let plane = SloPlane::new(tel.clone());
        plane.set_min_tick_gap(Duration::from_nanos(0));
        plane.add(SloSpec::new("lat", "lat", 50, 0.1).windows(1, 1));
        tel.histogram("lat").record(10); // comfortably healthy
        let monitor = OnlineMonitor::attach(&tel, 2);
        let server = ScrapeServer::start(tel.clone(), "127.0.0.1:0", Some(plane)).unwrap();
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
        // The body is still the SLO report; /invariants has the details.
        assert!(body.contains("\"slos\""), "{body}");
        drop(server);
    }

    /// Every observability route scraped concurrently while the
    /// telemetry handle is under churn — no torn JSON, no deadlock, every
    /// request answered.
    #[test]
    fn concurrent_scrapes_of_all_routes_stay_consistent() {
        use crate::{OnlineMonitor, SloPlane};
        use std::sync::atomic::AtomicBool;
        use std::time::Instant;

        let tel = Telemetry::new();
        let plane = SloPlane::new(tel.clone());
        let monitor = OnlineMonitor::attach(&tel, 2);
        let server = ScrapeServer::start(tel.clone(), "127.0.0.1:0", Some(plane)).unwrap();
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

        let scrapers: Vec<_> = ["/metrics", "/health", "/invariants", "/snapshot"]
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
}
