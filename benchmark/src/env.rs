//! The deployment every workload runs on and process-level measurements.

use std::time::{Duration, Instant};

use splitfs::{OpenOptions, SplitFs, Testbed, TestbedConfig};

use crate::stats::median;

/// Wall time of a run's phases, for the human-readable notes: where a run
/// that took long spent it.
pub struct Phases {
    last: Instant,
    log: Vec<String>,
}

impl Phases {
    pub fn start() -> Self {
        Phases {
            last: Instant::now(),
            log: Vec::new(),
        }
    }

    /// Closes the phase that has been running since the last mark.
    pub fn mark(&mut self, name: &str) {
        let now = Instant::now();
        self.log
            .push(format!("{name} {:.2}", (now - self.last).as_secs_f64()));
        self.last = now;
    }

    pub fn note(&self) -> String {
        format!("phases (s): {}", self.log.join(" | "))
    }
}

/// The deployment every workload runs against, with a teardown that cannot
/// hang. `Testbed` drops its controller before its peers; a peer's GC thread
/// that calls the controller in between waits out the 30 s RPC timeout
/// before its peer can join it. Stopping the GC threads first closes that
/// window.
pub struct Deployment(Testbed);

impl std::ops::Deref for Deployment {
    type Target = Testbed;

    fn deref(&self) -> &Testbed {
        &self.0
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        for peer in &mut self.0.peers {
            peer.stop_gc();
        }
    }
}

/// Starts the shipping configuration: `TestbedConfig::calibrated(5)`.
pub fn testbed() -> Deployment {
    Deployment(Testbed::start(TestbedConfig::calibrated(5)))
}

/// What a workload drives (a log, a store) and the deployment it runs on.
/// Fields drop in this order: the subject's handles must go before the
/// services their shutdown talks to, or every release waits out an RPC
/// timeout.
pub struct Bed<T> {
    pub subject: T,
    pub tb: Deployment,
}

/// Sets up `times` times, each on a fresh deployment, and returns the last
/// one with how long every set-up took in seconds.
pub fn set_up<T>(times: usize, mut build: impl FnMut(&Testbed) -> T) -> (Bed<T>, Vec<f64>) {
    let mut seconds = Vec::new();
    let mut bed = None;
    for _ in 0..times {
        drop(bed.take());
        let t = Instant::now();
        let tb = testbed();
        let subject = build(&tb);
        seconds.push(t.elapsed().as_secs_f64());
        bed = Some(Bed { subject, tb });
    }
    (bed.expect("at least one set-up"), seconds)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, in clock ticks (USER_HZ is 100 on Linux).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// How much longer `sim::delay(request)` takes than requested: the median
/// overshoot of `n` calls, in nanoseconds. The calibrated models wait by
/// this primitive, so a large overshoot marks a noisy host run.
fn delay_overshoot_ns(request: Duration, n: usize) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            sim::delay(request);
            t.elapsed().saturating_sub(request).as_nanos() as f64
        })
        .collect();
    median(&samples)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What a traced run reads off the deployment and the host when its windows
/// are done: the cost of creating a 16 MiB O_NCL file, the peers' memory, the
/// DFS client's dirty bytes, the telemetry ring's drops and how exactly
/// `sim::delay` waits on this host right now.
pub fn deployment_state(tb: &Testbed, fs: &SplitFs, probe: OpenOptions, out: &mut crate::Values) {
    let t = Instant::now();
    drop(fs.open("create-probe", probe).expect("probe creates"));
    out.insert("ncl.create_ms", ms(t.elapsed()));
    fs.unlink("create-probe").expect("probe releases");
    out.insert(
        "ncl.peer.mem_used_bytes",
        tb.peers.iter().map(|p| p.mem_used()).sum::<u64>() as f64,
    );
    out.insert(
        "ncl.peer.regions",
        tb.peers.iter().map(|p| p.region_count()).sum::<usize>() as f64,
    );
    out.insert(
        "dfs.dirty_bytes_end",
        fs.dfs().map_or(0, |d| d.dirty_bytes()) as f64,
    );
    out.insert(
        "telemetry.trace_dropped",
        tb.config().ncl.telemetry.trace_dropped() as f64,
    );
    out.insert(
        "sim.delay_overshoot_ns",
        delay_overshoot_ns(Duration::from_nanos(1_500), 2_000),
    );
    out.insert(
        "sim.sleep_overshoot_ns",
        delay_overshoot_ns(Duration::from_micros(800), 50),
    );
}
