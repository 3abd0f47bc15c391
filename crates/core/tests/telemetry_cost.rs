//! Two timing probes of a synchronous record's own CPU, in one process.
//!
//! What telemetry costs: two logs on one zero-latency cluster, one with
//! `Telemetry::new()` and one with `Telemetry::disabled()`, take 128-B
//! `record`s in alternating rounds. With no modelled time, a record's wall
//! time is its own CPU, so the ratio of the two medians is what the enabled
//! path costs.
//!
//! Our CPU per record: a calibrated 3-peer log takes 128-B `record`s, each
//! timed, and the median less what the model charges a record — its local
//! copy and its header's flight, which the rest runs inside — is the CPU
//! that runs after the modelled landing.
//!
//! Timing is judged by no test: run them on purpose, in release, pinned to
//! one CPU as splitbench pins its runs,
//!
//! ```text
//! taskset -c 1 cargo test --release -p ncl --test telemetry_cost -- --ignored --nocapture
//! ```

use std::time::{Duration, Instant};

use ncl::{Controller, NclConfig, NclLib, NclRegistry, Peer};
use sim::Cluster;
use telemetry::Telemetry;

const ROUNDS: usize = 10;
const RECORDS: u64 = 20_000;
const PAYLOAD: usize = 128;
/// The log wraps its writes around this many slots.
const SLOTS: u64 = 4_096;

/// The median, minimum and maximum of `xs`.
fn spread(xs: &mut [f64]) -> (f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    ((xs[(n - 1) / 2] + xs[n / 2]) / 2.0, xs[0], xs[n - 1])
}

#[test]
#[ignore = "a timing probe: run it on purpose, in release"]
fn telemetry_on_over_off_for_a_synchronous_record() {
    let cluster = Cluster::new();
    let peers_config = NclConfig::zero();
    let controller = Controller::start(&cluster, Telemetry::disabled());
    let registry = NclRegistry::with_telemetry(Telemetry::disabled());
    let _peers: Vec<Peer> = (0..3)
        .map(|i| {
            let name = format!("p{i}");
            Peer::start(
                &cluster,
                &name,
                64 << 20,
                &peers_config,
                &controller,
                &registry,
            )
        })
        .collect();
    let files = [Telemetry::new(), Telemetry::disabled()].map(|telemetry| {
        let config = NclConfig {
            telemetry,
            ..NclConfig::zero()
        };
        let app = if config.telemetry.is_enabled() {
            "on"
        } else {
            "off"
        };
        let node = cluster.add_node(app);
        let lib = NclLib::new(&cluster, node, app, config, &controller, &registry).unwrap();
        (lib.create("wal", (SLOTS as usize) * PAYLOAD).unwrap(), lib)
    });
    let payload = [7u8; PAYLOAD];
    let run = |side: usize, n: u64| {
        let file = &files[side].0;
        let start = Instant::now();
        for i in 0..n {
            file.record((i % SLOTS) * PAYLOAD as u64, &payload).unwrap();
        }
        start.elapsed().as_nanos() as f64 / n as f64
    };
    for side in [0, 1] {
        run(side, RECORDS / 4);
    }
    let mut ns = [Vec::new(), Vec::new()];
    for round in 0..ROUNDS {
        // Alternate which side goes first, so neither always follows the
        // other's cache state.
        for side in [round % 2, 1 - round % 2] {
            ns[side].push(run(side, RECORDS));
        }
    }
    let [(on, on_lo, on_hi), (off, off_lo, off_hi)] = ns.map(|mut xs| spread(&mut xs));
    println!("128-B synchronous record on zero(3), {ROUNDS} alternating rounds of {RECORDS}:");
    println!("  telemetry on:  median {on:.0} ns (range {on_lo:.0}-{on_hi:.0})");
    println!("  telemetry off: median {off:.0} ns (range {off_lo:.0}-{off_hi:.0})");
    println!("  on/off: {:.3}", on / off);
}

#[test]
#[ignore = "a timing probe: run it on purpose, in release"]
fn our_cpu_per_calibrated_synchronous_record() {
    const TIMED: usize = 200_000;
    let config = NclConfig::calibrated();
    let cluster = Cluster::new();
    let controller = Controller::start(&cluster, config.telemetry.clone());
    let registry = NclRegistry::with_telemetry(config.telemetry.clone());
    let _peers: Vec<Peer> = (0..3)
        .map(|i| {
            Peer::start(
                &cluster,
                &format!("p{i}"),
                64 << 20,
                &config,
                &controller,
                &registry,
            )
        })
        .collect();
    let node = cluster.add_node("app");
    let lib = NclLib::new(
        &cluster,
        node,
        "app",
        config.clone(),
        &controller,
        &registry,
    )
    .unwrap();
    let file = lib.create("wal", (SLOTS as usize) * PAYLOAD).unwrap();
    let payload = [7u8; PAYLOAD];
    let mut ns: Vec<u64> = Vec::with_capacity(TIMED);
    for i in 0..(TIMED / 4 + TIMED) as u64 {
        let start = Instant::now();
        file.record((i % SLOTS) * PAYLOAD as u64, &payload).unwrap();
        ns.push(start.elapsed().as_nanos() as u64);
    }
    ns.drain(..TIMED / 4);
    ns.sort_unstable();
    let (p50, p90) = (ns[ns.len() / 2], ns[ns.len() * 9 / 10]);
    // The model's share: the copy, then the data write and the header
    // behind it on one queue pair — one propagation, each request's
    // serialization as the pipe truncates it.
    let copy = config.local_copy.cost(PAYLOAD);
    let header = config.rdma.cost(ncl::layout::HEADER_WIRE_SIZE) - config.rdma.base;
    let flight = config.rdma.cost(PAYLOAD) + header;
    let modelled = (copy + flight).as_nanos() as u64;
    println!("128-B synchronous record on calibrated(3), {TIMED} timed:");
    println!("  p50 {p50} ns, p90 {p90} ns (each timed by two clock reads)");
    println!(
        "  modelled {modelled} ns: copy {} + flight {}",
        copy.as_nanos(),
        flight.as_nanos()
    );
    println!(
        "  our CPU per record (p50 - modelled): {} ns",
        p50.saturating_sub(modelled)
    );
    assert!(
        Duration::from_nanos(p50) >= copy + flight,
        "a record returns after its model"
    );
}
