//! What telemetry costs a synchronous record, measured in one process:
//! two logs on one zero-latency cluster, one with `Telemetry::new()` and one
//! with `Telemetry::disabled()`, take 128-B `record`s in alternating rounds.
//! With no modelled time, a record's wall time is its own CPU, so the ratio
//! of the two medians is what the enabled path costs. Timing is judged by
//! no test: run it on purpose, in release,
//!
//! ```text
//! cargo test --release -p ncl --test telemetry_cost -- --ignored --nocapture
//! ```

use std::time::Instant;

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
    let controller = Controller::start_with_telemetry(&cluster, Telemetry::disabled());
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
