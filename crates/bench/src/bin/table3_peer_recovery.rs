//! Table 3 — latency breakdown of replacing a failed log peer.
//!
//! An NCL file holds a 60 MB log (as in the paper); one of its peers
//! crashes; the next record detects the failure and replaces the peer
//! inline. Reported phases match the paper's table: get new peer from the
//! controller, connect + set up the memory region, catch the new peer up,
//! update the ap-map.
//!
//! Paper: 3.6 ms / 64.9 ms / 23.4 ms / 4.7 ms, total ≈ 96.6 ms — dominated
//! by fresh memory-region registration, with the caveat that a pooled
//! pre-registered region makes the common case much cheaper (which the
//! pooled-allocation row demonstrates).
//!
//! Besides the console table, emits `BENCH_table3_peer_recovery.json`
//! (schema v2): one result row per variant plus a `recovery_phases`
//! section with the five-phase breakdown (detect → acquire → catch-up →
//! ap-map → first-ack). The middle three phases come from
//! [`repair_stats`]; the detect and first-ack edges are reconstructed from
//! the `ncl.repair` / `ncl.write` span roots of the tripping record.
//!
//! [`repair_stats`]: ncl::NclFile::repair_stats

use bench::{calibrated_testbed, f1, header, quick, row, BenchJson, RecoveryPhases, NCL_STAGES};
use ncl::NclLib;
use telemetry::spans;

/// Reconstructs the detect and first-ack edges of the five-phase breakdown
/// from the span ring: detect runs from the tripping record's staging until
/// the repair root opens; first-ack from the repair root closing until the
/// record's quorum ack (its `ncl.write` root closes). Falls back to the
/// wall-clock residual when a root is missing.
fn edge_phases(ring: &[telemetry::Span], wall_ns: u64, middle_ns: u64) -> (u64, u64) {
    let repair = ring
        .iter()
        .rev()
        .find(|s| s.name == spans::NCL_REPAIR && s.parent == 0);
    let write = ring
        .iter()
        .rev()
        .find(|s| s.name == spans::NCL_WRITE && s.parent == 0);
    let staged = write.and_then(|w| {
        ring.iter()
            .find(|s| s.trace == w.trace && s.name == spans::NCL_STAGE)
    });
    let detect = match (repair, staged) {
        (Some(r), Some(s)) => r.start_ns.saturating_sub(s.start_ns),
        _ => 0,
    };
    let first_ack = match (repair, write) {
        (Some(r), Some(w)) => w.end_ns.saturating_sub(r.end_ns),
        _ => wall_ns.saturating_sub(middle_ns + detect),
    };
    (detect, first_ack)
}

fn main() {
    let tb = calibrated_testbed();
    let log_bytes: usize = if quick() { 6 << 20 } else { 60 << 20 };
    let tel = tb.config().ncl.telemetry.clone();

    header(&format!(
        "Table 3: peer replacement breakdown for a {} log",
        bench::human_bytes(log_bytes as f64)
    ));
    row(&[
        "step".into(),
        "fresh (µs)".into(),
        "pooled (µs)".into(),
        "paper (µs)".into(),
    ]);

    let mut results = Vec::new();
    for pooled in [false, true] {
        let node = tb.add_app_node(&format!("t3-app-{pooled}"));
        let ncl = NclLib::new(
            &tb.cluster,
            node,
            &format!("t3-{pooled}"),
            tb.config().ncl.clone(),
            &tb.controller,
            &tb.registry,
        )
        .unwrap();
        let file = ncl.create("log", log_bytes).unwrap();
        // Fill the log.
        let chunk = vec![0x99u8; 1 << 20];
        let mut off = 0;
        while off < log_bytes {
            file.record(off as u64, &chunk).unwrap();
            off += chunk.len();
        }
        if pooled {
            // Warm the spare peers' pools: allocate-and-free a same-sized
            // region so the replacement hits the recycled-region fast path.
            let assigned = file.peer_names();
            let spare = tb
                .peers
                .iter()
                .find(|p| !assigned.contains(&p.name().to_string()))
                .expect("spare peer");
            let warm = ncl.create("warm", log_bytes).unwrap();
            // `warm` may or may not land on the spare; force it by creating
            // then releasing — freed regions go to each involved peer's pool.
            warm.release().unwrap();
            let _ = spare;
        }
        // Crash one assigned peer; the next record performs the repair. Its
        // `ncl.repair` root and its `ncl.write` root are the ring's last.
        let victim = file.peer_names()[0].clone();
        let victim_node = tb.peer_named(&victim).unwrap().node();
        tb.cluster.crash(victim_node);
        let sw = std::time::Instant::now();
        file.record(0, b"trigger-repair").unwrap();
        let wall = sw.elapsed();
        let stats = file.repair_stats();
        let ring = tel.spans();

        let ns = |d: std::time::Duration| d.as_nanos() as u64;
        let middle_ns =
            ns(stats.get_peer + stats.connect_mr + stats.catch_up + stats.update_ap_map);
        let (detect_ns, first_ack_ns) = edge_phases(&ring, ns(wall), middle_ns);
        let phases = RecoveryPhases {
            detect_ns,
            acquire_ns: ns(stats.get_peer + stats.connect_mr),
            catch_up_ns: ns(stats.catch_up),
            ap_map_ns: ns(stats.update_ap_map),
            first_ack_ns,
        };
        results.push((pooled, stats, wall, phases));
        tb.cluster.restart(victim_node);
    }

    let (_, fresh, fresh_wall, fresh_phases) = results
        .iter()
        .find(|(p, _, _, _)| !*p)
        .cloned()
        .expect("fresh run");
    let (_, pooled, pooled_wall, pooled_phases) = results
        .iter()
        .find(|(p, _, _, _)| *p)
        .cloned()
        .expect("pooled run");

    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    row(&[
        "get new peer".into(),
        f1(us(fresh.get_peer)),
        f1(us(pooled.get_peer)),
        "3586".into(),
    ]);
    row(&[
        "connect + MR".into(),
        f1(us(fresh.connect_mr)),
        f1(us(pooled.connect_mr)),
        "64871".into(),
    ]);
    row(&[
        "catch up".into(),
        f1(us(fresh.catch_up)),
        f1(us(pooled.catch_up)),
        "23368".into(),
    ]);
    row(&[
        "update ap-map".into(),
        f1(us(fresh.update_ap_map)),
        f1(us(pooled.update_ap_map)),
        "4734".into(),
    ]);
    row(&[
        "total (wall)".into(),
        f1(us(fresh_wall)),
        f1(us(pooled_wall)),
        "96559".into(),
    ]);
    println!(
        "\npaper shape: MR registration dominates a fresh replacement; a pooled \
         pre-registered region cuts it dramatically (§5.4.3's 'much lower' case)"
    );

    let mut json = BenchJson::new("table3_peer_recovery");
    for (name, wall) in [("fresh", fresh_wall), ("pooled", pooled_wall)] {
        let wall_ns = wall.as_nanos() as f64;
        json.result(
            &format!("table3_peer_recovery/{name}"),
            wall_ns,
            1e9 / wall_ns,
        );
    }
    json.section(
        "recovery_phases",
        format!(
            "{{\n    \"fresh\": {},\n    \"pooled\": {}\n  }}",
            fresh_phases.to_json(),
            pooled_phases.to_json()
        ),
    );
    // The log fill ran through the full record pipeline, so the cumulative
    // NCL stage summaries are populated for the schema gate.
    json.stage_breakdown(&tel.snapshot(), &NCL_STAGES);
    json.write();
}
