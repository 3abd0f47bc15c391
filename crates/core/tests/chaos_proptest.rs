//! Chaos property: for *any* seeded fault plan that stays within the `f`
//! crash budget (plus arbitrary wire misbehaviour: drops, duplicates,
//! delays, gray peers, doorbell stalls, one controller-partition window),
//! the image recovered after an application crash equals exactly the
//! acknowledged prefix that was written.
//!
//! This is the proptest companion of the `tests/chaos.rs` harness: instead
//! of a fixed seed list it lets proptest draw seeds, and on failure shrinks
//! toward a minimal `(seed, writes)` pair — the seed is printed in the
//! assertion message as `FAULT_SEED=<u64>` for replay.

use ncl::{Controller, NclConfig, NclLib, NclRegistry, Peer};
use proptest::prelude::*;
use sim::{Binding, Cluster, FaultPlan, FaultScheduler, PlanParams};
use telemetry::Telemetry;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 50,
    })]

    #[test]
    fn acked_prefix_survives_any_bounded_fault_plan(
        input in (any::<u64>(), 24usize..64)
    ) {
        let (seed, writes) = input;
        let cluster = Cluster::new();
        let controller = Controller::start(&cluster, Telemetry::disabled());
        let registry = NclRegistry::new();
        let config = NclConfig::zero();
        let peers: Vec<Peer> = (0..6)
            .map(|i| {
                Peer::start(
                    &cluster,
                    &format!("p{i}"),
                    8 << 20,
                    &config,
                    &controller,
                    &registry,
                )
            })
            .collect();
        let node = cluster.add_node("app-0".to_string());
        let lib = NclLib::new(&cluster, node, "chaosprop", config.clone(), &controller, &registry)
            .expect("instance lock free");
        let file = lib.create("wal", 1 << 16).unwrap();

        let plan = FaultPlan::random(seed, &PlanParams::light(6, 1));
        let binding = Binding {
            peers: peers.iter().map(|p| p.node()).collect(),
            controller: controller.node(),
            app: node,
        };
        cluster.install_faults(FaultScheduler::new(&plan, binding));

        // Within the budget (≤ f peers down at any instant) every record
        // must be acknowledged — availability is part of the property.
        let mut expected: Vec<u8> = Vec::new();
        let mut fill: u8 = 0;
        for i in 0..writes {
            fill = fill.wrapping_add(1);
            let data = vec![fill; 16];
            file.record(expected.len() as u64, &data)
                .unwrap_or_else(|e| panic!("FAULT_SEED={seed}: write {i} failed: {e}"));
            expected.extend_from_slice(&data);
        }

        // Settle: disarm the schedule, restore capacity, heal the partition,
        // then a few more acknowledged writes so any deferred replacement
        // completes against live spares before the final crash.
        cluster.clear_faults();
        for p in &peers {
            if !cluster.is_alive(p.node()) {
                cluster.restart(p.node());
            }
        }
        cluster.heal(node, controller.node());
        for _ in 0..3 {
            fill = fill.wrapping_add(1);
            let data = vec![fill; 16];
            file.record(expected.len() as u64, &data).unwrap();
            expected.extend_from_slice(&data);
        }

        // Crash the application; a fresh instance must recover exactly the
        // acknowledged prefix — nothing lost, nothing extra.
        drop(file);
        drop(lib);
        cluster.crash(node);
        let node2 = cluster.add_node("app-1".to_string());
        let lib2 = NclLib::new(&cluster, node2, "chaosprop", config, &controller, &registry)
            .expect("instance lock free");
        let recovered = lib2.recover("wal").unwrap();
        prop_assert_eq!(recovered.contents(), expected, "FAULT_SEED={}", seed);
    }
}
