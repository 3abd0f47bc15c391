//! Failure-storm integration test: a workload runs while peers crash and
//! restart around it; after the dust settles every acknowledged write must
//! be recovered.
//!
//! Unlike the per-crate tests, this exercises the whole stack (application
//! → facade → NCL → simulated RDMA) under *concurrent* failure injection —
//! failures land while records are in flight, not between operations.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use splitft::apps::minirocks::{MiniRocks, RocksOptions};
use splitft::sim::Xoshiro256StarStar;
use splitft::splitfs::{Mode, Testbed, TestbedConfig};

#[test]
fn acked_writes_survive_a_peer_failure_storm() {
    for seed in [1u64, 7, 42] {
        let tb = Testbed::start(TestbedConfig::zero(6));
        let (fs, app_node) = tb.mount(Mode::SplitFt, "storm");
        let db = MiniRocks::open(fs, "db/", RocksOptions::default()).unwrap();

        let stop = AtomicBool::new(false);
        let acked = std::thread::scope(|scope| {
            // Chaos thread: crash/restart peers at random, keeping at most
            // one down at a time (the f = 1 budget).
            let cluster = tb.cluster.clone();
            let peer_nodes: Vec<_> = tb.peers.iter().map(|p| p.node()).collect();
            let stop_ref = &stop;
            scope.spawn(move || {
                let mut rng = Xoshiro256StarStar::new(seed);
                let mut down: Option<usize> = None;
                while !stop_ref.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(17));
                    match down.take() {
                        Some(idx) => cluster.restart(peer_nodes[idx]),
                        None => {
                            let idx = rng.next_below(peer_nodes.len() as u64) as usize;
                            cluster.crash(peer_nodes[idx]);
                            down = Some(idx);
                        }
                    }
                }
                if let Some(idx) = down {
                    cluster.restart(peer_nodes[idx]);
                }
            });

            // Writer: every put that returns Ok is an acknowledged write.
            let mut acked = 0u32;
            let deadline = std::time::Instant::now() + Duration::from_millis(800);
            while std::time::Instant::now() < deadline {
                let key = format!("key{acked:06}");
                if db.put(key.as_bytes(), b"storm-value").is_ok() {
                    acked += 1;
                }
            }
            stop.store(true, Ordering::Relaxed);
            acked
        });
        assert!(acked > 0, "some writes must succeed during the storm");

        // A crash+restart wipes a peer's regions, so the storm's f = 1
        // budget is only honored if each wiped copy is repaired before the
        // next fault lands. The writer does that as a side effect of its
        // puts, but on a starved host the fixed 17 ms cadence can outrun
        // it and wipe every copy during an idle stretch. Settle with all
        // peers alive: one acknowledged put re-replicates the full log to
        // a write quorum, restoring the budget's precondition before the
        // final application crash.
        let mut settled = false;
        for _ in 0..400 {
            if db.put(b"zz-settle", b"storm-value").is_ok() {
                settled = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            settled,
            "seed {seed}: post-storm settle write never succeeded"
        );

        // Crash the application; recover on a fresh node; audit. Control
        // RPCs run on their caller and carry no deadline; the one wall-clock
        // deadline left on this path is `write_timeout` on the header reads
        // the threaded NIC engine completes, so on an oversubscribed host a
        // quorum can look unavailable even with every peer alive; retry the
        // remount like a real recovering client would, bounded so a genuine
        // loss of quorum still fails the test.
        tb.cluster.crash(app_node);
        drop(db);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let db = loop {
            let (fs2, node) = tb.mount(Mode::SplitFt, "storm");
            match MiniRocks::open(fs2, "db/", RocksOptions::default()) {
                Ok(db) => break db,
                Err(err) => {
                    // Release the instance lock so the next attempt mounts.
                    tb.cluster.crash(node);
                    assert!(
                        std::time::Instant::now() < deadline,
                        "seed {seed}: recovery never reached quorum: {err:?}"
                    );
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        };
        for i in 0..acked {
            assert_eq!(
                db.get(format!("key{i:06}").as_bytes()).unwrap(),
                Some(b"storm-value".to_vec()),
                "seed {seed}: acknowledged key{i:06} lost"
            );
        }
    }
}

#[test]
fn repeated_whole_stack_restarts_with_peer_churn() {
    let tb = Testbed::start(TestbedConfig::zero(5));
    let mut expected: Vec<(String, String)> = Vec::new();
    let mut rng = Xoshiro256StarStar::new(99);
    let mut prev_node = None;

    for round in 0..4 {
        if let Some(node) = prev_node {
            tb.cluster.crash(node);
        }
        // Churn one peer per round.
        let idx = rng.next_below(tb.peers.len() as u64) as usize;
        let peer_node = tb.peers[idx].node();
        if tb.cluster.is_alive(peer_node) {
            tb.cluster.crash(peer_node);
        } else {
            tb.cluster.restart(peer_node);
        }

        let (fs, node) = tb.mount(Mode::SplitFt, "churn");
        prev_node = Some(node);
        let db = MiniRocks::open(fs, "db/", RocksOptions::default()).unwrap();
        // Everything from previous rounds must still be there.
        for (k, v) in &expected {
            assert_eq!(
                db.get(k.as_bytes()).unwrap(),
                Some(v.clone().into_bytes()),
                "round {round}: {k} lost"
            );
        }
        for i in 0..40 {
            let k = format!("r{round}-k{i:03}");
            let v = format!("value-{round}-{i}");
            db.put(k.as_bytes(), v.as_bytes()).unwrap();
            expected.push((k, v));
        }
    }
}
