//! Multi-tenant peer memory plane under chaos: many applications sharing
//! the same peer daemons while seeded fault schedules — including memory
//! pressure and voluntary region revocation — fire underneath them.
//!
//! The harness mounts several tenants on one testbed: raw-WAL tenants
//! holding 64 concurrent NCL files between them, one minirocks tenant and
//! one miniredis tenant (66+ files total on 8 peers). While the workload
//! runs, a seeded [`FaultPlan`] built from [`PlanParams::multi_tenant`]
//! injects crashes, partitions, completion faults *and* memory-pressure
//! events, and the harness additionally forces a deterministic revocation
//! storm by shrinking two peers mid-workload — so every run exercises the
//! revoke → replace → catch-up path regardless of what the seed drew.
//!
//! Safety properties, asserted per tenant after an application crash and
//! recovery:
//!
//! * every acknowledged byte/key is recovered (zero acked-prefix loss);
//! * the shared JSONL trace passes `telemetry::analyze` — complete span
//!   chains, monotone epochs, catch-up-before-ap-map ordering;
//! * peer memory accounting balances: what the tenants free comes back.
//!
//! Environment knobs mirror `tests/chaos.rs`: `FAULT_SEED`, `CHAOS_SEEDS`
//! (default 2 here — each schedule is ~8× a plain chaos schedule),
//! `CHAOS_SHARD=<i>/<n>`, `CHAOS_TRACE_DIR`.

use std::env;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Duration;

use splitft::apps::miniredis::{Command, MiniRedis, Query, RedisOptions, Reply};
use splitft::apps::minirocks::{MiniRocks, RocksOptions};
use splitft::sim::{Binding, FaultPlan, FaultScheduler, NodeId, PlanParams};
use splitft::splitfs::{File, Mode, OpenOptions, SplitFs, Testbed, TestbedConfig};
use telemetry::analyze::{analyze, parse_jsonl, TraceReport};

/// Raw-WAL tenants × files each: 64 concurrent NCL files, before the two
/// database tenants add theirs.
const WAL_TENANTS: usize = 4;
const FILES_PER_TENANT: usize = 16;
const ROUNDS: usize = 12;
const DB_PUTS: usize = 40;

fn seed_list() -> Vec<u64> {
    if let Ok(s) = env::var("FAULT_SEED") {
        return vec![s.parse().expect("FAULT_SEED must be a u64")];
    }
    let n: u64 = env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let (shard, shards) = env::var("CHAOS_SHARD")
        .ok()
        .and_then(|s| {
            let (i, n) = s.split_once('/')?;
            Some((i.parse::<u64>().ok()?, n.parse::<u64>().ok()?.max(1)))
        })
        .unwrap_or((0, 1));
    (1..=n)
        .filter(|seed| seed % shards == shard % shards)
        .collect()
}

fn sink_dir() -> PathBuf {
    if let Ok(dir) = env::var("CHAOS_TRACE_DIR") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("trace dir");
        return dir;
    }
    let dir = env::temp_dir().join(format!("multi-tenant-traces-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("trace temp dir");
    dir
}

fn assert_report_clean(report: &TraceReport, seed: u64) {
    assert!(
        report.ok() && report.orphan_spans == 0,
        "seed {seed}: trace invariants violated\n{}",
        report.render()
    );
}

/// One raw-WAL tenant: a mount plus its files and their acked prefixes.
struct WalTenant {
    app_id: String,
    fs: SplitFs,
    node: NodeId,
    files: Vec<(File, Vec<u8>)>,
}

impl WalTenant {
    fn open(tb: &Testbed, idx: usize) -> Self {
        let app_id = format!("tenant-{idx}");
        let (fs, node) = tb.mount(Mode::SplitFt, &app_id);
        let files = (0..FILES_PER_TENANT)
            .map(|f| {
                let file = fs
                    .open(&format!("wal-{f:02}"), OpenOptions::create_ncl(1 << 12))
                    .unwrap_or_else(|e| panic!("{app_id}/wal-{f:02} open: {e}"));
                (file, Vec::new())
            })
            .collect();
        WalTenant {
            app_id,
            fs,
            node,
            files,
        }
    }

    /// One append to every file; a failed write simply isn't acked (the
    /// prefix invariant only covers acknowledged bytes).
    fn round(&mut self, round: usize) {
        for (f, (file, acked)) in self.files.iter_mut().enumerate() {
            let chunk = format!("r{round:02}f{f:02}|");
            if file.write_at(acked.len() as u64, chunk.as_bytes()).is_ok() {
                acked.extend_from_slice(chunk.as_bytes());
            }
        }
    }
}

/// Runs one seeded multi-tenant schedule end to end.
fn run_tenant_schedule(seed: u64, plan: &FaultPlan) {
    let mut cfg = TestbedConfig::zero(8);
    cfg.ncl.write_timeout = Duration::from_secs(2);
    // The GC thread is the pressure consumer: plan-injected MemPressure
    // events only bite while it runs.
    cfg.peer_gc_interval = Some(Duration::from_millis(25));
    let trace_path = sink_dir().join(format!("trace-mt-{seed}.jsonl"));
    cfg.ncl
        .telemetry
        .set_jsonl_sink(&trace_path)
        .expect("trace sink");
    let quorum = cfg.ncl.quorum();
    let telemetry = cfg.ncl.telemetry.clone();
    let tb = Testbed::start(cfg);

    let mut tenants: Vec<WalTenant> = (0..WAL_TENANTS).map(|i| WalTenant::open(&tb, i)).collect();
    let (rocks_fs, rocks_node) = tb.mount(Mode::SplitFt, "tenant-rocks");
    let rocks = MiniRocks::open(rocks_fs, "db/", RocksOptions::tiny()).expect("minirocks open");
    let (redis_fs, _redis_node) = tb.mount(Mode::SplitFt, "tenant-redis");
    let redis = MiniRedis::open(redis_fs, "db/", RedisOptions::tiny()).expect("miniredis open");

    // Every peer hosts regions from many tenants before the storm starts.
    let live_files: usize = tenants.iter().map(|t| t.files.len()).sum();
    assert!(live_files >= 64, "{live_files} raw files opened");
    let hosted: usize = tb.peers.iter().map(|p| p.region_count()).sum();
    assert!(
        hosted >= 64,
        "seed {seed}: only {hosted} regions hosted across the fleet"
    );

    let binding = Binding {
        peers: tb.peers.iter().map(|p| p.node()).collect(),
        controller: tb.controller.node(),
        app: rocks_node,
    };
    tb.cluster
        .install_faults(FaultScheduler::new(plan, binding));

    let mut rocks_acked: Vec<String> = Vec::new();
    let mut redis_acked: Vec<String> = Vec::new();
    for round in 0..ROUNDS {
        for tenant in &mut tenants {
            tenant.round(round);
        }
        for i in 0..DB_PUTS / ROUNDS {
            let key = format!("k{round:02}-{i:02}");
            if rocks.put(key.as_bytes(), b"rocks-value").is_ok() {
                rocks_acked.push(key.clone());
            }
            if redis
                .execute(Command::Set(key.clone(), b"redis-value".to_vec()))
                .is_ok()
            {
                redis_acked.push(key);
            }
        }
        // Deterministic revocation storm halfway through, on top of
        // whatever MemPressure events the seed drew: two peers shed half
        // of what they hold, revoking the coldest acked prefixes first.
        if round == ROUNDS / 2 {
            for peer in tb.peers.iter().take(2) {
                let used = peer.mem_used();
                if used > 0 {
                    peer.revoke_for_pressure(used / 2);
                }
            }
        }
    }

    // Settle: disarm the schedule, revive the fleet, then one quiet round
    // per tenant so every pending replace/catch-up completes.
    tb.cluster.clear_faults();
    for peer in &tb.peers {
        if !tb.cluster.is_alive(peer.node()) {
            tb.cluster.restart(peer.node());
        }
    }
    for tenant in &tenants {
        tb.cluster.heal(tenant.node, tb.controller.node());
    }
    tb.cluster.heal(rocks_node, tb.controller.node());
    for round in ROUNDS..ROUNDS + 2 {
        for tenant in &mut tenants {
            tenant.round(round);
        }
    }
    let acked_bytes: usize = tenants
        .iter()
        .flat_map(|t| t.files.iter().map(|(_, a)| a.len()))
        .sum();
    assert!(
        acked_bytes > 0,
        "seed {seed}: no raw write was acknowledged during the schedule"
    );
    assert!(
        telemetry.counter("peer.mem.revoked_regions").get() > 0,
        "seed {seed}: the storm revoked nothing — pressure plumbing broken"
    );

    // Crash every tenant and recover each on a fresh node: the acked
    // prefix of every file of every tenant must come back.
    for tenant in &tenants {
        tb.cluster.crash(tenant.node);
    }
    tb.cluster.crash(rocks_node);
    let expectations: Vec<(String, Vec<Vec<u8>>)> = tenants
        .iter()
        .map(|t| {
            (
                t.app_id.clone(),
                t.files.iter().map(|(_, a)| a.clone()).collect(),
            )
        })
        .collect();
    drop(tenants);
    drop(rocks);
    drop(redis);

    for (app_id, acked) in &expectations {
        let (fs2, _) = tb.mount(Mode::SplitFt, app_id);
        for (f, expected) in acked.iter().enumerate() {
            let file = fs2
                .open(&format!("wal-{f:02}"), OpenOptions::create_ncl(1 << 12))
                .unwrap_or_else(|e| panic!("seed {seed}: {app_id}/wal-{f:02} recovery: {e}"));
            let size = file.size().expect("size") as usize;
            assert!(
                size >= expected.len(),
                "seed {seed}: {app_id}/wal-{f:02} recovered {size} < acked {}",
                expected.len()
            );
            let image = file.read(0, expected.len()).expect("read");
            assert_eq!(
                &image, expected,
                "seed {seed}: {app_id}/wal-{f:02} acked prefix diverges"
            );
        }
    }
    let (rocks_fs2, _) = tb.mount(Mode::SplitFt, "tenant-rocks");
    let rocks2 = MiniRocks::open(rocks_fs2, "db/", RocksOptions::tiny()).expect("rocks recovery");
    for key in &rocks_acked {
        assert_eq!(
            rocks2.get(key.as_bytes()).expect("rocks get"),
            Some(b"rocks-value".to_vec()),
            "seed {seed}: acknowledged rocks key {key} lost"
        );
    }
    let (redis_fs2, _) = tb.mount(Mode::SplitFt, "tenant-redis");
    let redis2 = MiniRedis::open(redis_fs2, "db/", RedisOptions::tiny()).expect("redis recovery");
    for key in &redis_acked {
        assert_eq!(
            redis2.query(Query::Get(key.clone())).expect("redis get"),
            Reply::Bulk(Some(b"redis-value".to_vec())),
            "seed {seed}: acknowledged redis key {key} lost"
        );
    }

    // Offline replay of the shared trace, exactly like `trace_analyzer
    // --check` in CI: complete chains, monotone per-file epochs, and the
    // catch-up-before-ap-map ordering across every repair the revocation
    // storm forced.
    let text = std::fs::read_to_string(&trace_path).expect("trace file readable");
    let spans = parse_jsonl(&text).unwrap_or_else(|e| panic!("seed {seed}: malformed trace: {e}"));
    let report = analyze(&spans, quorum);
    assert_report_clean(&report, seed);
    assert!(
        report.acked_writes > 0,
        "seed {seed}: no acked write produced a complete span chain"
    );
}

#[test]
fn seeded_revocation_storms_preserve_every_tenants_acked_prefix() {
    let params = PlanParams::multi_tenant(8, 1);
    for seed in seed_list() {
        let plan = FaultPlan::random(seed, &params);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run_tenant_schedule(seed, &plan))) {
            eprintln!("FAULT_SEED={seed}");
            eprintln!("reproduce: FAULT_SEED={seed} cargo test --test multi_tenant");
            eprintln!("schedule:\n{}", plan.describe());
            if let Ok(dir) = env::var("CHAOS_TRACE_DIR") {
                let _ = std::fs::write(PathBuf::from(dir).join("FAILED_SEED"), seed.to_string());
            }
            resume_unwind(payload);
        }
    }
}

/// Regression for the replace-race double-release leak: a full
/// open → write → unlink cycle of 64 files across four tenants must bring
/// every peer's memory accounting back to exactly zero — used bytes,
/// region count, staged count and tenant ledger.
#[test]
fn peer_accounting_returns_to_zero_after_full_cycle_of_64_files() {
    let tb = Testbed::start(TestbedConfig::zero(6));
    let mut tenants: Vec<WalTenant> = (0..WAL_TENANTS).map(|i| WalTenant::open(&tb, i)).collect();
    for round in 0..3 {
        for tenant in &mut tenants {
            tenant.round(round);
        }
    }
    let used: u64 = tb.peers.iter().map(|p| p.mem_used()).sum();
    assert!(used > 0, "64 live files must hold peer memory");
    let fleet_tenants: usize = tb.peers.iter().map(|p| p.tenants().len()).sum();
    assert!(fleet_tenants > 0, "tenant ledgers populated");

    for tenant in tenants {
        let paths: Vec<String> = (0..FILES_PER_TENANT)
            .map(|f| format!("wal-{f:02}"))
            .collect();
        drop(tenant.files);
        for path in &paths {
            tenant
                .fs
                .unlink(path)
                .unwrap_or_else(|e| panic!("{}/{path} unlink: {e}", tenant.app_id));
        }
    }

    for peer in &tb.peers {
        assert_eq!(
            peer.mem_used(),
            0,
            "peer {} retains bytes after every file was unlinked",
            peer.name()
        );
        assert_eq!(
            peer.region_count(),
            0,
            "peer {} retains regions",
            peer.name()
        );
        assert_eq!(
            peer.staged_count(),
            0,
            "peer {} retains staging",
            peer.name()
        );
        assert!(
            peer.tenants().is_empty(),
            "peer {} tenant ledger not empty: {:?}",
            peer.name(),
            peer.tenants()
        );
    }
}
