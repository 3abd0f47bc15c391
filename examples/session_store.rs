//! Session store on MiniRedis: data structures, AOF rewrite, failover.
//!
//! A web-session workload exercising strings, hashes, lists and sets; the
//! append-only file absorbs every mutation on the critical path (via NCL in
//! SplitFT mode), background RDB rewrites compact it, and a crash loses
//! nothing.
//!
//! Run with: `cargo run --release --example session_store`

use splitft::apps::miniredis::{Command, MiniRedis, Query, RedisOptions, Reply};
use splitft::apps::KvApp;
use splitft::splitfs::{Mode, Testbed, TestbedConfig};

fn main() {
    let tb = Testbed::start(TestbedConfig::calibrated(4));
    let (fs, node) = tb.mount(Mode::SplitFt, "sessions");
    let opts = RedisOptions {
        aof_capacity: 8 << 20,
        rewrite_threshold: 32 << 10,
        ..RedisOptions::default()
    };
    let r = MiniRedis::open(fs, "sess/", opts.clone()).unwrap();

    // Simulate a burst of session activity.
    for user in 0..200u32 {
        let sid = format!("session:{user}");
        r.execute(Command::HSet(
            sid.clone(),
            "user".into(),
            format!("user-{user}").into_bytes(),
        ))
        .unwrap();
        r.execute(Command::HSet(sid.clone(), "theme".into(), b"dark".to_vec()))
            .unwrap();
        r.execute(Command::RPush(format!("history:{user}"), b"/home".to_vec()))
            .unwrap();
        r.execute(Command::RPush(
            format!("history:{user}"),
            b"/checkout".to_vec(),
        ))
        .unwrap();
        r.execute(Command::SAdd(
            "active-users".into(),
            format!("user-{user}").into_bytes(),
        ))
        .unwrap();
        r.execute(Command::Incr("page-views".into())).unwrap();
    }
    // Land the background AOF rewrite in flight.
    r.quiesce();
    println!(
        "{} keys stored; {} AOF rewrite(s) compacted the log in the background",
        match r.query(Query::DbSize).unwrap() {
            Reply::Int(n) => n,
            _ => unreachable!(),
        },
        r.rewrite_count()
    );

    // Crash and fail over.
    tb.cluster.crash(node);
    drop(r);
    println!("\n-- session server crashed --\n");

    let (fs2, _) = tb.mount(Mode::SplitFt, "sessions");
    let r = MiniRedis::open(fs2, "sess/", opts).unwrap();

    // Every structure recovered.
    assert_eq!(
        r.query(Query::HGet("session:42".into(), "user".into()))
            .unwrap(),
        Reply::Bulk(Some(b"user-42".to_vec()))
    );
    assert_eq!(
        r.query(Query::LRange("history:42".into(), 0, -1)).unwrap(),
        Reply::Multi(vec![b"/home".to_vec(), b"/checkout".to_vec()])
    );
    assert_eq!(
        r.query(Query::SIsMember(
            "active-users".into(),
            b"user-199".to_vec()
        ))
        .unwrap(),
        Reply::Int(1)
    );
    let views = match r.query(Query::Get("page-views".into())).unwrap() {
        Reply::Bulk(Some(v)) => String::from_utf8(v).unwrap(),
        other => panic!("unexpected {other:?}"),
    };
    println!("recovered sessions intact; page-views = {views}");
    println!("no acknowledged session update was lost");
}
