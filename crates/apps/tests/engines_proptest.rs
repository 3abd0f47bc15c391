//! Property tests: each storage engine must match a `HashMap` reference
//! model under random operation sequences interleaved with crash–recover
//! cycles (SplitFT mode, so recovery exercises the NCL path end to end).

use std::collections::HashMap;

use apps::minirocks::{MiniRocks, RocksOptions};
use apps::minisql::{MiniSql, SqlOptions};
use proptest::prelude::*;
use splitfs::{Mode, Testbed, TestbedConfig};

#[derive(Debug, Clone)]
enum Op {
    Put {
        key_seed: u8,
        value_seed: u8,
        len: usize,
    },
    Delete {
        key_seed: u8,
    },
    CrashRecover,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u8>(), any::<u8>(), 1usize..48)
            .prop_map(|(key_seed, value_seed, len)| Op::Put { key_seed, value_seed, len }),
        2 => any::<u8>().prop_map(|key_seed| Op::Delete { key_seed }),
        1 => Just(Op::CrashRecover),
    ]
}

fn key_of(seed: u8) -> String {
    format!("key-{seed:03}")
}

fn value_of(seed: u8, len: usize) -> Vec<u8> {
    vec![seed; len]
}

/// Generic driver: runs the op sequence against `open`-provided engines,
/// crash-recovering on demand, and checks the final state (plus state at
/// every recovery) against the model.
fn drive<E>(
    ops: &[Op],
    open: impl Fn(splitfs::SplitFs) -> E,
    put: impl Fn(&E, &str, &[u8]) -> bool,
    del: impl Fn(&E, &str),
    get: impl Fn(&E, &str) -> Option<Vec<u8>>,
) -> Result<(), TestCaseError> {
    let tb = Testbed::start(TestbedConfig::zero(4));
    let (fs, node) = tb.mount(Mode::SplitFt, "prop");
    let mut engine = Some(open(fs));
    let mut app_node = node;
    let mut model: HashMap<String, Vec<u8>> = HashMap::new();

    let check = |engine: &E, model: &HashMap<String, Vec<u8>>| -> Result<(), TestCaseError> {
        for (k, v) in model {
            let got = get(engine, k);
            prop_assert_eq!(got.as_ref(), Some(v), "key {}", k);
        }
        Ok(())
    };

    for op in ops {
        match op {
            Op::Put {
                key_seed,
                value_seed,
                len,
            } => {
                let k = key_of(*key_seed);
                let v = value_of(*value_seed, *len);
                if put(engine.as_ref().expect("open"), &k, &v) {
                    model.insert(k, v);
                }
            }
            Op::Delete { key_seed } => {
                let k = key_of(*key_seed);
                del(engine.as_ref().expect("open"), &k);
                model.remove(&k);
            }
            Op::CrashRecover => {
                tb.cluster.crash(app_node);
                drop(engine.take());
                let (fs, node) = tb.mount(Mode::SplitFt, "prop");
                app_node = node;
                let e = open(fs);
                check(&e, &model)?;
                engine = Some(e);
            }
        }
    }
    check(engine.as_ref().expect("open"), &model)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 60,
    })]

    #[test]
    fn minirocks_matches_model(ops in prop::collection::vec(op_strategy(), 1..40)) {
        drive(
            &ops,
            |fs| MiniRocks::open(fs, "db/", RocksOptions::tiny()).unwrap(),
            |e, k, v| e.put(k.as_bytes(), v).is_ok(),
            |e, k| e.delete(k.as_bytes()).unwrap(),
            |e, k| e.get(k.as_bytes()).unwrap(),
        )?;
    }

    #[test]
    fn minisql_matches_model(ops in prop::collection::vec(op_strategy(), 1..40)) {
        drive(
            &ops,
            |fs| MiniSql::open(fs, "db/", SqlOptions::tiny()).unwrap(),
            |e, k, v| e.put(k.as_bytes(), v).is_ok(),
            |e, k| { e.delete(k.as_bytes()).unwrap(); },
            |e, k| e.get(k.as_bytes()).unwrap(),
        )?;
    }
}
