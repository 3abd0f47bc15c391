//! Property tests: the extent map must behave exactly like a flat byte
//! array with an occupancy mask, under arbitrary sequences of inserts.

use dfs::ExtentMap;
use proptest::prelude::*;

/// One insert: `(offset, data)`.
type Op = (u16, Vec<u8>);

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u16..512, prop::collection::vec(any::<u8>(), 1..64))
}

/// Reference model: value + occupancy per byte.
#[derive(Default)]
struct Flat {
    bytes: Vec<(u8, bool)>,
}

impl Flat {
    fn ensure(&mut self, end: usize) {
        if self.bytes.len() < end {
            self.bytes.resize(end, (0, false));
        }
    }

    fn insert(&mut self, offset: usize, data: &[u8]) {
        self.ensure(offset + data.len());
        for (i, &b) in data.iter().enumerate() {
            self.bytes[offset + i] = (b, true);
        }
    }
}

/// The map and the model after `ops`.
fn replay(ops: &[Op]) -> (ExtentMap, Flat) {
    let mut map = ExtentMap::new();
    let mut flat = Flat::default();
    for (offset, data) in ops {
        map.insert(*offset as u64, data);
        flat.insert(*offset as usize, data);
    }
    (map, flat)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn extent_map_matches_flat_model(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let (map, flat) = replay(&ops);
        // Full-range read must agree byte for byte, and the missing ranges
        // must exactly match the unoccupied bytes.
        let total = flat.bytes.len().max(1);
        let mut buf = vec![0u8; total];
        let missing = map.read_into(0, &mut buf);
        let mut covered = vec![true; total];
        for (off, len) in &missing {
            for c in covered.iter_mut().skip(*off as usize).take(*len) {
                *c = false;
            }
        }
        for i in 0..total {
            let (want_byte, want_covered) = flat.bytes.get(i).copied().unwrap_or((0, false));
            prop_assert_eq!(covered[i], want_covered, "occupancy at {}", i);
            if want_covered {
                prop_assert_eq!(buf[i], want_byte, "byte at {}", i);
            }
        }
        // Invariants: extents are coalesced (no adjacent/overlapping pairs).
        let extents: Vec<(u64, usize)> = map.iter().map(|(o, d)| (o, d.len())).collect();
        for w in extents.windows(2) {
            let first_end = w[0].0 + w[0].1 as u64;
            prop_assert!(first_end < w[1].0, "extents not coalesced: {:?}", w);
        }
        // byte_len equals occupied count.
        let occupied = flat.bytes.iter().filter(|(_, c)| *c).count();
        prop_assert_eq!(map.byte_len(), occupied);
    }

    /// The borrowing reads against the same model: `slice` lends exactly
    /// the ranges that are covered end to end, `overlaps` sees exactly the
    /// ranges with a covered byte, and `append_to` is `read_into` onto the
    /// end of a vector.
    #[test]
    fn borrowed_reads_match_flat_model(
        case in (
            prop::collection::vec(op_strategy(), 1..60),
            prop::collection::vec((0u64..640, 0usize..160), 1..40),
        )
    ) {
        let (ops, probes) = &case;
        let (map, flat) = replay(ops);
        for &(offset, len) in probes {
            let model: Vec<(u8, bool)> = (offset as usize..offset as usize + len)
                .map(|i| flat.bytes.get(i).copied().unwrap_or((0, false)))
                .collect();
            let bytes: Vec<u8> = model.iter().map(|(b, _)| *b).collect();

            prop_assert_eq!(
                map.overlaps(offset, len),
                model.iter().any(|(_, covered)| *covered),
                "overlaps({}, {})", offset, len
            );
            match map.slice(offset, len) {
                Some(lent) => {
                    prop_assert!(model.iter().all(|(_, covered)| *covered));
                    prop_assert_eq!(lent, &bytes[..], "slice({}, {})", offset, len);
                }
                // An empty range inside a gap has no extent to point into.
                None => prop_assert!(len == 0 || model.iter().any(|(_, covered)| !*covered)),
            }

            let mut copied = vec![0u8; len];
            let missing = map.read_into(offset, &mut copied);
            let mut appended = vec![0xEE; 3];
            prop_assert_eq!(map.append_to(offset, len, &mut appended), missing);
            prop_assert_eq!(&appended[..3], &[0xEE; 3]);
            prop_assert_eq!(&appended[3..], &copied[..]);
            prop_assert_eq!(&copied[..], &bytes[..], "holes read as zeros");
        }
    }
}
