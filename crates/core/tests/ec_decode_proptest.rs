//! Property tests of the erasure-coded decoders recovery runs over what it
//! fetched from the fragment holders and the spill tier:
//! `ec::decode_burst`, `FragEntry::decode_at`, `ec::reassemble` and
//! `SpillSnapshot::decode`. The bytes come from remote memory or a file
//! that a crash may have left half-written, so
//!
//! * no input makes a decoder panic, whatever its bytes and offsets;
//! * every encoded burst, entry, striped log and snapshot reads back
//!   exactly;
//! * flipping any single bit of a valid fragment entry or snapshot makes it
//!   decode to `None` (the CRC-32C rejects it), and a stripe with one
//!   corrupted shard still reassembles from the other `k`.

use ncl::ec::{
    decode_burst, encode_burst, parity_units, reassemble, split_units, FragEntry, SpillSnapshot,
    FRAG_ENTRY_SIZE,
};
use proptest::prelude::*;

/// `(seq, offset, payload)` records of one burst.
type Records = Vec<(u64, u64, Vec<u8>)>;

fn records() -> impl Strategy<Value = Records> {
    prop::collection::vec(
        (
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 0..48),
        ),
        0..6,
    )
}

fn image_of(records: &Records) -> Vec<u8> {
    let borrowed: Vec<(u64, u64, &[u8])> = records
        .iter()
        .map(|(seq, offset, payload)| (*seq, *offset, payload.as_slice()))
        .collect();
    encode_burst(&borrowed)
}

/// `garbage ++ entry ++ unit`: a valid entry at offset `garbage.len()`.
fn entry_log(entry: &FragEntry, unit: &[u8], garbage: &[u8]) -> Vec<u8> {
    let mut log = garbage.to_vec();
    log.extend_from_slice(&entry.encode(unit));
    log.extend_from_slice(unit);
    log
}

/// A fragment entry and its unit (non-empty, as `split_units` makes them).
fn entry() -> impl Strategy<Value = (FragEntry, Vec<u8>)> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec(any::<u8>(), 1..64),
    )
        .prop_map(|(burst_seq, burst_len, shard, unit)| {
            let entry = FragEntry {
                burst_seq,
                burst_len,
                unit_len: unit.len() as u32,
                shard,
            };
            (entry, unit)
        })
}

/// `(burst_seq, burst image)` pairs, as `reassemble` returns them.
type Bursts = Vec<(u64, Vec<u8>)>;

/// The `n` fragment logs of `bursts` striped `k`-of-`n`, burst `i`
/// carrying sequence number `i + 1`, and each burst's image.
fn striped(k: usize, n: usize, bursts: &[Records]) -> (Vec<Vec<u8>>, Bursts) {
    let mut logs = vec![Vec::new(); n];
    let mut images = Vec::new();
    for (i, records) in bursts.iter().enumerate() {
        let image = image_of(records);
        let (unit_len, data) = split_units(&image, k);
        let parity = parity_units(k, n, &data);
        for (shard, unit) in data.iter().chain(&parity).enumerate() {
            let entry = FragEntry {
                burst_seq: i as u64 + 1,
                burst_len: image.len() as u32,
                unit_len: unit_len as u32,
                shard: shard as u32,
            };
            logs[shard].extend_from_slice(&entry.encode(unit));
            logs[shard].extend_from_slice(unit);
        }
        images.push((i as u64 + 1, image));
    }
    (logs, images)
}

/// A spill snapshot whose `data` is its `len` valid bytes.
fn snapshot() -> impl Strategy<Value = SpillSnapshot> {
    (
        any::<u64>(),
        any::<bool>(),
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(spill_seq, overwritten, capacity, data)| SpillSnapshot {
            spill_seq,
            len: data.len() as u64,
            overwritten,
            capacity,
            data,
        })
}

/// `(k, n)` with `1 <= k < n <= 6`.
fn code() -> impl Strategy<Value = (usize, usize)> {
    (1..4usize, 1..3usize).prop_map(|(k, parity)| (k, k + parity))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_and_offsets_never_panic(
        case in (
            prop::collection::vec(any::<u8>(), 0..256),
            any::<usize>(),
            0..300usize,
            code(),
        )
    ) {
        let (bytes, far, near, (k, n)) = case;
        let _ = decode_burst(&bytes);
        let _ = FragEntry::decode_at(&bytes, far);
        let _ = FragEntry::decode_at(&bytes, near);
        let _ = FragEntry::decode_at(&bytes, usize::MAX - near);
        let logs: Vec<&[u8]> = (0..n).map(|i| &bytes[i * bytes.len() / n..]).collect();
        let _ = reassemble(k, n, &logs, far as u64);
    }

    #[test]
    fn an_encoded_burst_round_trips(records in records()) {
        prop_assert_eq!(decode_burst(&image_of(&records)), Some(records));
    }

    #[test]
    fn an_encoded_entry_round_trips(
        case in (entry(), prop::collection::vec(any::<u8>(), 0..32))
    ) {
        let ((entry, unit), garbage) = case;
        let log = entry_log(&entry, &unit, &garbage);
        let decoded = FragEntry::decode_at(&log, garbage.len());
        prop_assert_eq!(decoded, Some((entry, unit.as_slice())));
    }

    #[test]
    fn one_flipped_bit_in_an_entry_never_decodes(
        case in (entry(), prop::collection::vec(any::<u8>(), 0..32), any::<u32>())
    ) {
        let ((entry, unit), garbage, draw) = case;
        let mut log = entry_log(&entry, &unit, &garbage);
        let bit = draw as usize % (8 * (FRAG_ENTRY_SIZE + unit.len()));
        log[garbage.len() + bit / 8] ^= 1 << (bit % 8);
        prop_assert_eq!(FragEntry::decode_at(&log, garbage.len()), None, "bit {}", bit);
    }

    #[test]
    fn any_k_striped_logs_reassemble_every_burst(
        case in (code(), prop::collection::vec(records(), 1..5), 0..6usize, 0..6u64)
    ) {
        let ((k, n), bursts, skip, min_seq) = case;
        let (logs, images) = striped(k, n, &bursts);
        // Any k of the n logs, starting anywhere: a systematic or a parity
        // mix.
        let held: Vec<&[u8]> = (0..k).map(|i| logs[(skip + i) % n].as_slice()).collect();
        let expected: Bursts =
            images.into_iter().filter(|(seq, _)| *seq > min_seq).collect();
        prop_assert_eq!(reassemble(k, n, &held, min_seq), expected);
    }

    #[test]
    fn one_flipped_bit_in_one_shard_loses_no_burst(
        case in (code(), prop::collection::vec(records(), 1..5), 0..6usize, any::<u32>())
    ) {
        let ((k, n), bursts, victim, draw) = case;
        let (mut logs, images) = striped(k, n, &bursts);
        let log = &mut logs[victim % n];
        let bit = draw as usize % (8 * log.len());
        log[bit / 8] ^= 1 << (bit % 8);
        let all: Vec<&[u8]> = logs.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(reassemble(k, n, &all, 0), images);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_snapshot_decoder(
        case in (prop::collection::vec(any::<u8>(), 0..96), any::<u64>())
    ) {
        let (mut bytes, len) = case;
        let _ = SpillSnapshot::decode(&bytes);
        // The same bytes under a drawn `len`, however large.
        if bytes.len() >= 16 {
            bytes[8..16].copy_from_slice(&len.to_le_bytes());
            let _ = SpillSnapshot::decode(&bytes);
        }
    }

    #[test]
    fn an_encoded_snapshot_round_trips(
        case in (snapshot(), prop::collection::vec(any::<u8>(), 0..16))
    ) {
        let (snap, stale) = case;
        let mut bytes = snap.encode();
        // A longer predecessor's tail past the CRC is ignored.
        bytes.extend_from_slice(&stale);
        prop_assert_eq!(SpillSnapshot::decode(&bytes), Some(snap));
    }

    #[test]
    fn one_flipped_bit_in_a_snapshot_never_decodes(case in (snapshot(), any::<u32>())) {
        let (snap, draw) = case;
        let mut bytes = snap.encode();
        let bit = draw as usize % (8 * bytes.len());
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert_eq!(SpillSnapshot::decode(&bytes), None, "bit {}", bit);
    }
}
