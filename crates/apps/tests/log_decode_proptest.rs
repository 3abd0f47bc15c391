//! Property tests of the logs' decoders: `kv::{decode_record,
//! decode_frame}` (minirocks' WAL, and the frame every log and meta file
//! shares), `miniredis::aof::{decode_command, replay}`, and the page images
//! minisql's WAL logs and its database file holds, `minisql::pages::{Meta,
//! DataPage}::decode`. Their input is what a crashed process wrote, and
//! each store replays it at open, so
//!
//! * no input makes a decoder panic, whatever its length or contents — a
//!   CRC-valid body that claims 2^32 entries included;
//! * encoded records and pages decode as written;
//! * flipping any single bit yields a prefix of the written records, cut at
//!   or before the damaged one, and a meta page whose checksummed 16 bytes
//!   took a flip is rejected.

use apps::kv::{decode_frame, decode_record, encode_frame, encode_record, replay_records, Entry};
use apps::miniredis::aof::{decode_command, encode_batch, encode_command, replay};
use apps::miniredis::Command;
use apps::minisql::pages::{DataPage, Meta};
use proptest::prelude::*;

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..max)
}

fn key() -> impl Strategy<Value = String> {
    prop::collection::vec(b'a'..=b'z', 0..6).prop_map(|k| String::from_utf8(k).expect("ascii"))
}

fn entry() -> impl Strategy<Value = Entry> {
    prop_oneof![
        3 => (bytes(8), bytes(16)).prop_map(|(key, value)| Entry::Put { key, value }),
        1 => bytes(8).prop_map(|key| Entry::Delete { key }),
    ]
}

/// WAL records: a sequence number and up to four entries each.
fn records() -> impl Strategy<Value = Vec<(u64, Vec<Entry>)>> {
    prop::collection::vec((any::<u64>(), prop::collection::vec(entry(), 0..4)), 0..5)
}

fn command() -> impl Strategy<Value = Command> {
    prop_oneof![
        1 => (key(), bytes(12)).prop_map(|(k, v)| Command::Set(k, v)),
        1 => key().prop_map(Command::Del),
        1 => (key(), key(), bytes(12)).prop_map(|(k, f, v)| Command::HSet(k, f, v)),
        1 => (key(), key()).prop_map(|(k, f)| Command::HDel(k, f)),
        1 => (key(), bytes(12)).prop_map(|(k, v)| Command::LPush(k, v)),
        1 => (key(), bytes(12)).prop_map(|(k, v)| Command::RPush(k, v)),
        1 => key().prop_map(Command::LPop),
        1 => key().prop_map(Command::RPop),
        1 => (key(), bytes(12)).prop_map(|(k, v)| Command::SAdd(k, v)),
        1 => (key(), bytes(12)).prop_map(|(k, v)| Command::SRem(k, v)),
        1 => key().prop_map(Command::Incr),
    ]
}

/// AOF appends: up to three commands each.
fn batches() -> impl Strategy<Value = Vec<Vec<Command>>> {
    prop::collection::vec(prop::collection::vec(command(), 0..4), 0..5)
}

fn meta() -> impl Strategy<Value = Meta> {
    (any::<u32>(), any::<u32>()).prop_map(|(npages, next_free)| Meta { npages, next_free })
}

/// A data page of up to six records and the page size it is encoded at:
/// what it needs, plus up to 32 bytes of zero tail.
fn data_page() -> impl Strategy<Value = (DataPage, usize)> {
    let records = prop::collection::vec((bytes(8), bytes(16)), 0..6);
    (any::<u32>(), records, 0..32usize).prop_map(|(next_overflow, records, slack)| {
        let page = DataPage {
            next_overflow,
            records,
        };
        let size = page.encoded_len() + slack;
        (page, size)
    })
}

/// A frame whose CRC is valid over a body that starts with a little-endian
/// count, arbitrary or one of the extremes, then arbitrary bytes: what a
/// decoder sees past its checksum.
fn counted_frame() -> impl Strategy<Value = Vec<u8>> {
    let count = prop_oneof![
        2 => any::<u32>(),
        1 => Just(u32::MAX),
        1 => 0..4u32,
    ];
    (bytes(12), count, bytes(40), any::<bool>()).prop_map(|(head, count, tail, wal)| {
        // A WAL body has an 8-byte sequence number before its count.
        let at = if wal { 8 } else { 0 };
        let mut body = head;
        body.resize(at, 0);
        body.extend_from_slice(&count.to_le_bytes());
        body.extend_from_slice(&tail);
        encode_frame(&body)
    })
}

/// Flips bit `pick` (mod the image's bits) of `frames`' concatenation;
/// returns the image and how many frames lie wholly before the flip.
fn flip(frames: &[Vec<u8>], pick: u64) -> Option<(Vec<u8>, usize)> {
    let mut raw = frames.concat();
    if raw.is_empty() {
        return None;
    }
    let bit = pick as usize % (raw.len() * 8);
    raw[bit / 8] ^= 1 << (bit % 8);
    let ends = frames.iter().scan(0, |end, f| {
        *end += f.len();
        Some(*end)
    });
    Some((raw, ends.take_while(|&end| end <= bit / 8).count()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(case in (bytes(96), any::<u16>())) {
        let (raw, at) = case;
        let at = at as usize % (raw.len() + 1);
        let _ = decode_record(&raw, at);
        let _ = decode_frame(&raw, at);
        let _ = replay_records(&raw[at..]);
        let _ = decode_command(&raw[at..]);
        let _ = replay(&raw[at..]);
    }

    #[test]
    fn a_checksummed_count_reserves_only_what_the_body_holds(frame in counted_frame()) {
        let _ = decode_record(&frame, 0);
        let _ = replay_records(&frame);
        let _ = replay(&frame);
    }

    #[test]
    fn wal_records_decode_as_written(written in records()) {
        let frames: Vec<Vec<u8>> = written.iter().map(|(seq, e)| encode_record(*seq, e)).collect();
        let raw = frames.concat();
        let mut offset = 0;
        for (seq, entries) in &written {
            let (got_seq, got, next) = decode_record(&raw, offset).unwrap().unwrap();
            prop_assert_eq!((got_seq, &got), (*seq, entries));
            offset = next;
        }
        prop_assert_eq!(decode_record(&raw, offset).unwrap(), None);
        let (max_seq, replayed) = replay_records(&raw);
        prop_assert_eq!(max_seq, written.iter().map(|(s, _)| *s).max().unwrap_or(0));
        prop_assert!(replayed.iter().eq(written.iter().map(|(_, e)| e)));
    }

    #[test]
    fn a_flipped_bit_in_the_wal_yields_a_prefix(case in (records(), any::<u64>())) {
        let (written, pick) = case;
        let frames: Vec<Vec<u8>> = written.iter().map(|(seq, e)| encode_record(*seq, e)).collect();
        let Some((raw, intact)) = flip(&frames, pick) else { return Ok(()) };
        let (_, read) = replay_records(&raw);
        prop_assert!(read.len() <= intact, "record {intact} damaged, {} decoded", read.len());
        prop_assert!(read.iter().eq(written.iter().map(|(_, e)| e).take(read.len())));
    }

    #[test]
    fn frames_decode_as_written(written in prop::collection::vec(bytes(24), 0..5)) {
        // An empty body is a zero length, the clean end: frame non-empty ones.
        let written: Vec<Vec<u8>> = written.into_iter().filter(|b| !b.is_empty()).collect();
        let raw: Vec<u8> = written.iter().flat_map(|b| encode_frame(b)).collect();
        let mut offset = 0;
        for body in &written {
            let (got, next) = decode_frame(&raw, offset).unwrap().unwrap();
            prop_assert_eq!(got, &body[..]);
            offset = next;
        }
        prop_assert_eq!(decode_frame(&raw, offset).unwrap(), None);
    }

    #[test]
    fn a_flipped_bit_in_a_frame_stream_yields_a_prefix(case in (prop::collection::vec(bytes(24), 1..5), any::<u64>())) {
        let (written, pick) = case;
        let written: Vec<Vec<u8>> = written.into_iter().filter(|b| !b.is_empty()).collect();
        let frames: Vec<Vec<u8>> = written.iter().map(|b| encode_frame(b)).collect();
        let Some((raw, intact)) = flip(&frames, pick) else { return Ok(()) };
        let mut read = Vec::new();
        let mut offset = 0;
        while let Ok(Some((body, next))) = decode_frame(&raw, offset) {
            read.push(body.to_vec());
            offset = next;
        }
        prop_assert!(read.len() <= intact, "frame {intact} damaged, {} decoded", read.len());
        prop_assert_eq!(&read[..], &written[..read.len()]);
    }

    #[test]
    fn commands_decode_as_written(cmd in command()) {
        prop_assert_eq!(decode_command(&encode_command(&cmd)).unwrap(), cmd);
    }

    #[test]
    fn aof_appends_replay_as_written(written in batches()) {
        let raw: Vec<u8> = written.iter().flat_map(|b| encode_batch(b)).collect();
        prop_assert_eq!(replay(&raw), written.concat());
    }

    #[test]
    fn a_flipped_bit_in_the_aof_yields_a_prefix(case in (batches(), any::<u64>())) {
        let (written, pick) = case;
        let frames: Vec<Vec<u8>> = written.iter().map(|b| encode_batch(b)).collect();
        let Some((raw, intact)) = flip(&frames, pick) else { return Ok(()) };
        let read = replay(&raw);
        let prefixes: Vec<Vec<Command>> = (0..=intact).map(|n| written[..n].concat()).collect();
        prop_assert!(prefixes.contains(&read), "append {intact} damaged, read {read:?}");
    }

    #[test]
    fn arbitrary_bytes_never_panic_a_page_decoder(raw in bytes(96)) {
        let _ = Meta::decode(&raw);
        let _ = DataPage::decode(&raw);
    }

    #[test]
    fn pages_decode_as_written(case in (meta(), 0..32usize, data_page())) {
        let (meta, slack, (page, size)) = case;
        prop_assert_eq!(Meta::decode(&meta.encode(16 + slack)).unwrap(), meta);
        prop_assert_eq!(DataPage::decode(&page.encode(size)).unwrap(), page);
    }

    #[test]
    fn a_flipped_bit_in_a_meta_header_is_rejected(case in (meta(), 0..128usize, 0..32usize)) {
        let (meta, bit, slack) = case;
        let mut raw = meta.encode(16 + slack);
        raw[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(Meta::decode(&raw).is_err(), "bit {bit} flipped, decoded anyway");
    }
}
