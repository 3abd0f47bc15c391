//! Property tests of `RegionHeader::decode`. Recovery reads a header from
//! every responder and decides from it alone whether the peer's bytes are a
//! prefix of the recovered image — and so whether the catch-up writes into
//! the peer's region in place. The bytes come from remote memory that a
//! crash may have left half-written, so
//!
//! * no input makes `decode` panic, whatever its length or contents;
//! * every header reads back exactly as encoded;
//! * flipping any single bit of a valid encoding makes it decode to `None`
//!   (the magic or the CRC-32C rejects it), never to another header.

use ncl::layout::{HEADER_MAGIC, HEADER_WIRE_SIZE};
use ncl::RegionHeader;
use proptest::prelude::*;

fn header() -> impl Strategy<Value = RegionHeader> {
    (
        (any::<u64>(), any::<u64>(), any::<bool>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>()),
    )
        .prop_map(
            |((seq, len, overwritten, gen), (frag_tail, prev_tail, spill_seq, capacity))| {
                RegionHeader {
                    seq,
                    len,
                    overwritten,
                    gen,
                    frag_tail,
                    prev_tail,
                    spill_seq,
                    capacity,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic(case in (prop::collection::vec(any::<u8>(), 0..2 * HEADER_WIRE_SIZE), any::<bool>())) {
        // Half the inputs carry the magic, so the CRC check is reached too.
        let (mut bytes, magic) = case;
        if magic && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(&HEADER_MAGIC.to_le_bytes());
        }
        let _ = RegionHeader::decode(&bytes);
    }

    #[test]
    fn a_valid_encoding_round_trips(header in header()) {
        prop_assert_eq!(RegionHeader::decode(&header.encode()), Some(header));
    }

    #[test]
    fn one_flipped_bit_never_decodes(case in (header(), any::<u32>())) {
        let (header, draw) = case;
        let bit = draw as usize % (8 * HEADER_WIRE_SIZE);
        let mut bytes = header.encode();
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert_eq!(RegionHeader::decode(&bytes), None, "bit {}", bit);
    }
}
