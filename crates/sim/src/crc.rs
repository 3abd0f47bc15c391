//! CRC-32C (Castagnoli) checksums.
//!
//! Used by the NCL region header to detect torn metadata, and by the ported
//! applications for record-level integrity (the paper notes POSIX
//! applications handle partial writes with application-level checksums,
//! §4.5.1). Table-driven software implementation, eight bytes per step
//! ("slicing-by-8": eight 256-entry tables, built at compile time); the
//! polynomial matches what RocksDB, Redis and iSCSI use.

/// CRC-32C polynomial (reflected form).
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so one step folds eight bytes with eight
/// independent lookups.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Computes the CRC-32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_extend(0, data)
}

/// Extends a running CRC-32C with more data (for chunked hashing).
pub fn crc32c_extend(crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise definition, one table lookup per byte.
    fn reference(crc: u32, data: &[u8]) -> u32 {
        let mut crc = !crc;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 test vectors.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(crc32c(&[]), 0);
    }

    #[test]
    fn extend_equals_oneshot() {
        let data = b"hello crc world";
        let oneshot = crc32c(data);
        let part = crc32c_extend(crc32c(&data[..5]), &data[5..]);
        assert_eq!(oneshot, part);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"some log record".to_vec();
        let orig = crc32c(&data);
        data[3] ^= 1;
        assert_ne!(orig, crc32c(&data));
    }

    #[test]
    fn the_tables_are_the_bytewise_crc_of_a_byte_and_its_zero_tail() {
        for b in 0..=255u8 {
            for (k, table) in TABLES.iter().enumerate() {
                let mut input = vec![0u8; k + 1];
                input[0] = b;
                // The raw register update, without the pre/post inversion.
                assert_eq!(!reference(!0, &input), table[b as usize], "k={k} b={b}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn any_split_of_any_bytes_extends_to_the_bytewise_crc(
            input in (
                prop::collection::vec(any::<u8>(), 0..200),
                any::<u32>(),
                any::<u64>(),
            )
        ) {
            let (data, seed, at) = input;
            let at = (at % (data.len() as u64 + 1)) as usize;
            let whole = reference(seed, &data);
            prop_assert_eq!(crc32c_extend(seed, &data), whole);
            let split = crc32c_extend(crc32c_extend(seed, &data[..at]), &data[at..]);
            prop_assert_eq!(split, whole);
        }
    }
}
