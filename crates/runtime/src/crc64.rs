//! CRC-64/XZ (ECMA-182 polynomial, reflected) for checkpoint integrity.
//!
//! Chosen over a fletcher/adler-style sum because CRC-64 detects *every*
//! error burst shorter than 64 bits — in particular any single corrupted
//! byte anywhere in a checkpoint payload, which is exactly the property
//! the crash-consistency tests assert.
//!
//! The hot path is slicing-by-8: eight 256-entry tables, built at compile
//! time, where `TABLES[k][b]` is the CRC state contributed by byte `b`
//! followed by `k` zero bytes. XOR-ing one little-endian 8-byte word into
//! the state and summing eight lookups advances the CRC by 8 bytes at
//! once; a bytewise loop over `TABLES[0]` finishes the tail. The value is
//! the same CRC-64/XZ the plain one-lookup-per-byte loop computes.

/// Reflected form of the ECMA-182 polynomial `0x42F0E1EBA9EA3693`.
const POLY: u64 = 0xC96C_5795_D787_0F42;

const fn build_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u64; 256]; 8] = build_tables();

/// CRC-64/XZ of `data` (init `!0`, xorout `!0`, reflected in/out).
pub fn crc64(data: &[u8]) -> u64 {
    let mut crc = !0u64;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let x = crc ^ u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        crc = TABLES[7][(x & 0xFF) as usize]
            ^ TABLES[6][((x >> 8) & 0xFF) as usize]
            ^ TABLES[5][((x >> 16) & 0xFF) as usize]
            ^ TABLES[4][((x >> 24) & 0xFF) as usize]
            ^ TABLES[3][((x >> 32) & 0xFF) as usize]
            ^ TABLES[2][((x >> 40) & 0xFF) as usize]
            ^ TABLES[1][((x >> 48) & 0xFF) as usize]
            ^ TABLES[0][(x >> 56) as usize];
    }
    for &byte in words.remainder() {
        crc = TABLES[0][((crc ^ byte as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook one-lookup-per-byte loop the sliced version must match.
    fn crc64_bytewise(data: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &byte in data {
            crc = TABLES[0][((crc ^ byte as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// Deterministic xorshift64 bytes, so the differential tests need no
    /// RNG dependency.
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn first_table_is_the_bitwise_polynomial_division() {
        for (i, &entry) in TABLES[0].iter().enumerate() {
            let mut crc = i as u64;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            assert_eq!(entry, crc, "TABLES[0][{i}]");
        }
    }

    #[test]
    fn sliced_matches_bytewise_for_every_short_length() {
        let buf = noise(64, 0x9E37_79B9_7F4A_7C15);
        for len in 0..=buf.len() {
            assert_eq!(crc64(&buf[..len]), crc64_bytewise(&buf[..len]), "len {len}");
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_unaligned_sub_slices() {
        let buf = noise(300, 42);
        for start in 0..16 {
            for end in [
                start,
                start + 1,
                start + 7,
                start + 8,
                start + 9,
                150,
                299,
                300,
            ] {
                let s = &buf[start..end];
                assert_eq!(crc64(s), crc64_bytewise(s), "[{start}..{end}]");
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_a_mebibyte() {
        let buf = noise(1 << 20, 7);
        assert_eq!(crc64(&buf), crc64_bytewise(&buf));
        assert_eq!(crc64(&buf[3..]), crc64_bytewise(&buf[3..]));
    }

    #[test]
    fn matches_the_crc64_xz_check_value() {
        // The catalogue check value for CRC-64/XZ over "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn empty_input_hashes_to_zero() {
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn every_single_byte_change_is_detected() {
        let base = b"CONVSTENCIL-CKPT payload with some digits 0123456789";
        let reference = crc64(base);
        for pos in 0..base.len() {
            for flip in 1..=255u8 {
                let mut copy = base.to_vec();
                copy[pos] ^= flip;
                assert_ne!(
                    crc64(&copy),
                    reference,
                    "single-byte corruption at {pos} (xor {flip:#x}) went undetected"
                );
            }
        }
    }
}
