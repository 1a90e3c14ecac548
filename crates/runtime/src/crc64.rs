//! CRC-64/XZ (ECMA-182 polynomial, reflected) for checkpoint integrity.
//!
//! Chosen over a fletcher/adler-style sum because CRC-64 detects *every*
//! error burst shorter than 64 bits — in particular any single corrupted
//! byte anywhere in a checkpoint payload, which is exactly the property
//! the crash-consistency tests assert.
//!
//! On x86-64 CPUs with `pclmulqdq`, inputs of 128 bytes or more are
//! folded with carry-less multiplies: eight 16-byte accumulators advance
//! 128 bytes per step, are folded into one 16-byte value, and slicing-by-8
//! finishes those 16 bytes and the tail. Everywhere else (other
//! architectures, CPUs without the instruction, short inputs) slicing-by-8
//! runs alone: eight 256-entry tables, built at compile time, where
//! `TABLES[k][b]` is the CRC state contributed by byte `b` followed by `k`
//! zero bytes. XOR-ing one little-endian 8-byte word into the state and
//! summing eight lookups advances the CRC by 8 bytes at once; a bytewise
//! loop over `TABLES[0]` finishes the tail. Both give the CRC-64/XZ value
//! the plain one-lookup-per-byte loop computes.

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
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 128 && std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: the running CPU supports PCLMULQDQ, checked just above.
        return !unsafe { clmul::fold(!0, data) };
    }
    crc64_sliced(data)
}

/// CRC-64/XZ by slicing-by-8 alone: the fallback of [`crc64`].
fn crc64_sliced(data: &[u8]) -> u64 {
    !update_sliced(!0, data)
}

/// Advance the raw CRC state `crc` over `data` (no init, no xorout).
fn update_sliced(mut crc: u64, data: &[u8]) -> u64 {
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
    crc
}

/// The carry-less-multiply fold. Read 16 input bytes as a 128-bit
/// reflected polynomial `X = H·x^64 + L`: the low lane holds `H` (the
/// earlier bytes), the high lane `L`. Moving `X` forward by `d` bits is
/// `H·x^(d+64) + L·x^d mod P`, two 64x64-bit carry-less products that fit
/// in 128 bits. The carry-less product of two reflected 64-bit values,
/// read as a reflected 128-bit value, is the true product times `x`, so
/// the lane constants are one power lower, `x^(d+63)` and `x^(d-1)`:
/// 1087 and 1023 for the 1024-bit stride, 191 and 127 for one block.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{update_sliced, POLY};
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_set_epi64x, _mm_unpackhi_epi64,
        _mm_xor_si128,
    };

    /// `x^n mod P` in the reflected form: bit `i` is the coefficient of
    /// `x^(63 - i)`, so `x^0` is the top bit and multiplying by `x` is one
    /// step of the bitwise CRC loop.
    const fn x_pow_mod(n: u32) -> u64 {
        let mut r = 1u64 << 63;
        let mut i = 0;
        while i < n {
            r = if r & 1 == 1 { (r >> 1) ^ POLY } else { r >> 1 };
            i += 1;
        }
        r
    }

    /// `[low lane, high lane]` constants for moving 128 bytes forward.
    const STRIDE: [u64; 2] = [x_pow_mod(1087), x_pow_mod(1023)];
    /// The same for moving 16 bytes forward.
    const BLOCK: [u64; 2] = [x_pow_mod(191), x_pow_mod(127)];

    #[target_feature(enable = "pclmulqdq")]
    fn lanes(k: [u64; 2]) -> __m128i {
        _mm_set_epi64x(k[1] as i64, k[0] as i64)
    }

    /// 16 bytes, little-endian, as one 128-bit value.
    #[target_feature(enable = "pclmulqdq")]
    fn load(b: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `x` moved forward by the distance `k` encodes, plus `next`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold16(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advance the raw CRC state `init` over `data`, which must hold at
    /// least 128 bytes. The state is XOR-ed into the first 8 bytes, so
    /// the rest of the fold runs from state 0.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn fold(init: u64, data: &[u8]) -> u64 {
        let mut blocks = data.chunks_exact(128);
        let first = blocks.next().expect("the fold needs at least 128 bytes");
        let mut acc: [__m128i; 8] = std::array::from_fn(|i| load(&first[16 * i..]));
        acc[0] = _mm_xor_si128(acc[0], _mm_set_epi64x(0, init as i64));
        let stride = lanes(STRIDE);
        for block in &mut blocks {
            for (a, chunk) in acc.iter_mut().zip(block.chunks_exact(16)) {
                *a = fold16(*a, stride, load(chunk));
            }
        }
        let step = lanes(BLOCK);
        let mut folded = acc[1..].iter().fold(acc[0], |r, &a| fold16(r, step, a));
        let mut pairs = blocks.remainder().chunks_exact(16);
        for chunk in &mut pairs {
            folded = fold16(folded, step, load(chunk));
        }
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&(_mm_cvtsi128_si64(folded) as u64).to_le_bytes());
        let hi = _mm_unpackhi_epi64(folded, folded);
        bytes[8..].copy_from_slice(&(_mm_cvtsi128_si64(hi) as u64).to_le_bytes());
        update_sliced(update_sliced(0, &bytes), pairs.remainder())
    }
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
            let s = &buf[..len];
            assert_eq!(crc64_sliced(s), crc64_bytewise(s), "len {len}");
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
                assert_eq!(crc64_sliced(s), crc64_bytewise(s), "[{start}..{end}]");
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_a_mebibyte() {
        let buf = noise(1 << 20, 7);
        assert_eq!(crc64_sliced(&buf), crc64_bytewise(&buf));
        assert_eq!(crc64_sliced(&buf[3..]), crc64_bytewise(&buf[3..]));
    }

    #[test]
    fn folded_matches_sliced_on_every_length_and_offset() {
        let buf = noise(1024 + 16, 0xC0FF_EE00_D15E_A5E5);
        for start in 0..16 {
            for len in 0..=1024 {
                let s = &buf[start..start + len];
                assert_eq!(crc64(s), crc64_sliced(s), "[{start}..+{len}]");
            }
        }
    }

    #[test]
    fn folded_matches_sliced_on_four_mebibytes() {
        let buf = noise(4 << 20, 11);
        assert_eq!(crc64(&buf), crc64_sliced(&buf));
    }

    #[test]
    fn matches_the_crc64_xz_check_value() {
        // The catalogue check value for CRC-64/XZ over "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64_sliced(b"123456789"), 0x995D_C9BB_DF19_39FA);
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
