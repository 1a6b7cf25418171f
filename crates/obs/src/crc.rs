//! The platform's one checksum: CRC-32 (IEEE 802.3, reflected polynomial
//! `0xEDB88320`), at two speeds. Long inputs on an `x86_64` core with
//! carry-less multiply fold 16-byte blocks ([`clmul`]); everything else —
//! short inputs, other cores, and the tail the fold leaves — runs
//! slicing-by-8 over `const` tables.
//!
//! It lives here because `cdp-obs` is the lowest crate both users reach: the
//! flight recorder's segment trailers (this crate) and `cdp-storage`'s spill
//! chunks, WAL frames and checkpoint trailers. The value is bit-for-bit the
//! bitwise definition's, so no stored byte changes with the kernel.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, which lets eight input bytes fold in one
/// step.
static TABLES: [[u32; 256]; 8] = make_tables();

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
}

/// Advances the running (un-inverted) register over `data`, eight bytes a
/// step: the body for short inputs and for whatever the fold leaves.
fn table_update(mut crc: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    crc
}

/// Inputs shorter than this stay on the table loop: the fold's set-up and
/// its 128 → 32-bit reduction only pay for themselves over a few lanes.
const CLMUL_MIN_LEN: usize = 128;

/// CRC-32 (IEEE 802.3) of `data`: `crc32(b"123456789") == 0xCBF4_3926`.
pub fn crc32(data: &[u8]) -> u32 {
    let (mut crc, mut rest) = (0xFFFF_FFFFu32, data);
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN_LEN && clmul::available() {
        // SAFETY: `available` just saw both CPU features `fold` is compiled for.
        (crc, rest) = unsafe { clmul::fold(crc, data) };
    }
    !table_update(crc, rest)
}

/// Folding by carry-less multiplication (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ", Intel 2009), with that paper's
/// constants for the reflected IEEE polynomial — the ones zlib-ng and
/// `crc32fast` carry. A 128-bit lane moves `n` bits ahead in the message by
/// multiplying its halves by `x^(n+32) mod P` and `x^(n-32) mod P` and adding
/// the products, so four independent lanes fold 64 bytes a round, then
/// collapse into one, which Barrett reduction brings back to the 32-bit
/// register. All constants are stored bit-reflected, as the register is.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold by 4 lanes (512 bits): `x^(512+32) mod P`, `x^(512-32) mod P`.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold by 1 lane (128 bits): `x^(128+32) mod P`, `x^(128-32) mod P`.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// 96 → 64 bits: `x^64 mod P`.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial with its `x^32` term, and Barrett's `⌊x^64 / P⌋`.
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Whether the running CPU has what [`fold`] is compiled for (std caches
    /// the CPUID answer: two relaxed loads).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, `loadu` asks no alignment,
        // and SSE2 is part of the x86_64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `lane` moved ahead by the distance `keys` encodes, onto `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold16(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(lane, keys, 0x00);
        let hi = _mm_clmulepi64_si128(lane, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Folds every whole 16-byte block of `data` into the running register
    /// `crc` and returns it with the unfolded tail (< 16 bytes); under 64
    /// bytes there are no four lanes to start from and all of `data` is tail.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) fn fold(crc: u32, data: &[u8]) -> (u32, &[u8]) {
        let (blocks, tail) = data.as_chunks::<16>();
        let (quads, singles) = blocks.as_chunks::<4>();
        let Some((first, quads)) = quads.split_first() else {
            return (crc, data);
        };
        let [mut x0, mut x1, mut x2, mut x3] = [
            _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(crc as i32)),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        let k1k2 = _mm_set_epi64x(K2, K1);
        for q in quads {
            x0 = fold16(x0, load(&q[0]), k1k2);
            x1 = fold16(x1, load(&q[1]), k1k2);
            x2 = fold16(x2, load(&q[2]), k1k2);
            x3 = fold16(x3, load(&q[3]), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold16(fold16(fold16(x0, x1, k3k4), x2, k3k4), x3, k3k4);
        for block in singles {
            x = fold16(x, load(block), k3k4);
        }
        // 128 → 96 → 64 bits, then Barrett: T1 = ⌊R mod x^32⌋·µ,
        // T2 = ⌊T1 mod x^32⌋·P, register = bits 32..64 of R ^ T2.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), p_mu, 0x00);
        (_mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time definition every stored checksum was written with.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    /// The table loop alone, whatever the host.
    fn crc32_table(data: &[u8]) -> u32 {
        !table_update(0xFFFF_FFFF, data)
    }

    /// The carry-less fold called directly (so from 64 bytes up, below the
    /// dispatch threshold too); `None`, with a note, on a host without it.
    fn crc32_clmul(data: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            // SAFETY: `available` just saw the CPU features `fold` needs.
            let (crc, tail) = unsafe { clmul::fold(0xFFFF_FFFF, data) };
            assert!(tail.len() < 16 || data.len() < 64, "fold left whole blocks");
            return Some(!table_update(crc, tail));
        }
        let _ = data;
        None
    }

    /// Asserts all three entry points against the bitwise definition.
    fn assert_all_bodies(data: &[u8], what: &str) {
        let expected = crc32_reference(data);
        assert_eq!(crc32(data), expected, "crc32, {what}");
        assert_eq!(crc32_table(data), expected, "table loop, {what}");
        if let Some(folded) = crc32_clmul(data) {
            assert_eq!(folded, expected, "carry-less fold, {what}");
        }
    }

    fn random_bytes(n: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_all_bodies(b"123456789", "check string");
        if crc32_clmul(b"").is_none() {
            println!("note: no pclmulqdq + sse4.1 on this host, carry-less body not exercised");
        }
    }

    #[test]
    fn both_bodies_equal_bitwise_at_every_length_and_alignment() {
        // One pseudo-random buffer, every (length, start offset) pair: the
        // 8-byte step, the 64- and 16-byte folds, their remainders and every
        // boundary between them get hit at every phase.
        let buf = random_bytes(4096 + 8);
        for len in 0..=4096usize {
            for align in 0..8usize {
                assert_all_bodies(
                    &buf[align..align + len],
                    &format!("len {len} align {align}"),
                );
            }
        }
    }

    #[test]
    fn both_bodies_equal_bitwise_at_loop_boundaries_and_on_constant_buffers() {
        let buf = random_bytes((1 << 20) + 5);
        let boundaries = [15, 16, 17, 63, 64, 65, 127, 128, 129, 191, 192, 193];
        for len in boundaries.into_iter().chain([buf.len()]) {
            assert_all_bodies(&buf[..len], &format!("random, len {len}"));
            assert_all_bodies(&vec![0x00; len.min(4096)], &format!("zeros, len {len}"));
            assert_all_bodies(&vec![0xFF; len.min(4096)], &format!("ones, len {len}"));
        }
    }

    #[test]
    fn dispatch_threshold_is_covered_from_both_sides() {
        // 127 bytes takes the table loop, 128 the fold (where the host has
        // one): `crc32` itself, not a body called directly.
        let buf = random_bytes(CLMUL_MIN_LEN);
        for len in [CLMUL_MIN_LEN - 1, CLMUL_MIN_LEN] {
            assert_eq!(
                crc32(&buf[..len]),
                crc32_reference(&buf[..len]),
                "len {len}"
            );
        }
    }

    proptest! {
        #[test]
        fn both_bodies_equal_bitwise_on_random_bytes(
            bytes in prop::collection::vec(0u8..=255, 0..4105),
            align in 0usize..8,
        ) {
            let slice = &bytes[align.min(bytes.len())..];
            let expected = crc32_reference(slice);
            prop_assert_eq!(crc32(slice), expected);
            prop_assert_eq!(crc32_table(slice), expected);
            if let Some(folded) = crc32_clmul(slice) {
                prop_assert_eq!(folded, expected);
            }
        }
    }
}
