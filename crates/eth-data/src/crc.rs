//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! behind every integrity trailer in the harness: `.ebd` data objects
//! ([`crate::io::binary`]), recorded time-series blocks
//! (`eth-sim::timeseries`), and campaign journal records
//! (`eth-core::journal`).
//!
//! Implemented in-tree so the workspace stays dependency-free, with one
//! runtime dispatch in [`Crc32::update`]:
//!
//! - **x86-64 with PCLMULQDQ, inputs of at least 64 bytes:** four 128-bit
//!   accumulators folded with carry-less multiplies, then a Barrett
//!   reduction to 32 bits (Intel, "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ Instruction", 2009, bit-reflected
//!   variant).
//! - **Everything else:** the classic bytewise loop over a 256-entry table
//!   built at compile time. It also finishes the fold's last few bytes
//!   and is the fold's test oracle.
//!
//! This is an error-*detection* code, not a cryptographic hash: it catches
//! bit flips, truncation, and torn writes, which is exactly the at-rest /
//! on-the-wire corruption model the fault plans inject.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// Bytewise table loop over the raw (pre-inverted) register.
fn update_bytewise(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = (state >> 8) ^ TABLE[((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    //! The PCLMULQDQ fold. Constants are `x^k mod P(x)` for the fold
    //! distances, bit-reflected, as published with the Intel paper (and
    //! used by the Linux and zlib kernels for this polynomial).

    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold distance 4×128 bits: `x^(512+32)` and `x^(512-32)` mod P.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// Fold distance 128 bits: `x^(128+32)` and `x^(128-32)` mod P.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// 64 → 32-bit step: `x^64` mod P.
    const K5: i64 = 0x1_63CD_6124;
    /// Barrett constants: P(x) itself and `floor(x^64 / P(x))`, reflected.
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// Smallest input the kernel accepts: it seeds its four accumulators
    /// from the first 64 bytes.
    pub const MIN_LEN: usize = 64;

    /// Whether this CPU can run [`update`]. `std` caches the CPUID probe,
    /// so this is one relaxed load per call.
    pub fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advance the raw CRC register `state` over `data`. Callers outside
    /// a `pclmulqdq,sse4.1` context must check [`available`] first: the
    /// compiler makes them wrap the call in `unsafe`.
    ///
    /// # Panics
    /// If `data` is shorter than [`MIN_LEN`].
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub fn update(state: u32, mut data: &[u8]) -> u32 {
        assert!(data.len() >= MIN_LEN, "fold kernel needs {MIN_LEN} bytes");
        let mut x3 = load(&mut data);
        let mut x2 = load(&mut data);
        let mut x1 = load(&mut data);
        let mut x0 = load(&mut data);
        // The register is the polynomial's initial remainder: XOR it into
        // the first 32 message bits.
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= 64 {
            x3 = fold(x3, load(&mut data), k1k2);
            x2 = fold(x2, load(&mut data), k1k2);
            x1 = fold(x1, load(&mut data), k1k2);
            x0 = fold(x0, load(&mut data), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        while data.len() >= 16 {
            x = fold(x, load(&mut data), k3k4);
        }

        // 128 → 64 bits, then 64 → 32 bits ahead of the reduction.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction, bit-reflected: T1 = (R mod x^32)·µ,
        // T2 = (T1 mod x^32)·P, remainder in the upper word of R ^ T2.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let state = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        super::update_bytewise(state, data)
    }

    /// `acc · K + next`: carry-less-multiply both halves of `acc` by their
    /// fold constants and add (XOR) the next block.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Unaligned 16-byte load off the front of `data`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(data: &mut &[u8]) -> __m128i {
        let (head, rest) = data.split_at(16);
        *data = rest;
        // SAFETY: `head` is exactly 16 readable bytes, and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(head.as_ptr().cast::<__m128i>()) }
    }
}

/// Incremental CRC-32 state, for checksumming data produced in pieces.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed more bytes.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= clmul::MIN_LEN && clmul::available() {
            // SAFETY: `available` confirmed PCLMULQDQ and SSE4.1, and the
            // input meets the kernel's minimum length.
            self.state = unsafe { clmul::update(self.state, data) };
            return;
        }
        self.state = update_bytewise(self.state, data);
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// CRC-32 of one contiguous buffer.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Finished CRC-32 of `data` through one kernel over the raw register.
    fn via(kernel: impl Fn(u32, &[u8]) -> u32, data: &[u8]) -> u32 {
        kernel(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// The fold kernel, called directly, or `None` on a CPU without it.
    #[cfg(target_arch = "x86_64")]
    fn fold(data: &[u8]) -> Option<u32> {
        let kernel = |s, d: &[u8]| {
            // SAFETY: only called after `available` below.
            unsafe { clmul::update(s, d) }
        };
        (clmul::available() && data.len() >= clmul::MIN_LEN).then(|| via(kernel, data))
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn fold(_: &[u8]) -> Option<u32> {
        None
    }

    /// Deterministic non-periodic test bytes.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// Every kernel that can run `data` agrees with the bytewise oracle.
    fn assert_kernels_agree(data: &[u8]) {
        let oracle = via(update_bytewise, data);
        if let Some(folded) = fold(data) {
            assert_eq!(folded, oracle, "fold, len {}", data.len());
        }
        assert_eq!(crc32(data), oracle, "dispatch, len {}", data.len());
    }

    #[test]
    fn known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        for split in [0, 1, 7, 100, 4095, 4096] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn detects_any_single_bit_flip() {
        let data = b"campaign journal record".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc32(&bad), clean, "flip at byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn kernels_agree_on_every_length_to_1024() {
        let data = noise(1024);
        for len in 0..=1024 {
            assert_kernels_agree(&data[..len]);
        }
    }

    #[test]
    fn kernels_agree_on_every_start_offset() {
        // The fold's loads are unaligned: shift the start through a whole
        // 16-byte period, at lengths on both sides of the fold's block
        // sizes.
        let data = noise(1024 + 16);
        for offset in 0..16 {
            for len in [63, 64, 65, 79, 80, 127, 128, 129, 255, 256, 1000, 1024] {
                assert_kernels_agree(&data[offset..offset + len]);
            }
        }
    }

    /// Where `Crc32::update` switches to the fold on x86-64.
    const DISPATCH_LEN: usize = 64;
    #[cfg(target_arch = "x86_64")]
    const _: () = assert!(DISPATCH_LEN == clmul::MIN_LEN);

    #[test]
    fn incremental_splits_around_the_dispatch_threshold() {
        let data = noise(3 * DISPATCH_LEN + 5);
        let oracle = via(update_bytewise, &data);
        let t = DISPATCH_LEN;
        for split in [0, 1, t - 1, t, t + 1, 2 * t - 1, 2 * t, 2 * t + 1, data.len()] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), oracle, "split at {split}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn kernels_agree_on_random_buffers(
            data in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..65_536),
        ) {
            assert_kernels_agree(&data);
        }
    }
}
