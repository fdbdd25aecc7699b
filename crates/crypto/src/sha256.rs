//! A from-scratch SHA-256 implementation (FIPS 180-4).
//!
//! PrestigeBFT uses SHA-256 both for message/block digests and as the hash
//! function of the reputation-penalty proof-of-work puzzle (§4.2.4's "A note
//! on using Proof-of-Work": the probability of a success per attempt is
//! `2^(-8·rp)`). Implementing it here, rather than pulling in an external
//! crate, keeps the substrate self-contained; correctness is pinned by the
//! FIPS 180-4 / RFC 6234 test vectors in this module's tests.

/// Incremental SHA-256 hasher.
///
/// ```
/// use prestige_crypto::Sha256;
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// fn hex(bytes: &[u8]) -> String {
///     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered but not yet compressed (always < 64).
    buffer: [u8; 64],
    buffer_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

/// SHA-256 round constants (first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the 32-byte digest.
    ///
    /// An input that fits one block with its padding (≤ 55 bytes, such as
    /// a 32-byte request payload) is padded in place and compressed once,
    /// without the streaming buffer.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        if let Some(block) = Self::one_block(data) {
            let mut state = H0;
            Self::compress_many(&mut state, &block);
            return Self::output(&state);
        }
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// `data` with its padding as one block, when it fits in one.
    fn one_block(data: &[u8]) -> Option<[u8; 64]> {
        if data.len() > 55 {
            return None;
        }
        let mut block = [0u8; 64];
        block[..data.len()].copy_from_slice(data);
        block[data.len()] = 0x80;
        block[56..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        Some(block)
    }

    /// The digest bytes of a final state.
    fn output(state: &[u32; 8]) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill the partial buffer first.
        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                Self::compress_many(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }

        // Compress aligned full blocks directly from the input — no staging
        // copy into the internal buffer — and in one batch, so the hardware
        // path loads and stores the state registers once per `update` call.
        let full = input.len() - input.len() % 64;
        if full > 0 {
            Self::compress_many(&mut self.state, &input[..full]);
            input = &input[full..];
        }

        // Buffer the tail.
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Finishes the hash and returns the digest, consuming the hasher state.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);

        // Append the 0x80 terminator.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        // Pad with zeros until the message length is ≡ 56 (mod 64), then
        // append the 64-bit big-endian bit length.
        let pad_len = if self.buffer_len < 56 {
            56 - self.buffer_len
        } else {
            120 - self.buffer_len
        };
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update_no_len(&pad[..pad_len + 8]);
        Self::output(&self.state)
    }

    /// `update` without touching `total_len` (used only for padding).
    fn update_no_len(&mut self, data: &[u8]) {
        let saved = self.total_len;
        self.update(data);
        self.total_len = saved;
    }

    /// Compresses a run of whole 64-byte blocks (`data.len() % 64 == 0`).
    /// Dispatches to the SHA-NI hardware implementation when the CPU has it
    /// (detected once at runtime), falling back to the portable scalar
    /// compression function.
    fn compress_many(state: &mut [u32; 8], data: &[u8]) {
        debug_assert_eq!(data.len() % 64, 0);
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            // SAFETY: `available` verified the sha/ssse3/sse4.1 features.
            unsafe { shani::compress_many(state, data) };
            return;
        }
        for block in data.chunks_exact(64) {
            Self::compress(state, block.try_into().expect("64-byte chunk"));
        }
    }

    /// The portable SHA-256 compression function over one 64-byte block.
    /// Takes the state and block as separate borrows so callers can compress
    /// straight out of the internal buffer or an input slice without copying.
    fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// Hardware-accelerated compression via the x86 SHA extensions
/// (`sha256rnds2` / `sha256msg1` / `sha256msg2`), used when the CPU reports
/// them at runtime. Same function, ~4x the throughput of the scalar rounds;
/// output equality is pinned by the FIPS vectors and the incremental-hashing
/// property tests, which exercise whichever path the build machine runs.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use core::arch::x86_64::*;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// Cached runtime detection: 2 = not yet probed, 1 = available, 0 = not.
    static AVAILABLE: AtomicU8 = AtomicU8::new(2);

    /// Whether the SHA extensions (and the SSE levels the kernel needs) are
    /// present on this CPU.
    pub fn available() -> bool {
        match AVAILABLE.load(Ordering::Relaxed) {
            2 => {
                let ok = std::arch::is_x86_feature_detected!("sha")
                    && std::arch::is_x86_feature_detected!("ssse3")
                    && std::arch::is_x86_feature_detected!("sse4.1");
                AVAILABLE.store(ok as u8, Ordering::Relaxed);
                ok
            }
            v => v == 1,
        }
    }

    /// Compresses a run of whole 64-byte blocks.
    ///
    /// # Safety
    /// Caller must have checked [`available`] (sha + ssse3 + sse4.1).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub unsafe fn compress_many(state: &mut [u32; 8], data: &[u8]) {
        // Byte shuffle turning little-endian loads into the big-endian word
        // order the SHA instructions expect.
        let mask = _mm_set_epi64x(
            0x0C0D_0E0F_0809_0A0Bu64 as i64,
            0x0405_0607_0001_0203u64 as i64,
        );

        // Repack [a,b,c,d]/[e,f,g,h] into the ABEF/CDGH register layout.
        let dcba = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i);
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        // Four consecutive round constants as one vector.
        macro_rules! k4 {
            ($i:expr) => {
                _mm_set_epi32(
                    K[4 * $i + 3] as i32,
                    K[4 * $i + 2] as i32,
                    K[4 * $i + 1] as i32,
                    K[4 * $i] as i32,
                )
            };
        }

        // Four rounds with message words `$w` and constant group `$i`.
        macro_rules! rounds4 {
            ($w:expr, $i:expr) => {{
                let wk = _mm_add_epi32($w, k4!($i));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }};
        }

        // Message-schedule extension: W[i..i+4] from the previous 16 words.
        #[inline(always)]
        unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
            let t = _mm_sha256msg1_epu32(w0, w1);
            let t = _mm_add_epi32(t, _mm_alignr_epi8(w3, w2, 4));
            _mm_sha256msg2_epu32(t, w3)
        }

        for block in data.chunks_exact(64) {
            let abef_save = abef;
            let cdgh_save = cdgh;
            let p = block.as_ptr() as *const __m128i;
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), mask);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask);
            let mut w4;

            rounds4!(w0, 0);
            rounds4!(w1, 1);
            rounds4!(w2, 2);
            rounds4!(w3, 3);
            w4 = schedule(w0, w1, w2, w3);
            rounds4!(w4, 4);
            w0 = schedule(w1, w2, w3, w4);
            rounds4!(w0, 5);
            w1 = schedule(w2, w3, w4, w0);
            rounds4!(w1, 6);
            w2 = schedule(w3, w4, w0, w1);
            rounds4!(w2, 7);
            w3 = schedule(w4, w0, w1, w2);
            rounds4!(w3, 8);
            w4 = schedule(w0, w1, w2, w3);
            rounds4!(w4, 9);
            w0 = schedule(w1, w2, w3, w4);
            rounds4!(w0, 10);
            w1 = schedule(w2, w3, w4, w0);
            rounds4!(w1, 11);
            w2 = schedule(w3, w4, w0, w1);
            rounds4!(w2, 12);
            w3 = schedule(w4, w0, w1, w2);
            rounds4!(w3, 13);
            w4 = schedule(w0, w1, w2, w3);
            rounds4!(w4, 14);
            w0 = schedule(w1, w2, w3, w4);
            rounds4!(w0, 15);

            abef = _mm_add_epi32(abef, abef_save);
            cdgh = _mm_add_epi32(cdgh, cdgh_save);
        }

        // Unpack ABEF/CDGH back to [a,b,c,d]/[e,f,g,h].
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, hgfe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS 180-4 / RFC 6234 test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn long_message() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let one_shot = Sha256::digest(&data);
        let mut h = Sha256::new();
        for chunk in data.chunks(17) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), one_shot);
    }

    /// Bytes `0..len` of a fixed pattern, for the length sweeps below.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    /// The streaming digest of `data`, fed in two pieces split at `cut`.
    fn streamed(data: &[u8], cut: usize) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        h.finalize()
    }

    /// `data` with its FIPS 180-4 padding, built independently of the
    /// hasher: the 0x80 terminator, zeros up to 56 mod 64, the bit length.
    fn padded(data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        out.push(0x80);
        while out.len() % 64 != 56 {
            out.push(0);
        }
        out.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        out
    }

    #[test]
    fn boundary_lengths_55_56_63_64_65() {
        // Lengths around the padding boundary are where SHA-256 implementations
        // typically go wrong, and 55 is where the one-block path ends: pin
        // every length through two blocks against the incremental path.
        for len in 0..=130usize {
            let data = pattern(len);
            let a = Sha256::digest(&data);
            for cut in [0, len / 2, len] {
                assert_eq!(streamed(&data, cut), a, "mismatch at length {len}");
            }
        }
    }

    /// The portable compression path alone, over every length the one-block
    /// path and its neighbours cover, gives the one-shot digest (which the
    /// test above pins to the streaming one); so does the hardware (SHA-NI)
    /// path where the CPU has it, and the two agree on every state
    /// transition, not just on full digests.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_and_scalar_compression_agree() {
        for len in 0..=130usize {
            let data = pattern(len);
            let message = padded(&data);
            let mut soft = H0;
            for block in message.chunks_exact(64) {
                Sha256::compress(&mut soft, block.try_into().unwrap());
            }
            assert_eq!(
                Sha256::output(&soft),
                Sha256::digest(&data),
                "scalar, length {len}"
            );
            if let Some(block) = Sha256::one_block(&data) {
                assert_eq!(
                    block.as_slice(),
                    message.as_slice(),
                    "padding, length {len}"
                );
            }
            if super::shani::available() {
                let mut hw = H0;
                // SAFETY: availability checked above.
                unsafe { super::shani::compress_many(&mut hw, &message) };
                assert_eq!(hw, soft, "hardware, length {len}");
            }
        }
        if !super::shani::available() {
            return; // nothing to compare on this machine
        }
        let data = pattern(64 * 7);
        for blocks in 1..=7usize {
            let mut hw = H0;
            // SAFETY: availability checked above.
            unsafe { super::shani::compress_many(&mut hw, &data[..64 * blocks]) };
            let mut soft = H0;
            for block in data[..64 * blocks].chunks_exact(64) {
                Sha256::compress(&mut soft, block.try_into().unwrap());
            }
            assert_eq!(hw, soft, "divergence at {blocks} blocks");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(
            Sha256::digest(b"view change"),
            Sha256::digest(b"view chang")
        );
    }
}
