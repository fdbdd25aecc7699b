//! CRC32C (Castagnoli, reflected polynomial `0x82F6_3B78`), the checksum
//! iSCSI, ext4 and etcd's WAL use.
//!
//! On x86_64 the SSE4.2 `crc32` instruction folds eight bytes per step
//! (detected once at runtime); elsewhere a 256-entry table folds one byte.
//! Both paths compute the same function, pinned by the RFC 3720 vectors and
//! a property test that they agree on every length below 4 KiB.

/// CRC32C of the concatenation of `parts`.
pub(crate) fn crc32c(parts: &[&[u8]]) -> u32 {
    !parts.iter().fold(!0, |crc, part| update(crc, part))
}

/// Folds `data` into the raw (pre-inverted) CRC register.
fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if sse42::available() {
        // SAFETY: `available` verified the sse4.2 feature.
        return unsafe { sse42::update(crc, data) };
    }
    update_table(crc, data)
}

/// The byte-at-a-time table, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// The portable path: one table lookup per byte.
fn update_table(crc: u32, data: &[u8]) -> u32 {
    data.iter().fold(crc, |crc, &b| {
        (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize]
    })
}

/// The SSE4.2 `crc32` instruction, used when the CPU reports it at runtime.
#[cfg(target_arch = "x86_64")]
mod sse42 {
    use core::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    use std::sync::atomic::{AtomicU8, Ordering};

    /// Cached runtime detection: 2 = not yet probed, 1 = available, 0 = not.
    static AVAILABLE: AtomicU8 = AtomicU8::new(2);

    /// Whether this CPU has SSE4.2.
    pub fn available() -> bool {
        match AVAILABLE.load(Ordering::Relaxed) {
            2 => {
                let ok = std::arch::is_x86_feature_detected!("sse4.2");
                AVAILABLE.store(ok as u8, Ordering::Relaxed);
                ok
            }
            v => v == 1,
        }
    }

    /// Folds `data` into the raw CRC register, eight bytes per instruction.
    ///
    /// # Safety
    /// Caller must have checked [`available`] (sse4.2).
    #[target_feature(enable = "sse4.2")]
    pub unsafe fn update(crc: u32, data: &[u8]) -> u32 {
        let mut words = data.chunks_exact(8);
        let mut crc = u64::from(crc);
        for word in &mut words {
            crc = _mm_crc32_u64(crc, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let mut crc = crc as u32;
        for &b in words.remainder() {
            crc = _mm_crc32_u8(crc, b);
        }
        crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// RFC 3720 appendix B.4, plus the CRC catalogue's check value.
    #[test]
    fn rfc_3720_vectors() {
        assert_eq!(crc32c(&[&[0u8; 32]]), 0x8A91_36AA);
        assert_eq!(crc32c(&[&[0xFFu8; 32]]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&[&ascending]), 0x46DD_794E);
        let descending: Vec<u8> = (0..32).rev().collect();
        assert_eq!(crc32c(&[&descending]), 0x113F_DB5C);
        assert_eq!(crc32c(&[b"123456789"]), 0xE306_9283);
        assert_eq!(crc32c(&[]), 0);
    }

    #[test]
    fn parts_fold_like_their_concatenation() {
        let data: Vec<u8> = (0..100u8).collect();
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32c(&[a, b]), crc32c(&[&data]), "split at {split}");
        }
    }

    proptest! {
        /// The hardware path and the table compute the same register for
        /// every length below 4 KiB (and any start state); on a CPU without
        /// SSE4.2 there is nothing to compare.
        #[test]
        fn hardware_and_table_agree(seed in any::<u64>(), state in any::<u32>()) {
            #[cfg(target_arch = "x86_64")]
            if sse42::available() {
                let mut x = seed | 1;
                let data: Vec<u8> = (0..4096)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x as u8
                    })
                    .collect();
                // The table register over every prefix, one byte at a time.
                let mut table = state;
                for (len, byte) in data.iter().enumerate() {
                    // SAFETY: availability checked above.
                    let hw = unsafe { sse42::update(state, &data[..len]) };
                    prop_assert_eq!(hw, table, "length {}", len);
                    table = update_table(table, std::slice::from_ref(byte));
                }
            }
        }
    }
}
