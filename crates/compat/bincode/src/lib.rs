//! Offline stand-in for the `bincode` crate.
//!
//! Thin wrapper over the workspace's `serde` stand-in, which already encodes
//! to a compact bincode-like binary format (fixed-width little-endian
//! integers, `u64` length prefixes, `u32` enum tags). Provides the two
//! familiar entry points (`serialize` / `deserialize`) used by the wire codec
//! and tests.

pub use serde::Error;

/// Encodes `value` to a byte vector. Infallible for this format; the
/// `Result` return mirrors real bincode's signature.
pub fn serialize<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    Ok(serde::to_bytes(value))
}

/// Decodes a `T` from `bytes`, requiring full consumption of the input.
pub fn deserialize<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    serde::from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    #[test]
    fn round_trip() {
        let v = vec![(1u64, "a".to_string()), (2, "b".to_string())];
        let bytes = super::serialize(&v).unwrap();
        let back: Vec<(u64, String)> = super::deserialize(&bytes).unwrap();
        assert_eq!(back, v);
    }
}
