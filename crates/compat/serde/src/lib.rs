//! Offline stand-in for the `serde` crate.
//!
//! The build environment for this repository has no access to crates.io, so
//! the workspace vendors a minimal, self-contained replacement that keeps the
//! familiar surface (`use serde::{Serialize, Deserialize};` plus the derive
//! macros) while implementing a single, fixed, compact binary data format
//! rather than serde's pluggable serializer architecture:
//!
//! * integers — fixed-width little-endian,
//! * floats — IEEE-754 little-endian bits,
//! * `bool` — one byte (`0`/`1`),
//! * `String` / `Vec<T>` / `Arc<[u8]>` / maps / sets — `u64` length prefix,
//!   then elements (a `u8` or `bool` sequence is copied or checked as one
//!   run, with the same bytes as element by element),
//! * `Option<T>` — one tag byte, then the value if present,
//! * structs — fields in declaration order,
//! * enums — `u32` variant tag in declaration order, then the fields.
//!
//! The format is the wire format of `prestige-net`'s codec layer (via the
//! sibling `bincode` stand-in). It is deliberately not self-describing:
//! framing, versioning, and length guards are the transport's job
//! (`prestige_net::frame`).
//!
//! The run copy rides on two hidden provided methods,
//! `Serialize::serialize_elements` and `Deserialize::deserialize_elements`,
//! which real serde does not have. Derived code never names them, so a move
//! to real serde drops them with this crate and keeps the derives; a byte
//! field would then need `serde_bytes` to stay one copy.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// Errors produced while decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// Input ended before the value was fully decoded.
    Eof,
    /// An enum tag did not name a variant.
    InvalidTag(u32),
    /// A `bool` byte was neither 0 nor 1.
    InvalidBool(u8),
    /// An `Option` tag byte was neither 0 nor 1.
    InvalidOption(u8),
    /// A string was not valid UTF-8.
    InvalidUtf8,
    /// A length prefix exceeded the remaining input.
    LengthOverflow,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Eof => write!(f, "unexpected end of input"),
            Error::InvalidTag(t) => write!(f, "invalid enum tag {t}"),
            Error::InvalidBool(b) => write!(f, "invalid bool byte {b}"),
            Error::InvalidOption(b) => write!(f, "invalid option tag {b}"),
            Error::InvalidUtf8 => write!(f, "invalid utf-8 in string"),
            Error::LengthOverflow => write!(f, "length prefix exceeds remaining input"),
        }
    }
}

impl std::error::Error for Error {}

/// A cursor over a byte slice being decoded.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if self.remaining() < n {
            return Err(Error::Eof);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Consumes a length prefix, validating it against the remaining input so
    /// corrupt frames cannot trigger pathological allocations.
    pub fn read_len(&mut self) -> Result<usize, Error> {
        let raw = u64::deserialize(self)?;
        let len = usize::try_from(raw).map_err(|_| Error::LengthOverflow)?;
        // Every encoded element occupies at least one byte in this format
        // except zero-sized values, which no workspace type contains.
        if len > self.remaining() {
            return Err(Error::LengthOverflow);
        }
        Ok(len)
    }
}

/// Serialization into the workspace's compact binary format.
pub trait Serialize {
    /// Appends the encoding of `self` to `out`.
    fn serialize(&self, out: &mut Vec<u8>);

    /// Appends the encodings of `items`, in order: the bytes must equal
    /// calling `serialize` on each. Sequences (`Vec<T>`, `[T]`) call this so
    /// a type whose encoding is its memory (`u8`) copies a whole run at once.
    #[doc(hidden)]
    fn serialize_elements(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.serialize(out);
        }
    }
}

/// Deserialization from the workspace's compact binary format.
pub trait Deserialize: Sized {
    /// Decodes a value from the reader, advancing it past the consumed bytes.
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error>;

    /// Decodes `len` values in order and appends them to `out`, with the
    /// result (and error) of calling `deserialize` `len` times. The bulk
    /// counterpart of [`Serialize::serialize_elements`].
    #[doc(hidden)]
    fn deserialize_elements(
        input: &mut Reader<'_>,
        len: usize,
        out: &mut Vec<Self>,
    ) -> Result<(), Error> {
        for _ in 0..len {
            out.push(Self::deserialize(input)?);
        }
        Ok(())
    }
}

/// Writes an enum variant tag (used by generated code).
#[doc(hidden)]
pub fn write_tag(out: &mut Vec<u8>, tag: u32) {
    out.extend_from_slice(&tag.to_le_bytes());
}

/// Reads an enum variant tag (used by generated code).
#[doc(hidden)]
pub fn read_tag(input: &mut Reader<'_>) -> Result<u32, Error> {
    u32::deserialize(input)
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Deserialize for $t {
            fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
                let bytes = input.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

impl_int!(u16, u32, u64, u128, i8, i16, i32, i64, i128);

// A `u8` encodes as itself, so a byte sequence crosses the codec as one copy.
impl Serialize for u8 {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn serialize_elements(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
}
impl Deserialize for u8 {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(input.take(1)?[0])
    }

    fn deserialize_elements(
        input: &mut Reader<'_>,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), Error> {
        out.extend_from_slice(input.take(len)?);
        Ok(())
    }
}

macro_rules! impl_float {
    ($($t:ty => $bits:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_bits().to_le_bytes());
            }
        }
        impl Deserialize for $t {
            fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
                Ok(<$t>::from_bits(<$bits>::deserialize(input)?))
            }
        }
    )*};
}

impl_float!(f32 => u32, f64 => u64);

// usize travels as u64 so 32- and 64-bit peers interoperate.
impl Serialize for usize {
    fn serialize(&self, out: &mut Vec<u8>) {
        (*self as u64).serialize(out);
    }
}
impl Deserialize for usize {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        usize::try_from(u64::deserialize(input)?).map_err(|_| Error::LengthOverflow)
    }
}

impl Serialize for isize {
    fn serialize(&self, out: &mut Vec<u8>) {
        (*self as i64).serialize(out);
    }
}
impl Deserialize for isize {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        isize::try_from(i64::deserialize(input)?).map_err(|_| Error::LengthOverflow)
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn serialize_elements(items: &[bool], out: &mut Vec<u8>) {
        out.extend(items.iter().map(|&b| b as u8));
    }
}
impl Deserialize for bool {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        match input.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::InvalidBool(b)),
        }
    }

    fn deserialize_elements(
        input: &mut Reader<'_>,
        len: usize,
        out: &mut Vec<bool>,
    ) -> Result<(), Error> {
        let bytes = input.take(len)?;
        if let Some(&b) = bytes.iter().find(|&&b| b > 1) {
            return Err(Error::InvalidBool(b));
        }
        out.extend(bytes.iter().map(|&b| b == 1));
        Ok(())
    }
}

impl Serialize for char {
    fn serialize(&self, out: &mut Vec<u8>) {
        (*self as u32).serialize(out);
    }
}
impl Deserialize for char {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let raw = u32::deserialize(input)?;
        char::from_u32(raw).ok_or(Error::InvalidUtf8)
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        out.extend_from_slice(self.as_bytes());
    }
}
impl Deserialize for String {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let len = input.read_len()?;
        let bytes = input.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::InvalidUtf8)
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut Vec<u8>) {
        (**self).serialize(out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.as_slice().serialize(out);
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let len = input.read_len()?;
        // Reserve no more than the remaining input could fill with values
        // the size of `T`: a forged length prefix then costs at most about
        // the bytes actually received, never `len` elements up front.
        let hint = len.min(input.remaining() / std::mem::size_of::<T>().max(1));
        let mut out = Vec::with_capacity(hint);
        T::deserialize_elements(input, len, &mut out)?;
        Ok(out)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        T::serialize_elements(self, out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.serialize(out);
            }
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        match input.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::deserialize(input)?)),
            b => Err(Error::InvalidOption(b)),
        }
    }
}

impl<const N: usize> Serialize for [u8; N] {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}
impl<const N: usize> Deserialize for [u8; N] {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let bytes = input.take(N)?;
        Ok(bytes.try_into().expect("sized take"))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut Vec<u8>) {
                $(self.$idx.serialize(out);)+
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
                Ok(($($name::deserialize(input)?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        for (k, v) in self {
            k.serialize(out);
            v.serialize(out);
        }
    }
}
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let len = input.read_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::deserialize(input)?;
            let v = V::deserialize(input)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        for item in self {
            item.serialize(out);
        }
    }
}
impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let len = input.read_len()?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::deserialize(input)?);
        }
        Ok(out)
    }
}

impl<K: Serialize + Ord, V: Serialize, S: BuildHasher> Serialize for HashMap<K, V, S> {
    fn serialize(&self, out: &mut Vec<u8>) {
        // Sort entries so the encoding is deterministic across runs.
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        (entries.len() as u64).serialize(out);
        for (k, v) in entries {
            k.serialize(out);
            v.serialize(out);
        }
    }
}
impl<K: Deserialize + Eq + Hash, V: Deserialize, S: BuildHasher + Default> Deserialize
    for HashMap<K, V, S>
{
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let len = input.read_len()?;
        let mut out = HashMap::with_hasher(S::default());
        for _ in 0..len {
            let k = K::deserialize(input)?;
            let v = V::deserialize(input)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Serialize + Ord, S: BuildHasher> Serialize for HashSet<T, S> {
    fn serialize(&self, out: &mut Vec<u8>) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort();
        (items.len() as u64).serialize(out);
        for item in items {
            item.serialize(out);
        }
    }
}
impl<T: Deserialize + Eq + Hash, S: BuildHasher + Default> Deserialize for HashSet<T, S> {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let len = input.read_len()?;
        let mut out = HashSet::with_hasher(S::default());
        for _ in 0..len {
            out.insert(T::deserialize(input)?);
        }
        Ok(out)
    }
}

impl Serialize for () {
    fn serialize(&self, _out: &mut Vec<u8>) {}
}
impl Deserialize for () {
    fn deserialize(_input: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(())
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (**self).serialize(out);
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(Box::new(T::deserialize(input)?))
    }
}

// `Arc` is encoding-transparent: shared values travel as their contents, so
// switching an owned message field to `Arc<T>` (for cheap fan-out) never
// changes the wire format. Decoding allocates a fresh, uniquely owned Arc.
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (**self).serialize(out);
    }
}
impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(std::sync::Arc::new(T::deserialize(input)?))
    }
}

// A shared byte run (a transaction payload) is read as a `Vec<u8>` is, and
// copied out of the input once, straight into its `Arc`.
impl Deserialize for std::sync::Arc<[u8]> {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let len = input.read_len()?;
        Ok(std::sync::Arc::from(input.take(len)?))
    }
}

/// Encodes a value to a fresh byte vector.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.serialize(&mut out);
    out
}

/// Decodes a value from a byte slice, requiring the input to be fully
/// consumed.
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let mut reader = Reader::new(bytes);
    let value = T::deserialize(&mut reader)?;
    if !reader.is_empty() {
        return Err(Error::LengthOverflow);
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(from_bytes::<u64>(&to_bytes(&42u64)).unwrap(), 42);
        assert_eq!(from_bytes::<i64>(&to_bytes(&-7i64)).unwrap(), -7);
        assert_eq!(from_bytes::<f64>(&to_bytes(&1.5f64)).unwrap(), 1.5);
        assert!(from_bytes::<bool>(&to_bytes(&true)).unwrap());
        assert_eq!(
            from_bytes::<String>(&to_bytes("héllo")).unwrap(),
            "héllo".to_string()
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(from_bytes::<Vec<u32>>(&to_bytes(&v)).unwrap(), v);
        let o: Option<String> = Some("x".into());
        assert_eq!(from_bytes::<Option<String>>(&to_bytes(&o)).unwrap(), o);
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u64);
        assert_eq!(
            from_bytes::<BTreeMap<String, u64>>(&to_bytes(&m)).unwrap(),
            m
        );
        let arr = [9u8; 32];
        assert_eq!(from_bytes::<[u8; 32]>(&to_bytes(&arr)).unwrap(), arr);
        let t = (3u32, -1i64, 0.25f64);
        assert_eq!(from_bytes::<(u32, i64, f64)>(&to_bytes(&t)).unwrap(), t);
    }

    #[test]
    fn corrupt_input_is_rejected_without_allocation_blowup() {
        // Claimed length of u64::MAX must fail fast, not try to allocate.
        let mut bytes = Vec::new();
        u64::MAX.serialize(&mut bytes);
        assert_eq!(
            from_bytes::<Vec<u8>>(&bytes).unwrap_err(),
            Error::LengthOverflow
        );
        assert_eq!(from_bytes::<u32>(&[1, 2]).unwrap_err(), Error::Eof);
        assert_eq!(from_bytes::<bool>(&[7]).unwrap_err(), Error::InvalidBool(7));
        // A run of bools is checked byte by byte: the first bad byte is named.
        let mut bools = to_bytes(&vec![true, false, true]);
        bools[9] = 9;
        bools[10] = 5;
        assert_eq!(
            from_bytes::<Vec<bool>>(&bools).unwrap_err(),
            Error::InvalidBool(9)
        );
    }

    #[test]
    fn arc_is_encoding_transparent() {
        use std::sync::Arc;
        let owned = vec![1u32, 2, 3];
        let shared = Arc::new(owned.clone());
        assert_eq!(to_bytes(&shared), to_bytes(&owned));
        let back: Arc<Vec<u32>> = from_bytes(&to_bytes(&owned)).unwrap();
        assert_eq!(*back, owned);
    }

    #[test]
    fn shared_bytes_encode_as_a_vec() {
        use std::sync::Arc;
        for owned in [vec![], vec![7u8], (0..=255u8).collect::<Vec<u8>>()] {
            let shared: Arc<[u8]> = owned.clone().into();
            assert_eq!(to_bytes(&shared), to_bytes(&owned));
            let back: Arc<[u8]> = from_bytes(&to_bytes(&owned)).unwrap();
            assert_eq!(*back, *owned);
        }
        let mut forged = to_bytes(&vec![1u8, 2, 3]);
        forged[0] = 4;
        assert_eq!(
            from_bytes::<Arc<[u8]>>(&forged).unwrap_err(),
            Error::LengthOverflow
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&5u32);
        bytes.push(0);
        assert_eq!(
            from_bytes::<u32>(&bytes).unwrap_err(),
            Error::LengthOverflow
        );
    }
}
