//! Length-delimited binary wire codec.
//!
//! The original Rivulet prototype used "custom serialization for events
//! and other messages" over Netty-managed TCP connections (paper §7).
//! This module is the Rust equivalent: a small, allocation-conscious
//! codec. Size accounting is the bytes actually sent — the length of
//! what [`Wire::encode`] wrote, not a separate exact-size API — and the
//! evaluation harness charges exactly those bytes to reproduce the
//! network-overhead experiment (Fig. 5).
//!
//! Integers are encoded as LEB128 varints so that the 4–8 byte events
//! that dominate smart homes (Table 3) stay small on the wire;
//! byte-strings and collections carry a varint length prefix.
//!
//! # Example
//!
//! ```
//! use rivulet_types::wire::{Wire, WireReader, WireWriter};
//!
//! let mut w = WireWriter::new();
//! 300u64.encode(&mut w);
//! vec![1u32, 2, 3].encode(&mut w);
//! let buf = w.into_bytes();
//!
//! let mut r = WireReader::new(&buf);
//! assert_eq!(u64::decode(&mut r).unwrap(), 300);
//! assert_eq!(Vec::<u32>::decode(&mut r).unwrap(), vec![1, 2, 3]);
//! assert!(r.is_empty());
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use bytes::{BufMut, Bytes, BytesMut};

/// Number of bytes of framing added to every message by the transport
/// (length prefix, message-type tag, and checksum), mirroring the
/// header cost a TCP-based framing layer would add. Fig. 5's
/// observation that "large event sizes amortize the network overhead of
/// any metadata, e.g., message headers" depends on this constant being
/// charged per message.
pub const FRAME_HEADER_BYTES: usize = 12;

/// Errors produced when decoding malformed wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEof {
        /// How many more bytes were needed.
        needed: usize,
        /// How many bytes remained.
        remaining: usize,
    },
    /// A varint ran past its maximum width.
    VarintOverflow,
    /// A tag byte did not name a known variant of the decoded type.
    InvalidTag {
        /// Name of the type being decoded.
        ty: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A declared length prefix exceeds the sanity limit.
    LengthTooLarge {
        /// The declared length.
        declared: u64,
    },
    /// A byte-string declared as UTF-8 was not valid UTF-8.
    InvalidUtf8,
    /// A multi-message frame declared zero messages; frames exist only
    /// to coalesce, so an empty batch is always an encoder bug or
    /// corruption.
    EmptyBatch,
    /// A complete value was followed by bytes it does not account for.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of buffer: needed {needed} bytes, {remaining} remaining"
            ),
            WireError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            WireError::InvalidTag { ty, tag } => {
                write!(f, "invalid tag {tag} while decoding {ty}")
            }
            WireError::LengthTooLarge { declared } => {
                write!(f, "declared length {declared} exceeds sanity limit")
            }
            WireError::InvalidUtf8 => write!(f, "byte-string is not valid utf-8"),
            WireError::EmptyBatch => write!(f, "frame declared zero messages"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete value")
            }
        }
    }
}

impl Error for WireError {}

/// Sanity cap on decoded lengths (64 MiB), guarding against corrupt
/// frames allocating unbounded memory.
const MAX_DECODED_LEN: u64 = 64 << 20;

/// Append-only buffer for encoding wire values.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with `cap` bytes preallocated.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single raw byte.
    pub fn put_u8(&mut self, b: u8) {
        self.buf.put_u8(b);
    }

    /// Appends raw bytes verbatim.
    pub fn put_slice(&mut self, s: &[u8]) {
        self.buf.put_slice(s);
    }

    /// Appends `v` as an LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        // Built on the stack and appended once: one capacity check per
        // varint instead of one per byte.
        let mut bytes = [0u8; 10];
        let mut n = 0;
        while v >= 0x80 {
            bytes[n] = (v & 0x7f) as u8 | 0x80;
            v >>= 7;
            n += 1;
        }
        bytes[n] = v as u8;
        self.buf.put_slice(&bytes[..=n]);
    }

    /// Consumes the writer, yielding the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Bytes {
        self.buf.freeze()
    }

    /// Splits off everything written so far as a frozen [`Bytes`],
    /// leaving the writer empty but with its spare capacity intact so
    /// it can be reused for the next message. Once all outstanding
    /// [`Bytes`] handles are dropped, `BytesMut::reserve` reclaims the
    /// allocation — this is what makes a pooled writer allocation-free
    /// in steady state.
    pub fn take_bytes(&mut self) -> Bytes {
        self.buf.split().freeze()
    }

    /// Reserves capacity for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// The bytes written so far.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// The bytes written so far, writable in place: a framing layer
    /// patches a header (a checksum) it can only compute once the
    /// payload behind it is written.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// Discards everything written, keeping the capacity for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

/// A small pool of reusable [`WireWriter`]s for hot-path encoding.
///
/// The replication fan-out encodes one `ProcMsg` per *activation*, not
/// per peer; [`WriterPool::encode`] produces the frozen [`Bytes`] that
/// are then cheap-cloned to every destination. Buffers are recycled via
/// [`WireWriter::take_bytes`], so steady-state encoding performs no
/// allocation once the pool has warmed up.
#[derive(Debug, Default)]
pub struct WriterPool {
    free: Vec<WireWriter>,
}

impl WriterPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes `value` using a pooled buffer, returning the frozen
    /// bytes. The buffer returns to the pool for reuse.
    pub fn encode<T: Wire>(&mut self, value: &T) -> Bytes {
        let mut w = self.free.pop().unwrap_or_default();
        // Rewinds a warm writer onto the front of its allocation once
        // every message taken from it has been dropped.
        w.reserve(0);
        value.encode(&mut w);
        let out = w.take_bytes();
        self.free.push(w);
        out
    }

    /// Checks out a writer (empty, possibly with warm capacity).
    /// Return it with [`WriterPool::put_back`] after taking its bytes.
    #[must_use]
    pub fn checkout(&mut self) -> WireWriter {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a writer to the pool. Any unfrozen contents are cleared.
    pub fn put_back(&mut self, mut w: WireWriter) {
        if !w.is_empty() {
            let _ = w.take_bytes();
        }
        self.free.push(w);
    }
}

/// Cursor over a byte slice for decoding wire values.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    /// When the slice is backed by a refcounted [`Bytes`] buffer,
    /// byte-string fields decode as zero-copy sub-slices of it instead
    /// of fresh heap copies.
    shared: Option<&'a Bytes>,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, shared: None }
    }

    /// Creates a reader over a refcounted buffer. Byte-string fields
    /// ([`Bytes`] values, e.g. event blob payloads) decode as cheap
    /// `slice_ref` views into `buf` rather than heap copies.
    #[must_use]
    pub fn from_shared(buf: &'a Bytes) -> Self {
        Self {
            buf: &buf[..],
            shared: Some(buf),
        }
    }

    /// Splits off a sub-reader over the next `n` bytes, preserving any
    /// shared backing so nested zero-copy decoding keeps working (used
    /// by the multi-command frame codec).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn sub_reader(&mut self, n: usize) -> Result<WireReader<'a>, WireError> {
        let shared = self.shared;
        let head = self.get_slice(n)?;
        Ok(WireReader { buf: head, shared })
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Reads one raw byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if the buffer is empty.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        let (&first, rest) = self.buf.split_first().ok_or(WireError::UnexpectedEof {
            needed: 1,
            remaining: 0,
        })?;
        self.buf = rest;
        Ok(first)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn get_slice(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.buf.len(),
            });
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads an LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::VarintOverflow`] for varints wider than 64
    /// bits and [`WireError::UnexpectedEof`] for truncated input.
    pub fn get_varint(&mut self) -> Result<u64, WireError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(WireError::VarintOverflow);
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Reads a varint length prefix, enforcing the sanity cap.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::LengthTooLarge`] if the declared length
    /// exceeds the 64 MiB cap, plus any varint decoding error.
    pub fn get_len(&mut self) -> Result<usize, WireError> {
        let declared = self.get_varint()?;
        if declared > MAX_DECODED_LEN {
            return Err(WireError::LengthTooLarge { declared });
        }
        Ok(declared as usize)
    }

    /// Reads `n` raw bytes as an owned [`Bytes`] value — zero-copy
    /// (`slice_ref`) when this reader was built with
    /// [`WireReader::from_shared`], a heap copy otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn get_bytes(&mut self, n: usize) -> Result<Bytes, WireError> {
        let shared = self.shared;
        let head = self.get_slice(n)?;
        Ok(match shared {
            Some(backing) => backing.slice_ref(head),
            None => Bytes::copy_from_slice(head),
        })
    }
}

/// Returns the number of bytes the LEB128 encoding of `v` occupies.
#[must_use]
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

/// Types encodable on the Rivulet inter-process wire.
///
/// Implementations must uphold `decode(encode(x)) == x`; the
/// [`roundtrip`] helper asserts it and is used throughout the test
/// suites. `encode` is the one description of a type's layout: a
/// caller that needs a length measures the bytes written.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `w`.
    fn encode(&self, w: &mut WireWriter);

    /// Decodes a value from `r`, consuming exactly the encoded bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing malformed input.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Convenience: encodes `self` into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Convenience: decodes a value from `buf`, requiring that the
    /// whole buffer is consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed input or trailing bytes.
    fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let value = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(WireError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(value)
    }

    /// Like [`Wire::from_bytes`], but byte-string fields decode as
    /// zero-copy views into `buf` (see [`WireReader::from_shared`]).
    /// This is the arrival-path entry point: a decoded event's blob
    /// payload shares the network buffer instead of re-allocating.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed input or trailing bytes.
    fn from_shared_bytes(buf: &Bytes) -> Result<Self, WireError> {
        let mut r = WireReader::from_shared(buf);
        let value = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(WireError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(value)
    }
}

impl Wire for u8 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(*self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_u8()
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(u8::from(*self));
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag { ty: "bool", tag }),
        }
    }
}

impl Wire for u32 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(u64::from(*self));
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = r.get_varint()?;
        u32::try_from(v).map_err(|_| WireError::VarintOverflow)
    }
}

impl Wire for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(*self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_varint()
    }
}

impl Wire for f64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let raw = r.get_slice(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(raw);
        Ok(f64::from_le_bytes(arr))
    }
}

impl Wire for Bytes {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.len() as u64);
        w.put_slice(self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.get_len()?;
        r.get_bytes(len)
    }
}

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.len() as u64);
        w.put_slice(self.as_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.get_len()?;
        let raw = r.get_slice(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.get_len()?;
        let mut out = Vec::with_capacity(len.min(1_024));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// The bytes of the `Vec` of its entries, in key order.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.len() as u64);
        for (key, value) in self {
            key.encode(w);
            value.encode(w);
        }
    }

    /// A repeated key keeps its last value.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        (0..r.get_len()?).map(|_| <(K, V)>::decode(r)).collect()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::InvalidTag { ty: "Option", tag }),
        }
    }
}

/// Asserts that `value` survives an encode/decode cycle. Intended for
/// use in tests.
///
/// # Panics
///
/// Panics if the roundtrip fails.
pub fn roundtrip<T: Wire + PartialEq + fmt::Debug>(value: &T) {
    let bytes = value.to_bytes();
    let decoded = T::from_bytes(&bytes).expect("decode failed");
    assert_eq!(&decoded, value, "roundtrip mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_len_matches_encoding() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut w = WireWriter::new();
            w.put_varint(v);
            assert_eq!(w.len(), varint_len(v), "value {v}");
        }
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 127, 128, 255, 256, 1 << 14, (1 << 14) - 1, u64::MAX] {
            let mut w = WireWriter::new();
            w.put_varint(v);
            let buf = w.into_bytes();
            let mut r = WireReader::new(&buf);
            assert_eq!(r.get_varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_overflow_detected() {
        // Eleven continuation bytes encode more than 64 bits.
        let buf = [0xffu8; 11];
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_varint(), Err(WireError::VarintOverflow));
    }

    #[test]
    fn truncated_input_reports_eof() {
        let mut r = WireReader::new(&[]);
        assert!(matches!(r.get_u8(), Err(WireError::UnexpectedEof { .. })));
        let mut r = WireReader::new(&[1, 2]);
        assert!(matches!(
            r.get_slice(3),
            Err(WireError::UnexpectedEof {
                needed: 3,
                remaining: 2
            })
        ));
    }

    #[test]
    fn bool_rejects_junk_tag() {
        assert_eq!(
            bool::from_bytes(&[7]),
            Err(WireError::InvalidTag { ty: "bool", tag: 7 })
        );
    }

    #[test]
    fn option_rejects_junk_tag() {
        assert_eq!(
            Option::<u8>::from_bytes(&[9]),
            Err(WireError::InvalidTag {
                ty: "Option",
                tag: 9
            })
        );
    }

    #[test]
    fn a_map_is_the_vec_of_its_entries() {
        let map = BTreeMap::from([(9u32, 1u64), (2, 300)]);
        assert_eq!(map.to_bytes(), vec![(2u32, 300u64), (9, 1)].to_bytes());
        roundtrip(&map);
        roundtrip(&BTreeMap::<u32, u64>::new());
    }

    #[test]
    fn length_cap_enforced() {
        let mut w = WireWriter::new();
        w.put_varint(MAX_DECODED_LEN + 1);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.get_len(), Err(WireError::LengthTooLarge { .. })));
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut w = WireWriter::new();
        5u32.encode(&mut w);
        w.put_u8(0xaa);
        let buf = w.into_bytes();
        let want = Err(WireError::TrailingBytes { remaining: 1 });
        assert_eq!(u32::from_bytes(&buf), want);
        assert_eq!(u32::from_shared_bytes(&buf), want);
    }

    #[test]
    fn string_utf8_validation() {
        let mut w = WireWriter::new();
        w.put_varint(2);
        w.put_slice(&[0xff, 0xfe]);
        let buf = w.into_bytes();
        assert_eq!(String::from_bytes(&buf), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn compound_roundtrips() {
        roundtrip(&true);
        roundtrip(&0xabu8);
        roundtrip(&u32::MAX);
        roundtrip(&u64::MAX);
        roundtrip(&3.25f64);
        roundtrip(&String::from("door-open"));
        roundtrip(&Bytes::from_static(b"\x00\x01\x02"));
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Some(42u64));
        roundtrip(&Option::<u64>::None);
        roundtrip(&Vec::<String>::new());
        roundtrip(&(7u32, String::from("pair")));
        roundtrip(&vec![(1u32, 2u64), (3, 4)]);
    }

    #[test]
    fn take_bytes_leaves_writer_reusable() {
        let mut w = WireWriter::with_capacity(64);
        w.put_varint(300);
        let first = w.take_bytes();
        assert!(w.is_empty(), "writer empty after take_bytes");
        w.put_varint(7);
        let second = w.take_bytes();
        assert_eq!(&first[..], &300u64.to_bytes()[..]);
        assert_eq!(&second[..], &7u64.to_bytes()[..]);
    }

    #[test]
    fn writer_pool_encodes_and_recycles() {
        let mut pool = WriterPool::new();
        let a = pool.encode(&String::from("hello"));
        let b = pool.encode(&String::from("world"));
        assert_eq!(String::from_bytes(&a).unwrap(), "hello");
        assert_eq!(String::from_bytes(&b).unwrap(), "world");
        // Checkout/put_back path, including a dirty writer.
        let mut w = pool.checkout();
        w.put_u8(0xff);
        pool.put_back(w);
        let c = pool.encode(&42u64);
        assert_eq!(u64::from_bytes(&c).unwrap(), 42);
    }

    #[test]
    fn shared_reader_decodes_bytes_zero_copy() {
        let blob = Bytes::from(vec![9u8; 128]);
        let encoded = blob.to_bytes();
        let decoded = Bytes::from_shared_bytes(&encoded).unwrap();
        assert_eq!(decoded, blob);
        // Zero-copy: the decoded value points into the arrival buffer.
        let enc_range = encoded.as_ptr() as usize..encoded.as_ptr() as usize + encoded.len();
        assert!(
            enc_range.contains(&(decoded.as_ptr() as usize)),
            "decoded Bytes should be a view into the shared buffer"
        );
    }

    #[test]
    fn sub_reader_preserves_shared_backing() {
        let blob = Bytes::from(vec![3u8; 32]);
        let mut w = WireWriter::new();
        w.put_varint(blob.to_bytes().len() as u64);
        blob.encode(&mut w);
        let outer = w.into_bytes();
        let mut r = WireReader::from_shared(&outer);
        let len = r.get_len().unwrap();
        let mut sub = r.sub_reader(len).unwrap();
        let decoded = Bytes::decode(&mut sub).unwrap();
        assert!(sub.is_empty() && r.is_empty());
        let range = outer.as_ptr() as usize..outer.as_ptr() as usize + outer.len();
        assert!(range.contains(&(decoded.as_ptr() as usize)));
    }

    #[test]
    fn unshared_reader_still_copies() {
        let blob = Bytes::from(vec![5u8; 16]);
        let encoded = blob.to_bytes();
        let decoded = Bytes::from_bytes(&encoded).unwrap();
        assert_eq!(decoded, blob);
    }

    #[test]
    fn f64_nan_payload_note() {
        // NaN != NaN, so roundtrip() cannot be used; check bits directly.
        let bytes = f64::NAN.to_bytes();
        let decoded = f64::from_bytes(&bytes).unwrap();
        assert!(decoded.is_nan());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn varint_roundtrip_any(v in any::<u64>()) {
            let mut w = WireWriter::new();
            w.put_varint(v);
            prop_assert_eq!(w.len(), varint_len(v));
            let buf = w.into_bytes();
            let mut r = WireReader::new(&buf);
            prop_assert_eq!(r.get_varint().unwrap(), v);
            prop_assert!(r.is_empty());
        }

        #[test]
        fn string_roundtrip_any(s in ".*") {
            roundtrip(&s);
        }

        #[test]
        fn vec_u64_roundtrip_any(v in proptest::collection::vec(any::<u64>(), 0..64)) {
            roundtrip(&v);
        }

        #[test]
        fn decoder_never_panics_on_junk(buf in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Decoding arbitrary bytes may fail but must not panic.
            let _ = Vec::<String>::from_bytes(&buf);
            let _ = Option::<u64>::from_bytes(&buf);
            let _ = String::from_bytes(&buf);
        }
    }
}
