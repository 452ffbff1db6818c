//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no network access and no vendored registry, so
//! the workspace ships minimal reimplementations of the handful of external
//! APIs it consumes (see `shims/README.md`). This crate covers the subset of
//! `bytes` used by `quant` and `comm`: cheaply-cloneable immutable byte
//! buffers ([`Bytes`]), a growable builder ([`BytesMut`]) and the little-
//! endian `put_*` writers from [`BufMut`].

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable view into a shared byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    // `Arc<Vec<u8>>` rather than `Arc<[u8]>`: converting a `Vec` into an
    // `Arc<[u8]>` copies the contents into a fresh allocation, and
    // `Bytes::from(Vec<u8>)` sits on the codec's per-block hot path.
    // Wrapping the vector keeps the conversion zero-copy. `None` is the
    // empty buffer: `Bytes::new()` allocates nothing.
    data: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a static byte slice (copied; the zero-copy distinction does not
    /// matter for this workspace).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::from(bytes.to_vec())
    }

    /// Length in bytes of this view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a sub-view sharing the same backing storage.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Self {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copies the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self {
            data: (end > 0).then(|| Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::from(v.to_vec())
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.start..self.end],
            None => &[],
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            data: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, other: &[u8]) {
        self.data.extend_from_slice(other);
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Little-endian append-only writer interface.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_and_freeze_round_trip() {
        let mut b = BytesMut::with_capacity(8);
        b.put_u8(1);
        b.put_u32_le(0xAABBCCDD);
        b.put_f32_le(1.5);
        let frozen = b.freeze();
        assert_eq!(frozen.len(), 9);
        assert_eq!(frozen[0], 1);
        let s = frozen.slice(1..5);
        assert_eq!(s.to_vec(), 0xAABBCCDDu32.to_le_bytes().to_vec());
        let nested = s.slice(1..3);
        assert_eq!(nested.as_ref(), &0xAABBCCDDu32.to_le_bytes()[1..3]);
    }

    #[test]
    fn empty_buffers_are_equal_and_slice() {
        let empty = Bytes::new();
        assert_eq!(empty, Bytes::from(Vec::new()));
        assert_eq!(empty, Bytes::default());
        assert_eq!(empty, Bytes::from(vec![7u8; 3]).slice(1..1));
        assert!(empty.is_empty());
        assert_eq!(empty.slice(..), empty);
        assert_eq!(empty.slice(0..0).to_vec(), Vec::<u8>::new());
        assert_eq!(format!("{empty:?}"), "b\"\"");
        // Nothing is allocated: there is no backing buffer to share.
        assert!(empty.data.is_none() && Bytes::from(Vec::new()).data.is_none());
    }
}
