//! Offline stand-in for `bytes` 1.x: `BytesMut` as a `Vec<u8>` and the
//! little-endian `Buf`/`BufMut` accessors `solros-proto` calls.

use std::ops::{Deref, DerefMut};

/// Reading from the front of a byte cursor.
pub trait Buf {
    /// Bytes left.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skips `cnt` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `cnt > remaining()`.
    fn advance(&mut self, cnt: usize);

    /// True while bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copies out `dst.len()` bytes.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Reads a `u8`.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }
    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }
    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }
    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Appending to a growable byte buffer.
pub trait BufMut {
    /// Appends `src`.
    fn put_slice(&mut self, src: &[u8]);
    /// Appends a `u8`.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// A growable byte buffer.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        Self(Vec::new())
    }
    /// An empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        Self(Vec::with_capacity(cap))
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}
