//! A wave of frames in one byte arena.
//!
//! The batched producer path ([`crate::Producer::send_wave`]) takes its
//! frames from here: every frame of a wave lives back to back in one
//! `Vec<u8>` with a second vector of end offsets, so building, stamping
//! and sending a wave of N frames allocates nothing once the two vectors
//! have grown to their working size. A [`Wave`] is meant to be kept and
//! [`Wave::clear`]ed, not rebuilt.

/// Frames accumulated for one batched enqueue, in push order.
#[derive(Debug, Default)]
pub struct Wave {
    bytes: Vec<u8>,
    /// End offset of each frame inside `bytes`.
    ends: Vec<usize>,
}

impl Wave {
    /// An empty wave; the arena grows on first use and is then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty wave with room for `frames` frames totalling `bytes`
    /// bytes, for a wave whose size is known and that is built only once.
    pub fn with_capacity(frames: usize, bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            ends: Vec::with_capacity(frames),
        }
    }

    /// A wave holding copies of `frames`, in order.
    pub fn of(frames: &[Vec<u8>]) -> Self {
        let mut wave = Self::with_capacity(frames.len(), frames.iter().map(Vec::len).sum());
        frames.iter().for_each(|f| wave.push(f));
        wave
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no frame has been pushed since the last clear.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Forgets every frame, keeping the arena's capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// Appends a copy of `frame`.
    pub fn push(&mut self, frame: &[u8]) {
        self.push_with(|arena| arena.extend_from_slice(frame));
    }

    /// Appends the frame `build` writes at the end of the arena — an
    /// encoder finishes its frame where the ring will copy it from.
    /// `build` must only append.
    pub fn push_with(&mut self, build: impl FnOnce(&mut Vec<u8>)) {
        let start = self.bytes.len();
        build(&mut self.bytes);
        debug_assert!(
            self.bytes.len() >= start,
            "frame builder truncated the arena"
        );
        self.ends.push(self.bytes.len());
    }

    fn bounds(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        start..self.ends[i]
    }

    /// Frame `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn frame(&self, i: usize) -> &[u8] {
        &self.bytes[self.bounds(i)]
    }

    /// Frame `i`, mutably (header stamps are applied in place).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn frame_mut(&mut self, i: usize) -> &mut [u8] {
        let bounds = self.bounds(i);
        &mut self.bytes[bounds]
    }

    /// The frames in push order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(|i| self.frame(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_keep_order_bounds_and_capacity() {
        let mut w = Wave::new();
        assert!(w.is_empty() && w.iter().next().is_none());
        w.push(b"one");
        w.push_with(|a| a.extend_from_slice(b"three"));
        w.push(b"");
        assert_eq!(w.len(), 3);
        assert_eq!(w.frame(0), b"one");
        assert_eq!(w.frame(1), b"three");
        assert_eq!(w.frame(2), b"");
        w.frame_mut(1)[0] = b'T';
        assert_eq!(
            w.iter().collect::<Vec<_>>(),
            [&b"one"[..], &b"Three"[..], &b""[..]]
        );
        let arena = w.frame(0).as_ptr();
        w.clear();
        assert!(w.is_empty());
        w.push(b"next");
        assert_eq!(w.frame(0).as_ptr(), arena, "clear keeps the arena");
    }
}
