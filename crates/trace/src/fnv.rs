//! The workspace's one digest fold: FNV-1a over 64-bit words. Every
//! pinned digest folds with it — a database's state, a capture's event
//! streams, the lock layer's event scripts, a derived read/write set and
//! a `SimResult`.

/// An FNV-1a fold over 64-bit words: each [`word`](Fnv::word) XORs a
/// whole word into the state, then multiplies by the 64-bit FNV prime
/// (one step per word, not per byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    /// A fold at the 64-bit FNV offset basis.
    pub const fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold one word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// The digest of every word folded so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}
