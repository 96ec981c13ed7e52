//! Instruction stream buffers (Jouppi-style next-line prefetchers).
//!
//! Both of the paper's camps employ stream buffers, and the paper credits
//! them with keeping instruction stalls small (§4); the model here is the
//! classic one: an L1-I miss allocates the buffer and launches prefetches
//! for the next few sequential lines. A later miss that finds its line in
//! the buffer pays only the remaining fill time (often zero) instead of a
//! full L2 round trip.
//!
//! The buffer is indexed by line number; entries carry the cycle at which
//! the prefetched line arrives from the L2 (or memory).

/// One prefetched line in flight or ready.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    ready_at: u64,
}

/// Per-core instruction stream buffer.
#[derive(Debug)]
pub(crate) struct StreamBuffer {
    slots: Vec<Slot>,
    depth: usize,
}

impl StreamBuffer {
    pub(crate) fn new(depth: usize) -> Self {
        StreamBuffer {
            slots: Vec::with_capacity(depth),
            depth,
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.depth > 0
    }

    /// Look up `line`; on hit, consume the slot and return the cycle the
    /// line is available (may be in the past — then it is free).
    pub(crate) fn take(&mut self, line: u64) -> Option<u64> {
        let idx = self.slots.iter().position(|s| s.line == line)?;
        let s = self.slots.swap_remove(idx);
        Some(s.ready_at)
    }

    /// Record a prefetched line arriving at `ready_at`. Oldest entries are
    /// displaced when full; duplicate lines are refreshed.
    pub(crate) fn put(&mut self, line: u64, ready_at: u64) {
        if self.depth == 0 {
            return;
        }
        if let Some(s) = self.slots.iter_mut().find(|s| s.line == line) {
            s.ready_at = s.ready_at.min(ready_at);
            return;
        }
        if self.slots.len() == self.depth {
            self.slots.remove(0);
        }
        self.slots.push(Slot { line, ready_at });
    }

    /// Whether `line` is present (without consuming it).
    pub(crate) fn contains(&self, line: u64) -> bool {
        self.slots.iter().any(|s| s.line == line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_consumes() {
        let mut sb = StreamBuffer::new(4);
        sb.put(10, 100);
        assert!(sb.contains(10));
        assert_eq!(sb.take(10), Some(100));
        assert!(!sb.contains(10));
        assert_eq!(sb.take(10), None);
    }

    #[test]
    fn capacity_displaces_oldest() {
        let mut sb = StreamBuffer::new(2);
        sb.put(1, 10);
        sb.put(2, 20);
        sb.put(3, 30);
        assert!(!sb.contains(1));
        assert!(sb.contains(2));
        assert!(sb.contains(3));
    }

    #[test]
    fn duplicate_refreshes_to_earlier_ready() {
        let mut sb = StreamBuffer::new(2);
        sb.put(1, 100);
        sb.put(1, 50);
        assert_eq!(sb.take(1), Some(50));
        assert!(sb.slots.is_empty());
    }

    #[test]
    fn zero_depth_disabled() {
        let mut sb = StreamBuffer::new(0);
        assert!(!sb.enabled());
        sb.put(1, 10);
        assert_eq!(sb.take(1), None);
    }
}
