//! Set-associative cache tag arrays with LRU replacement.
//!
//! Tags store the full line number (address / 64), so lookup is an equality
//! scan over one set — simple, branch-predictable, and fast enough for the
//! multi-million-cycle runs the experiments need. The arrays are
//! struct-of-arrays: a set's keys are `assoc × 8` contiguous bytes (two
//! host cache lines for a 16-way set), with the LRU stamps and the
//! payload — a dirty bit and a sharer bitmap — in parallel arrays that
//! only a hit or a fill touches. The bitmap is used by every L2
//! instance, each the directory of its member cores' L1Ds (which of
//! them hold this line — up to 16 cores), and ignored by L1s.

/// The payload of one tag entry.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Entry {
    pub(crate) dirty: bool,
    /// For an L2 instance acting as directory: bit i set ⇒ the L1D of
    /// the instance's i-th core may hold the line. For L1s: unused.
    pub(crate) sharers: u16,
    /// Directory: position in the instance of the core that holds the
    /// line modified (valid when `dirty_in_l1`). 0xFF = none.
    pub(crate) owner: u8,
    /// Directory: some L1 holds the line modified.
    pub(crate) dirty_in_l1: bool,
}

/// `x / d` and `x % d` for a divisor fixed at construction: a shift and
/// a mask when `d` is a power of two, the exact operation otherwise (the
/// paper sweeps odd sizes like 26 MB, and island sizes need not be
/// powers of two).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Divisor {
    d: u64,
    /// `log2(d)` when `d` is a power of two.
    shift: Option<u32>,
}

impl Divisor {
    pub(crate) fn new(d: usize) -> Self {
        let d = d.max(1) as u64;
        Divisor {
            d,
            shift: d.is_power_of_two().then(|| d.trailing_zeros()),
        }
    }

    #[inline]
    pub(crate) fn div(self, x: usize) -> usize {
        match self.shift {
            Some(s) => x >> s,
            None => x / self.d as usize,
        }
    }

    #[inline]
    pub(crate) fn rem(self, x: u64) -> usize {
        match self.shift {
            Some(_) => (x & (self.d - 1)) as usize,
            None => (x % self.d) as usize,
        }
    }
}

/// Set-associative, LRU, write-back cache tag array.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Divisor,
    assoc: usize,
    /// Line number (addr >> 6) + 1 per way, set-major; 0 = invalid.
    keys: Vec<u64>,
    /// LRU timestamp per way (bigger = more recent).
    lru: Vec<u64>,
    entries: Vec<Entry>,
    clock: u64,
}

/// Result of inserting a line: what (if anything) was evicted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evicted {
    pub(crate) line: u64,
    pub(crate) dirty: bool,
    pub(crate) sharers: u16,
}

impl Cache {
    /// `size` bytes, `assoc` ways, 64 B lines. Set counts need not be a
    /// power of two (the paper sweeps odd sizes like 26 MB), so indexing
    /// falls back to an exact modulo for those.
    pub fn new(size: u64, assoc: usize) -> Self {
        let lines = (size / 64).max(1) as usize;
        let assoc = assoc.clamp(1, lines);
        let sets = (lines / assoc).max(1);
        Cache {
            sets: Divisor::new(sets),
            assoc,
            keys: vec![0; sets * assoc],
            lru: vec![0; sets * assoc],
            entries: vec![Entry::default(); sets * assoc],
            clock: 0,
        }
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let start = self.sets.rem(line) * self.assoc;
        start..start + self.assoc
    }

    /// Look up a line; on hit, refresh LRU and return a handle index.
    #[inline]
    pub fn probe(&mut self, line: u64) -> Option<usize> {
        self.clock += 1;
        let i = self.peek(line)?;
        self.lru[i] = self.clock;
        Some(i)
    }

    /// Look up without perturbing LRU (directory peeks).
    #[inline]
    pub(crate) fn peek(&self, line: u64) -> Option<usize> {
        let key = line + 1;
        let r = self.set_range(line);
        let start = r.start;
        self.keys[r]
            .iter()
            .position(|&k| k == key)
            .map(|w| start + w)
    }

    /// Insert a line (caller has established it is absent); returns the
    /// victim if a valid line was evicted.
    pub fn insert(&mut self, line: u64) -> (usize, Option<Evicted>) {
        self.clock += 1;
        let r = self.set_range(line);
        let start = r.start;
        // First invalid way, else the first least-recently-used one.
        let invalid = self.keys[r.clone()].iter().position(|&k| k == 0);
        let way = invalid.unwrap_or_else(|| {
            let stamps = self.lru[r].iter().enumerate();
            stamps
                .min_by_key(|&(_, &stamp)| stamp)
                .map_or(0, |(w, _)| w)
        });
        let victim = start + way;
        let old = self.entries[victim];
        let evicted = (self.keys[victim] != 0).then(|| Evicted {
            line: self.keys[victim] - 1,
            dirty: old.dirty,
            sharers: old.sharers,
        });
        self.keys[victim] = line + 1;
        self.lru[victim] = self.clock;
        self.entries[victim] = Entry {
            dirty: false,
            sharers: 0,
            owner: 0xFF,
            dirty_in_l1: false,
        };
        (victim, evicted)
    }

    /// Remove a line if present; returns whether it was dirty.
    pub(crate) fn invalidate(&mut self, line: u64) -> Option<bool> {
        let i = self.peek(line)?;
        self.keys[i] = 0;
        Some(self.entries[i].dirty)
    }

    #[inline]
    pub(crate) fn entry_mut(&mut self, idx: usize) -> &mut Entry {
        &mut self.entries[idx]
    }

    #[inline]
    pub(crate) fn entry(&self, idx: usize) -> &Entry {
        &self.entries[idx]
    }

    #[cfg(test)]
    fn sets(&self) -> usize {
        self.keys.len() / self.assoc
    }

    #[cfg(test)]
    fn assoc(&self) -> usize {
        self.assoc
    }

    /// Number of valid lines currently resident.
    #[cfg(test)]
    fn occupancy(&self) -> usize {
        self.keys.iter().filter(|&&k| k != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways = 8 lines of 64 B = 512 B.
        Cache::new(512, 2)
    }

    #[test]
    fn hit_after_insert() {
        let mut c = small();
        assert!(c.probe(10).is_none());
        c.insert(10);
        assert!(c.probe(10).is_some());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.insert(0);
        c.insert(4);
        c.probe(0); // 0 now MRU; 4 is LRU
        let (_, ev) = c.insert(8);
        assert_eq!(ev.unwrap().line, 4);
        assert!(c.peek(0).is_some());
        assert!(c.peek(8).is_some());
        assert!(c.peek(4).is_none());
    }

    #[test]
    fn invalidate_reports_dirty() {
        let mut c = small();
        let (i, _) = c.insert(3);
        c.entry_mut(i).dirty = true;
        assert_eq!(c.invalidate(3), Some(true));
        assert_eq!(c.invalidate(3), None);
        assert!(c.probe(3).is_none());
    }

    #[test]
    fn eviction_carries_metadata() {
        let mut c = Cache::new(128, 1); // 2 sets x 1 way
        let (i, _) = c.insert(0);
        {
            let e = c.entry_mut(i);
            e.dirty = true;
            e.sharers = 0b101;
            e.dirty_in_l1 = true;
            e.owner = 2;
        }
        let (_, ev) = c.insert(2); // same set (2 sets: line 2 -> set 0)
        let ev = ev.unwrap();
        assert_eq!(ev.line, 0);
        assert!(ev.dirty);
        assert_eq!(ev.sharers, 0b101);
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut c = small();
        c.insert(0);
        c.insert(4);
        // Peek at 0 (would make it MRU if it were probe).
        c.peek(0);
        // 0 is still LRU (insert order), so inserting 8 evicts 0.
        let (_, ev) = c.insert(8);
        assert_eq!(ev.unwrap().line, 0);
    }

    #[test]
    fn occupancy_counts() {
        let mut c = small();
        assert_eq!(c.occupancy(), 0);
        c.insert(1);
        c.insert(2);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn geometry_exact_for_odd_sizes() {
        let c = Cache::new(1 << 20, 16);
        assert_eq!(c.sets() * c.assoc(), 16384);
        // 26 MB / 64 B / 16-way = 26624 sets — not a power of two, must not
        // be silently rounded.
        let mut c26 = Cache::new(26 << 20, 16);
        assert_eq!(c26.sets() * c26.assoc(), (26 << 20) / 64);
        // ...and indexes by exact modulo: lines one set-count apart
        // collide, lines one power of two apart do not.
        let sets = c26.sets() as u64;
        assert!(!sets.is_power_of_two());
        let (a, _) = c26.insert(5);
        let (b, _) = c26.insert(5 + sets);
        let (c, _) = c26.insert(5 + sets.next_power_of_two());
        assert_eq!(a / 16, b / 16, "same set");
        assert_ne!(a / 16, c / 16, "a mask would have aliased these");
    }

    #[test]
    fn divisor_is_exact_for_any_divisor() {
        for d in [1usize, 2, 3, 6, 8, 26_624, 1 << 14] {
            let div = Divisor::new(d);
            for x in [
                0usize,
                1,
                5,
                63,
                64,
                26_623,
                26_624,
                1 << 20,
                usize::MAX >> 1,
            ] {
                assert_eq!(div.div(x), x / d, "{x} / {d}");
                assert_eq!(div.rem(x as u64), x % d, "{x} % {d}");
            }
        }
    }
}
