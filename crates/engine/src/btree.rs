//! B+Tree index over packed `u64` keys.
//!
//! Keys are unique (composite keys pack discriminators into the low bits,
//! so logical duplicates never collide); values are packed RIDs or counts.
//! Nodes hold up to [`ORDER`] keys; leaves are chained for range scans.
//!
//! Tracing: every descent emits a **dependent** load per level (the child
//! pointer cannot be known before the node header is read) — the pointer-
//! chase pattern that denies out-of-order cores their memory-level
//! parallelism on OLTP (paper §4). Binary search inside a node touches a
//! few of the node's cache lines; inserts store into the leaf.
//!
//! Deletion is by lazy leaf removal (no rebalancing): the tree never
//! shrinks structurally. This matches the workload mix (TPC-C deletes only
//! from NEW-ORDER, which is insert-balanced) and keeps the structure
//! simple; lookups and scans remain correct throughout.

use dbcmp_trace::AddressSpace;

use crate::costs::instr;
use crate::error::{EngineError, Result};
use crate::tctx::TraceCtx;

/// Maximum keys per node.
pub(crate) const ORDER: usize = 64;
/// Simulated bytes per node (header + keys + values/children).
const NODE_BYTES: u64 = 1152;
/// Offset of the key area within a node's simulated layout.
const KEYS_OFF: u64 = 16;
/// Room for an insert's root-to-leaf path. A split leaves each half of an
/// internal node at least `ORDER / 2 + 1` children, so a tree of `u32`
/// node ids is at most 8 levels high.
const MAX_HEIGHT: usize = 16;

#[derive(Debug)]
enum Node {
    Leaf {
        keys: Vec<u64>,
        vals: Vec<u64>,
        next: Option<u32>,
        addr: u64,
    },
    Internal {
        keys: Vec<u64>,
        children: Vec<u32>,
        addr: u64,
    },
}

impl Node {
    fn addr(&self) -> u64 {
        match self {
            Node::Leaf { addr, .. } | Node::Internal { addr, .. } => *addr,
        }
    }
}

/// A unique-key B+Tree.
#[derive(Debug)]
pub(crate) struct BTree {
    nodes: Vec<Node>,
    root: u32,
    len: usize,
}

/// Range-scan cursor (leaf position + exclusive upper bound).
#[derive(Debug, Clone)]
pub(crate) struct Cursor {
    node: Option<u32>,
    idx: usize,
    hi: u64,
}

impl BTree {
    /// An empty tree (a single leaf) with simulated node addresses.
    pub(crate) fn new(space: &AddressSpace) -> Self {
        let addr = space.alloc(NODE_BYTES);
        BTree {
            nodes: vec![Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
                next: None,
                addr,
            }],
            root: 0,
            len: 0,
        }
    }

    /// Tree height (levels).
    #[cfg(test)]
    pub(crate) fn height(&self) -> usize {
        let mut h = 1;
        let mut n = self.root;
        while let Node::Internal { children, .. } = &self.nodes[n as usize] {
            n = children[0];
            h += 1;
        }
        h
    }

    /// Charge the traced cost of visiting a node: a dependent header load
    /// plus the binary-search touches inside the key area.
    fn visit_node(&self, node: u32, key: u64, tc: &mut TraceCtx, region: u16) {
        let n = &self.nodes[node as usize];
        let addr = n.addr();
        tc.charge(region, instr::BTREE_NODE);
        tc.load_dep(addr, 16);
        // Binary search touches ~3 probe points in the key array.
        let len = match n {
            Node::Leaf { keys, .. } | Node::Internal { keys, .. } => keys.len().max(1),
        } as u64;
        let probe = (key % len) * 8;
        tc.load(addr + KEYS_OFF + probe / 2, 8);
        tc.load(addr + KEYS_OFF + probe, 8);
        tc.load(addr + KEYS_OFF + (probe + len * 4).min(len * 8 - 8), 8);
    }

    /// Descend to the leaf that should contain `key`, handing each
    /// internal node passed through to `parent`, root first.
    fn find_leaf(
        &self,
        key: u64,
        tc: &mut TraceCtx,
        region: u16,
        mut parent: impl FnMut(u32),
    ) -> u32 {
        let mut node = self.root;
        loop {
            self.visit_node(node, key, tc, region);
            match &self.nodes[node as usize] {
                Node::Internal { keys, children, .. } => {
                    let idx = keys.partition_point(|&k| k <= key);
                    parent(node);
                    node = children[idx];
                }
                Node::Leaf { .. } => return node,
            }
        }
    }

    /// Point lookup.
    pub(crate) fn get(&self, key: u64, tc: &mut TraceCtx) -> Option<u64> {
        let region = tc.r.btree_search;
        let leaf = self.find_leaf(key, tc, region, |_| {});
        let Node::Leaf { keys, vals, .. } = &self.nodes[leaf as usize] else {
            unreachable!()
        };
        keys.binary_search(&key).ok().map(|i| vals[i])
    }

    /// Insert a unique key.
    pub(crate) fn insert(
        &mut self,
        key: u64,
        val: u64,
        space: &AddressSpace,
        tc: &mut TraceCtx,
    ) -> Result<()> {
        let region = tc.r.btree_insert;
        let (mut path, mut depth) = ([0u32; MAX_HEIGHT], 0);
        let leaf = self.find_leaf(key, tc, region, |node| {
            path[depth] = node;
            depth += 1;
        });
        let (leaf_addr, pos) = {
            let Node::Leaf {
                keys, vals, addr, ..
            } = &mut self.nodes[leaf as usize]
            else {
                unreachable!()
            };
            match keys.binary_search(&key) {
                Ok(_) => return Err(EngineError::DuplicateKey(key)),
                Err(pos) => {
                    keys.insert(pos, key);
                    vals.insert(pos, val);
                    (*addr, pos)
                }
            }
        };
        tc.charge(region, instr::BTREE_LEAF_INSERT);
        tc.store(leaf_addr + KEYS_OFF + (pos as u64) * 8, 16);
        self.len += 1;
        self.split_up(leaf, &path[..depth], space, tc);
        Ok(())
    }

    /// Split from `leaf` up its `path` of parents (root first) while
    /// nodes overflow, growing a new root when the old one splits.
    fn split_up(&mut self, leaf: u32, path: &[u32], space: &AddressSpace, tc: &mut TraceCtx) {
        let region = tc.r.btree_insert;
        let mut parents = path.iter().rev();
        let mut child = leaf;
        loop {
            let overflow = match &self.nodes[child as usize] {
                Node::Leaf { keys, .. } | Node::Internal { keys, .. } => keys.len() > ORDER,
            };
            if !overflow {
                break;
            }
            tc.charge(region, instr::BTREE_SPLIT);
            let (sep, sibling) = self.split(child, space, tc);
            match parents.next() {
                Some(&parent) => {
                    let Node::Internal {
                        keys,
                        children,
                        addr,
                    } = &mut self.nodes[parent as usize]
                    else {
                        unreachable!()
                    };
                    let idx = keys.partition_point(|&k| k <= sep);
                    keys.insert(idx, sep);
                    children.insert(idx + 1, sibling);
                    tc.store(*addr + KEYS_OFF + (idx as u64) * 8, 16);
                    child = parent;
                }
                None => {
                    // Root split.
                    let addr = space.alloc(NODE_BYTES);
                    tc.store(addr, 32);
                    let new_root = Node::Internal {
                        keys: vec![sep],
                        children: vec![child, sibling],
                        addr,
                    };
                    self.nodes.push(new_root);
                    self.root = (self.nodes.len() - 1) as u32;
                    break;
                }
            }
        }
    }

    /// Split `node`, returning (separator key, new sibling id).
    fn split(&mut self, node: u32, space: &AddressSpace, tc: &mut TraceCtx) -> (u64, u32) {
        let new_addr = space.alloc(NODE_BYTES);
        let sibling_id = self.nodes.len() as u32;
        let mid = ORDER.div_ceil(2);
        let (sep, sibling) = match &mut self.nodes[node as usize] {
            Node::Leaf {
                keys, vals, next, ..
            } => {
                let k2 = split_right(keys, mid, mid);
                let v2 = split_right(vals, mid, mid);
                let sep = k2[0];
                let sib = Node::Leaf {
                    keys: k2,
                    vals: v2,
                    next: *next,
                    addr: new_addr,
                };
                *next = Some(sibling_id);
                (sep, sib)
            }
            Node::Internal { keys, children, .. } => {
                // Middle key moves up; right half to the sibling.
                let sep = keys[mid];
                let k2 = split_right(keys, mid, mid + 1);
                let c2 = split_right(children, mid + 1, mid + 1);
                (
                    sep,
                    Node::Internal {
                        keys: k2,
                        children: c2,
                        addr: new_addr,
                    },
                )
            }
        };
        // Writing out the new node.
        tc.store(new_addr, 256);
        self.nodes.push(sibling);
        (sep, sibling_id)
    }

    /// Remove a key (lazy: leaf-only). Returns the removed value.
    pub(crate) fn remove(&mut self, key: u64, tc: &mut TraceCtx) -> Option<u64> {
        let region = tc.r.btree_insert;
        let leaf = self.find_leaf(key, tc, region, |_| {});
        let Node::Leaf {
            keys, vals, addr, ..
        } = &mut self.nodes[leaf as usize]
        else {
            unreachable!()
        };
        match keys.binary_search(&key) {
            Ok(i) => {
                let addr = *addr;
                keys.remove(i);
                let v = vals.remove(i);
                tc.charge(region, instr::BTREE_LEAF_INSERT);
                tc.store(addr + KEYS_OFF + (i as u64) * 8, 16);
                self.len -= 1;
                Some(v)
            }
            Err(_) => None,
        }
    }

    /// Open a cursor over `[lo, hi]` (inclusive bounds).
    pub(crate) fn cursor(&self, lo: u64, hi: u64, tc: &mut TraceCtx) -> Cursor {
        let region = tc.r.btree_search;
        let leaf = self.find_leaf(lo, tc, region, |_| {});
        let Node::Leaf { keys, .. } = &self.nodes[leaf as usize] else {
            unreachable!()
        };
        let idx = keys.partition_point(|&k| k < lo);
        Cursor {
            node: Some(leaf),
            idx,
            hi,
        }
    }

    /// Advance a cursor; `None` when past the upper bound.
    pub(crate) fn cursor_next(&self, cur: &mut Cursor, tc: &mut TraceCtx) -> Option<(u64, u64)> {
        loop {
            let node = cur.node?;
            let Node::Leaf {
                keys,
                vals,
                next,
                addr,
            } = &self.nodes[node as usize]
            else {
                unreachable!()
            };
            if cur.idx < keys.len() {
                let k = keys[cur.idx];
                if k > cur.hi {
                    cur.node = None;
                    return None;
                }
                tc.load(*addr + KEYS_OFF + (cur.idx as u64) * 8, 16);
                let v = vals[cur.idx];
                cur.idx += 1;
                return Some((k, v));
            }
            // Chase the leaf chain.
            tc.charge(tc.r.btree_search, instr::BTREE_NODE / 2);
            tc.load_dep(*addr, 16);
            cur.node = *next;
            cur.idx = 0;
        }
    }

    /// Collect an inclusive range (convenience for small ranges).
    pub(crate) fn range(&self, lo: u64, hi: u64, tc: &mut TraceCtx) -> Vec<(u64, u64)> {
        let mut cur = self.cursor(lo, hi, tc);
        let mut out = Vec::new();
        while let Some(kv) = self.cursor_next(&mut cur, tc) {
            out.push(kv);
        }
        out
    }

    /// Feed the root, key count and every node (address, keys, values or
    /// children, leaf chain) to `word`
    /// ([`Database::state_digest`](crate::Database::state_digest)).
    pub(crate) fn digest(&self, word: &mut impl FnMut(u64)) {
        word(self.root as u64);
        word(self.len as u64);
        word(self.nodes.len() as u64);
        for node in &self.nodes {
            word(node.addr());
            match node {
                Node::Leaf {
                    keys, vals, next, ..
                } => {
                    word(keys.len() as u64);
                    keys.iter().chain(vals).for_each(|&w| word(w));
                    word(next.map_or(u64::MAX, u64::from));
                }
                Node::Internal { keys, children, .. } => {
                    word(u64::MAX - keys.len() as u64);
                    keys.iter().for_each(|&w| word(w));
                    children.iter().for_each(|&c| word(c as u64));
                }
            }
        }
    }
}

/// Split a node's column: `v` keeps its first `keep` items, in a buffer
/// of exactly that size, and the items from `from` on are returned in
/// `v`'s own grown buffer. On an ascending run the right sibling is the
/// node that keeps growing, so a finished node holds no spare capacity
/// (host memory only: the simulated node is [`NODE_BYTES`] either way).
fn split_right<T: Copy>(v: &mut Vec<T>, keep: usize, from: usize) -> Vec<T> {
    let left = v[..keep].to_vec();
    v.drain(..from);
    std::mem::replace(v, left)
}

/// An index build: [`BTree::insert`] of each key in turn, except that a
/// key above every key so far is appended to the end of the rightmost
/// leaf, with no descent. That leaf and its parents are the ones
/// `find_leaf` reaches for such a key (no separator on the way exceeds
/// the leaf's last key), so an append leaves the nodes the insert would,
/// splits at the same inserts and allocates in the same order; it skips
/// only the node visits and the leaf's binary search, and their events
/// with them, so a build is for a context nobody records
/// ([`Database::create_index`](crate::Database::create_index) runs it
/// under a null one).
pub(crate) struct Build {
    tree: BTree,
    /// The rightmost path: its internal nodes root first, then the leaf.
    spine: [u32; MAX_HEIGHT],
    /// Internal nodes on `spine`.
    depth: usize,
    /// `tree.nodes.len()` when `spine` was taken: only a split moves the
    /// rightmost path, and every split adds a node.
    taken_at: usize,
}

impl Build {
    /// A build into an empty tree ([`BTree::new`]).
    pub(crate) fn new(space: &AddressSpace) -> Self {
        Build {
            tree: BTree::new(space),
            spine: [0; MAX_HEIGHT],
            depth: 0,
            taken_at: 1,
        }
    }

    /// Enter a unique key: appended when above every key so far, through
    /// [`BTree::insert`] otherwise.
    pub(crate) fn insert(
        &mut self,
        key: u64,
        val: u64,
        space: &AddressSpace,
        tc: &mut TraceCtx,
    ) -> Result<()> {
        if self.taken_at != self.tree.nodes.len() {
            self.retake_spine();
        }
        let leaf = self.spine[self.depth];
        let Node::Leaf {
            keys, vals, addr, ..
        } = &mut self.tree.nodes[leaf as usize]
        else {
            unreachable!()
        };
        // Nothing leaves a tree under construction, so the rightmost
        // leaf's last key is the largest, and an empty leaf an empty tree.
        if keys.last().is_some_and(|&last| key <= last) {
            return self.tree.insert(key, val, space, tc);
        }
        let pos = keys.len() as u64;
        keys.push(key);
        vals.push(val);
        tc.charge(tc.r.btree_insert, instr::BTREE_LEAF_INSERT);
        tc.store(*addr + KEYS_OFF + pos * 8, 16);
        self.tree.len += 1;
        self.tree
            .split_up(leaf, &self.spine[..self.depth], space, tc);
        Ok(())
    }

    /// Walk the rightmost children down from the root.
    fn retake_spine(&mut self) {
        let mut node = self.tree.root;
        self.depth = 0;
        while let Node::Internal { children, .. } = &self.tree.nodes[node as usize] {
            self.spine[self.depth] = node;
            self.depth += 1;
            node = children[children.len() - 1];
        }
        self.spine[self.depth] = node;
        self.taken_at = self.tree.nodes.len();
    }

    /// The built tree.
    pub(crate) fn finish(self) -> BTree {
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::EngineRegions;
    use dbcmp_trace::{CodeRegions, Fnv};
    use proptest::prelude::*;

    fn setup() -> (BTree, AddressSpace, TraceCtx) {
        let mut r = CodeRegions::new();
        let er = EngineRegions::register(&mut r);
        let space = AddressSpace::new();
        let tree = BTree::new(&space);
        (tree, space, TraceCtx::null(er))
    }

    #[test]
    fn insert_get_small() {
        let (mut t, space, mut tc) = setup();
        for k in [5u64, 1, 9, 3, 7] {
            t.insert(k, k * 10, &space, &mut tc).unwrap();
        }
        assert_eq!(t.get(3, &mut tc), Some(30));
        assert_eq!(t.get(9, &mut tc), Some(90));
        assert_eq!(t.get(4, &mut tc), None);
        assert_eq!(t.len, 5);
    }

    #[test]
    fn duplicate_rejected() {
        let (mut t, space, mut tc) = setup();
        t.insert(1, 1, &space, &mut tc).unwrap();
        assert!(matches!(
            t.insert(1, 2, &space, &mut tc),
            Err(EngineError::DuplicateKey(1))
        ));
        assert_eq!(t.len, 1);
    }

    #[test]
    fn splits_grow_height() {
        let (mut t, space, mut tc) = setup();
        for k in 0..10_000u64 {
            t.insert(k, k, &space, &mut tc).unwrap();
        }
        assert!(t.height() >= 3, "10k keys at order 64 must be ≥3 levels");
        for k in (0..10_000u64).step_by(997) {
            assert_eq!(t.get(k, &mut tc), Some(k));
        }
        assert_eq!(t.len, 10_000);
    }

    #[test]
    fn range_scan_ordered() {
        let (mut t, space, mut tc) = setup();
        for k in (0..1000u64).rev() {
            t.insert(k * 2, k, &space, &mut tc).unwrap();
        }
        let r = t.range(100, 200, &mut tc);
        let keys: Vec<u64> = r.iter().map(|&(k, _)| k).collect();
        let expect: Vec<u64> = (100..=200).filter(|k| k % 2 == 0).collect();
        assert_eq!(keys, expect);
    }

    #[test]
    fn remove_then_miss() {
        let (mut t, space, mut tc) = setup();
        for k in 0..500u64 {
            t.insert(k, k + 1, &space, &mut tc).unwrap();
        }
        assert_eq!(t.remove(250, &mut tc), Some(251));
        assert_eq!(t.get(250, &mut tc), None);
        assert_eq!(t.remove(250, &mut tc), None);
        assert_eq!(t.len, 499);
        // Range skips the hole.
        let r = t.range(249, 251, &mut tc);
        assert_eq!(r, vec![(249, 250), (251, 252)]);
    }

    #[test]
    fn descent_emits_dependent_loads() {
        let mut r = CodeRegions::new();
        let er = EngineRegions::register(&mut r);
        let space = AddressSpace::new();
        let mut tree = BTree::new(&space);
        let mut tc = TraceCtx::null(er);
        for k in 0..5000u64 {
            tree.insert(k, k, &space, &mut tc).unwrap();
        }
        // Record a single lookup and inspect the trace.
        let mut rec = TraceCtx::recording(er);
        tree.get(2500, &mut rec);
        let trace = rec.finish();
        let deps = trace
            .iter()
            .filter(|e| matches!(e, dbcmp_trace::Event::Load { dep: true, .. }))
            .count();
        assert!(
            deps >= tree.height(),
            "one dependent load per level, got {deps}"
        );
    }

    /// Every event one recording context collects over a fixed-seed script
    /// — 20,000 random-key inserts (root splits cascade to height ≥ 3)
    /// interleaved with point lookups, short cursor scans and removes of
    /// live keys — plus each call's result and the tree the script leaves
    /// ([`BTree::digest`]), folded into one FNV-1a digest, pinned at
    /// `1b032a2`. A change to how a descent, split or leaf edit is traced,
    /// or to the nodes it builds, moves it.
    #[test]
    fn descents_and_splits_are_pinned() {
        let (mut t, space, _) = setup();
        let mut r = CodeRegions::new();
        let mut tc = TraceCtx::recording(EngineRegions::register(&mut r));
        let mut rng = proptest::test_runner::TestRng::deterministic("btree::descents_pin");
        let mut d = Fnv::new();
        let mut word = |w: u64| d.word(w);
        let mut live = Vec::new();
        for i in 0..20_000u64 {
            let key = rng.next_u64() >> 24;
            let ok = t.insert(key, i, &space, &mut tc).is_ok();
            word(u64::from(ok));
            if ok {
                live.push(key);
            }
            match i % 4 {
                1 => {
                    let probe = if rng.below(2) == 0 {
                        live[rng.below(live.len() as u64) as usize]
                    } else {
                        rng.next_u64() >> 24
                    };
                    word(t.get(probe, &mut tc).unwrap_or(u64::MAX));
                }
                2 => {
                    let lo = rng.next_u64() >> 24;
                    let mut cur = t.cursor(lo, lo + (1 << 36), &mut tc);
                    for _ in 0..rng.below(12) {
                        match t.cursor_next(&mut cur, &mut tc) {
                            Some((k, v)) => [k, v].into_iter().for_each(&mut word),
                            None => break,
                        }
                    }
                }
                3 => {
                    let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
                    word(t.remove(victim, &mut tc).unwrap_or(u64::MAX));
                    word(t.remove(victim, &mut tc).unwrap_or(u64::MAX));
                }
                _ => {}
            }
        }
        assert!(t.height() >= 3, "height {}", t.height());
        let trace = tc.finish();
        word(trace.len() as u64);
        trace.iter().for_each(|e| word(e.pack().0));
        t.digest(&mut word);
        assert_eq!(
            d.finish(),
            0x6ab1_9243_8114_a960,
            "B+tree events or nodes moved"
        );
    }

    /// Runs of keys, each `(kind, len, start)`: ascending from `start`,
    /// descending to it, or scattered.
    fn run_keys(runs: &[(u8, u64, u64)]) -> Vec<u64> {
        let run = |&(kind, len, start): &(u8, u64, u64)| {
            (0..len).map(move |i| match kind {
                0 => start + i,
                1 => start + len - i,
                _ => (start + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44,
            })
        };
        runs.iter().flat_map(run).collect()
    }

    /// Enter `keys` into one tree by [`BTree::insert`] and into another by
    /// a [`Build`], each over an address space of its own: every call's
    /// outcome, the trees' [`BTree::digest`] words and the bytes each
    /// space allocated agree. Returns the built tree.
    fn build_agrees_with_insert(keys: &[u64]) -> BTree {
        let (mut want, space_a, mut tc) = setup();
        let space_b = AddressSpace::new();
        let mut build = Build::new(&space_b);
        for &k in keys {
            let a = want.insert(k, !k, &space_a, &mut tc);
            assert_eq!(a, build.insert(k, !k, &space_b, &mut tc), "key {k}");
        }
        let got = build.finish();
        let words = |t: &BTree| {
            let mut v = Vec::new();
            t.digest(&mut |w| v.push(w));
            v
        };
        assert_eq!(words(&want), words(&got), "nodes differ");
        assert_eq!(space_a.allocated(), space_b.allocated());
        got
    }

    /// A sequential build leaves no spare capacity in any node off the
    /// rightmost path: each split copies the finished left half out to an
    /// exact-size buffer, and the right sibling, still growing, keeps the
    /// grown one.
    #[test]
    fn a_sequential_build_leaves_finished_nodes_exact_size() {
        let space = AddressSpace::new();
        let (_, _, mut tc) = setup();
        let mut build = Build::new(&space);
        for k in 0..20_000u64 {
            build.insert(k, !k, &space, &mut tc).unwrap();
        }
        let t = build.finish();
        assert!(t.height() >= 3, "height {}", t.height());
        let mut rightmost = vec![t.root];
        while let Node::Internal { children, .. } = &t.nodes[*rightmost.last().unwrap() as usize] {
            rightmost.push(children[children.len() - 1]);
        }
        for (id, node) in t.nodes.iter().enumerate() {
            if rightmost.contains(&(id as u32)) {
                continue;
            }
            let exact = match node {
                Node::Leaf { keys, vals, .. } => {
                    keys.capacity() == keys.len() && vals.capacity() == vals.len()
                }
                Node::Internal { keys, children, .. } => {
                    keys.capacity() == keys.len() && children.capacity() == children.len()
                }
            };
            assert!(exact, "node {id} of {} holds spare capacity", t.nodes.len());
        }
    }

    #[test]
    fn build_agrees_with_insert_past_two_root_splits() {
        // 5,000 ascending keys take the root to three levels; the runs
        // after them land below, between and above.
        let t = build_agrees_with_insert(&run_keys(&[
            (0, 5000, 1 << 20),
            (1, 800, 0),
            (2, 1500, 7),
            (0, 700, 1 << 21),
        ]));
        assert!(t.height() >= 3, "height {}", t.height());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The build path and [`BTree::insert`] leave the same tree over
        /// ascending runs, descending runs and scattered keys, mixed, with
        /// duplicates refused alike.
        #[test]
        fn build_matches_insert(
            runs in prop::collection::vec((0u8..3, 1u64..700, 0u64..1 << 20), 1..10),
        ) {
            build_agrees_with_insert(&run_keys(&runs));
        }

        /// The tree behaves exactly like a BTreeMap under arbitrary
        /// insert/remove/lookup interleavings.
        #[test]
        fn behaves_like_btreemap(ops in prop::collection::vec((0u8..3, 0u64..512), 1..400)) {
            let (mut t, space, mut tc) = setup();
            let mut model = std::collections::BTreeMap::new();
            for (op, key) in ops {
                match op {
                    0 => {
                        let r = t.insert(key, key + 7, &space, &mut tc);
                        let m = model.insert(key, key + 7);
                        prop_assert_eq!(r.is_err(), m.is_some());
                        if r.is_err() {
                            // engine rejects duplicates; restore the model
                            model.insert(key, m.unwrap());
                        }
                    }
                    1 => {
                        prop_assert_eq!(t.remove(key, &mut tc), model.remove(&key));
                    }
                    _ => {
                        prop_assert_eq!(t.get(key, &mut tc), model.get(&key).copied());
                    }
                }
                prop_assert_eq!(t.len, model.len());
            }
            // Full range agrees.
            let all = t.range(0, u64::MAX, &mut tc);
            let expect: Vec<(u64, u64)> = model.into_iter().collect();
            prop_assert_eq!(all, expect);
        }
    }
}
