//! The engine's cost model: code regions and per-action instruction
//! charges.
//!
//! **This module is the single calibration point of the reproduction.**
//! Region footprints determine the L1-I working sets (paper §4: the OLTP
//! path's instruction footprint far exceeds L1-I capacity; DSS scan loops
//! fit); instruction charges determine the compute-to-memory ratio of the
//! traces. Values follow the instruction-budget shape of classic row-store
//! engines (Shore/commercial engines of the paper's era): a few hundred
//! instructions per B+Tree node visit or lock acquisition, tens per
//! predicate evaluation or tuple copy.
//!
//! The OLTP statement path touches: client/session + txn manager + lock
//! manager + B+Tree + buffer pool + WAL + tuple codec + catalog — a
//! combined footprint of ≈300 KB. The DSS inner loop touches scan +
//! filter + agg + tuple ≈ 40 KB.

use dbcmp_trace::{CodeRegions, RegionId};

/// Region ids for every engine subsystem (cheap to copy around).
#[derive(Debug, Clone, Copy)]
pub struct EngineRegions {
    /// Client/session layer: statement dispatch, "parsing"/plan lookup.
    pub(crate) client: RegionId,
    /// Transaction manager: begin/commit/abort bookkeeping.
    pub(crate) txn_mgr: RegionId,
    /// Lock manager: hash buckets, grant/conflict logic.
    pub(crate) lock_mgr: RegionId,
    /// B+Tree search path.
    pub(crate) btree_search: RegionId,
    /// B+Tree insert/split path.
    pub(crate) btree_insert: RegionId,
    /// Buffer pool: page-table probe, pin/unpin.
    pub(crate) buffer_pool: RegionId,
    /// Write-ahead log append/commit.
    pub(crate) wal: RegionId,
    /// Catalog lookups.
    pub(crate) catalog: RegionId,
    /// Tuple (de)serialization.
    pub tuple: RegionId,
    /// Sequential scan inner loop.
    pub exec_scan: RegionId,
    /// Predicate evaluation.
    pub exec_filter: RegionId,
    /// Projection/expression evaluation. No operator charges it; it stays
    /// registered so every region after it keeps its code addresses.
    pub exec_project: RegionId,
    /// Hash join build/probe.
    pub exec_hashjoin: RegionId,
    /// Hash aggregation.
    pub exec_agg: RegionId,
    /// Sort.
    pub(crate) exec_sort: RegionId,
    /// Nested-loop join.
    pub(crate) exec_nlj: RegionId,
    /// Exchange operator: hash routing + row shipping for distributed
    /// shuffle/broadcast joins.
    pub exec_exchange: RegionId,
}

impl EngineRegions {
    /// Register all engine regions. Footprints in bytes; misprediction
    /// rates per 1000 instructions (branchy subsystems like the lock
    /// manager mispredict more than streaming scans).
    pub fn register(r: &mut CodeRegions) -> Self {
        EngineRegions {
            client: r.add("client/session", 96 << 10, 6.0),
            txn_mgr: r.add("txn-manager", 40 << 10, 6.0),
            lock_mgr: r.add("lock-manager", 36 << 10, 7.0),
            btree_search: r.add("btree-search", 20 << 10, 4.0),
            btree_insert: r.add("btree-insert", 24 << 10, 5.0),
            buffer_pool: r.add("buffer-pool", 28 << 10, 5.0),
            wal: r.add("wal", 20 << 10, 3.0),
            catalog: r.add("catalog", 16 << 10, 3.0),
            tuple: r.add("tuple-codec", 12 << 10, 3.0),
            exec_scan: r.add("exec-scan", 10 << 10, 1.5),
            exec_filter: r.add("exec-filter", 6 << 10, 3.0),
            exec_project: r.add("exec-project", 6 << 10, 2.0),
            exec_hashjoin: r.add("exec-hashjoin", 18 << 10, 4.0),
            exec_agg: r.add("exec-agg", 12 << 10, 2.5),
            exec_sort: r.add("exec-sort", 16 << 10, 5.0),
            exec_nlj: r.add("exec-nlj", 8 << 10, 3.0),
            exec_exchange: r.add("exec-exchange", 8 << 10, 2.5),
        }
    }

    /// Combined footprint of the OLTP statement path (bytes).
    #[cfg(test)]
    fn oltp_footprint(&self, regions: &CodeRegions) -> u64 {
        regions.footprint_of(&[
            self.client,
            self.txn_mgr,
            self.lock_mgr,
            self.btree_search,
            self.btree_insert,
            self.buffer_pool,
            self.wal,
            self.catalog,
            self.tuple,
        ])
    }

    /// Combined footprint of the DSS scan-aggregate inner loop (bytes).
    #[cfg(test)]
    fn dss_scan_footprint(&self, regions: &CodeRegions) -> u64 {
        regions.footprint_of(&[self.exec_scan, self.exec_filter, self.exec_agg, self.tuple])
    }
}

/// Per-action instruction charges. Grouped here so the whole model is
/// auditable at a glance.
pub mod instr {
    /// Statement dispatch through the client/session layer.
    pub(crate) const CLIENT_DISPATCH: u32 = 350;
    /// Transaction begin bookkeeping.
    pub(crate) const TXN_BEGIN: u32 = 140;
    /// Transaction commit (excluding WAL append, charged separately).
    pub(crate) const TXN_COMMIT: u32 = 220;
    /// Transaction abort incl. undo application per record surcharge.
    pub(crate) const TXN_ABORT_BASE: u32 = 180;
    /// Undo application, per record rolled back.
    pub(crate) const TXN_UNDO_PER_REC: u32 = 90;
    /// Lock acquire (hash, probe, grant).
    pub(crate) const LOCK_ACQUIRE: u32 = 85;
    /// Lock release (per lock, at commit).
    pub(crate) const LOCK_RELEASE: u32 = 35;
    /// Enqueue on a lock wait queue + waits-for edge bookkeeping.
    pub(crate) const LOCK_ENQUEUE: u32 = 60;
    /// Resume after a lock grant (dequeue, re-validate).
    pub(crate) const LOCK_WAKE: u32 = 45;
    /// Waits-for cycle detection, per transaction visited.
    pub(crate) const DEADLOCK_SCAN: u32 = 30;
    /// Lock-table contention surcharge, per additional client sharing
    /// the engine, per lock-manager operation (CAS retries, latch
    /// backoff, queue-line ping-pong all scale with the number of
    /// threads hammering one lock table). Applied by
    /// [`Database::set_lock_sharers`](crate::Database::set_lock_sharers);
    /// zero sharers declared (the default) charges nothing.
    pub(crate) const LOCK_CONTEND: u32 = 4;
    /// B+Tree: per node visited (binary search within node).
    pub(crate) const BTREE_NODE: u32 = 55;
    /// B+Tree: leaf entry insert (shift + write).
    pub(crate) const BTREE_LEAF_INSERT: u32 = 70;
    /// B+Tree: node split.
    pub(crate) const BTREE_SPLIT: u32 = 320;
    /// Buffer pool page-table probe + pin.
    pub(crate) const BP_LOOKUP: u32 = 40;
    /// Page latch acquire/release pair.
    pub(crate) const PAGE_LATCH: u32 = 14;
    /// WAL record append base cost (+ bytes/8 charged by caller).
    pub(crate) const WAL_APPEND: u32 = 55;
    /// Catalog lookup by name.
    pub(crate) const CATALOG_LOOKUP: u32 = 60;
    /// Tuple decode base (+ bytes/16 by caller).
    pub const TUPLE_DECODE: u32 = 16;
    /// Tuple encode base (+ bytes/16 by caller).
    pub const TUPLE_ENCODE: u32 = 22;
    /// Predicate evaluation per row.
    pub(crate) const PREDICATE: u32 = 11;
    /// Scan loop per-tuple overhead (slot lookup, iterator bookkeeping).
    pub const SCAN_STEP: u32 = 9;
    /// Hash join: hash + bucket handling per build row.
    pub(crate) const HJ_BUILD_ROW: u32 = 28;
    /// Hash join: probe per row.
    pub(crate) const HJ_PROBE_ROW: u32 = 24;
    /// Index-nested-loop join: per-probe setup (key extraction, rid
    /// dispatch) — the B+Tree descent itself charges `BTREE_NODE` per
    /// level through the btree-search region.
    pub(crate) const INL_PROBE_ROW: u32 = 14;
    /// Aggregation update per row.
    pub const AGG_UPDATE: u32 = 18;
    /// Sort: per-comparison charge.
    pub(crate) const SORT_CMP: u32 = 8;
    /// Exchange operator: hash the join key and pick a destination
    /// partition, per routed row (shipped rows additionally pay the
    /// tuple codec charges at each end).
    pub const XCHG_PART_ROW: u32 = 12;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oltp_footprint_exceeds_l1i_dss_fits() {
        let mut r = CodeRegions::new();
        let er = EngineRegions::register(&mut r);
        let l1i = 64 << 10;
        assert!(
            er.oltp_footprint(&r) > 3 * l1i,
            "OLTP path must be several times the L1-I size (paper §4)"
        );
        assert!(
            er.dss_scan_footprint(&r) <= l1i,
            "DSS scan loop must fit in the L1-I (paper §4)"
        );
    }

    #[test]
    fn regions_registered_distinctly() {
        let mut r = CodeRegions::new();
        let er = EngineRegions::register(&mut r);
        assert_eq!(r.len(), 17);
        assert_ne!(er.client, er.exec_sort);
    }
}
