//! Heap tables: a sequence of slotted pages behind a buffer-pool style
//! indirection.
//!
//! The page table (PageId → frame) is itself a traced structure: looking
//! up a page costs a buffer-pool probe (hash + pin), exactly the code
//! path a disk-resident engine pays even when everything is
//! memory-resident — part of the paper-era instruction footprint.

use dbcmp_trace::AddressSpace;

use crate::costs::instr;
use crate::error::{EngineError, Result};
use crate::page::{SlotId, SlottedPage, PAGE_SIZE};
use crate::schema::Schema;
use crate::tctx::TraceCtx;
use crate::types::{decode_row, encode_row, encode_row_into, Row, TupleRef, Value};

/// Row identifier: (page, slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Page number within the heap.
    pub page: u32,
    /// Slot within the page.
    pub slot: SlotId,
}

impl Rid {
    /// Pack into a u64 (B+Tree value payload).
    pub(crate) fn pack(self) -> u64 {
        ((self.page as u64) << 16) | self.slot as u64
    }

    /// Unpack from the B+Tree value payload.
    pub(crate) fn unpack(v: u64) -> Self {
        Rid {
            page: (v >> 16) as u32,
            slot: (v & 0xFFFF) as u16,
        }
    }
}

/// One heap table.
#[derive(Debug)]
pub struct HeapTable {
    /// Row layout of the table.
    pub schema: Schema,
    pages: Vec<SlottedPage>,
    /// Simulated address of the buffer-pool page table for this heap.
    bp_addr: u64,
    /// Page currently targeted by inserts.
    insert_page: u32,
    live_rows: usize,
    /// The page image of the row being inserted, refilled per insert.
    encoded: Vec<u8>,
}

impl HeapTable {
    /// An empty heap with a simulated buffer-pool allocation.
    pub(crate) fn new(schema: Schema, space: &AddressSpace) -> Self {
        HeapTable {
            schema,
            pages: Vec::new(),
            bp_addr: space.alloc(16 * 1024),
            insert_page: 0,
            live_rows: 0,
            encoded: Vec::new(),
        }
    }

    fn new_page(&mut self, space: &AddressSpace) -> u32 {
        let addr = space.alloc(PAGE_SIZE as u64);
        self.pages.push(SlottedPage::new(addr));
        (self.pages.len() - 1) as u32
    }

    /// Buffer-pool probe for a page: charged instructions + a dependent
    /// load of the page-table bucket.
    fn bp_probe(&self, page: u32, tc: &mut TraceCtx) {
        tc.charge(tc.r.buffer_pool, instr::BP_LOOKUP);
        tc.load_dep(self.bp_addr + (page as u64 % 2048) * 8, 8);
        tc.charge(tc.r.buffer_pool, instr::PAGE_LATCH);
    }

    /// Insert a row; returns its RID.
    pub(crate) fn insert(
        &mut self,
        row: &[Value],
        space: &AddressSpace,
        tc: &mut TraceCtx,
    ) -> Result<Rid> {
        tc.charge(
            tc.r.tuple,
            instr::TUPLE_ENCODE + (self.schema.row_width() / 16) as u32,
        );
        encode_row_into(&self.schema, row, &mut self.encoded)?;
        if self.pages.is_empty() {
            self.new_page(space);
        }
        let mut page = self.insert_page;
        if !self.pages[page as usize].fits(self.encoded.len()) {
            page = self.new_page(space);
            self.insert_page = page;
        }
        self.bp_probe(page, tc);
        let slot = self.pages[page as usize].insert(&self.encoded, tc)?;
        self.live_rows += 1;
        Ok(Rid { page, slot })
    }

    /// Fetch and decode a row.
    pub fn get(&self, rid: Rid, tc: &mut TraceCtx) -> Result<Row> {
        self.bp_probe(rid.page, tc);
        let page = self
            .pages
            .get(rid.page as usize)
            .ok_or_else(|| EngineError::NotFound(format!("page {}", rid.page)))?;
        let bytes = page
            .get(rid.slot, tc)
            .ok_or_else(|| EngineError::NotFound(format!("rid {rid:?}")))?;
        tc.charge(tc.r.tuple, instr::TUPLE_DECODE + (bytes.len() / 16) as u32);
        Ok(decode_row(&self.schema, bytes))
    }

    /// Fetch the raw image (undo logging).
    pub(crate) fn get_bytes(&self, rid: Rid, tc: &mut TraceCtx) -> Result<Vec<u8>> {
        self.bp_probe(rid.page, tc);
        let page = self
            .pages
            .get(rid.page as usize)
            .ok_or_else(|| EngineError::NotFound(format!("page {}", rid.page)))?;
        page.get(rid.slot, tc)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| EngineError::NotFound(format!("rid {rid:?}")))
    }

    /// Update a row in place.
    pub(crate) fn update(&mut self, rid: Rid, row: &[Value], tc: &mut TraceCtx) -> Result<()> {
        tc.charge(
            tc.r.tuple,
            instr::TUPLE_ENCODE + (self.schema.row_width() / 16) as u32,
        );
        let bytes = encode_row(&self.schema, row)?;
        self.update_bytes(rid, &bytes, tc)
    }

    /// Update from a raw image (undo).
    pub(crate) fn update_bytes(&mut self, rid: Rid, bytes: &[u8], tc: &mut TraceCtx) -> Result<()> {
        self.bp_probe(rid.page, tc);
        let page = self
            .pages
            .get_mut(rid.page as usize)
            .ok_or_else(|| EngineError::NotFound(format!("page {}", rid.page)))?;
        page.update(rid.slot, bytes, tc)
    }

    /// Delete a row.
    pub(crate) fn delete(&mut self, rid: Rid, tc: &mut TraceCtx) -> Result<()> {
        self.bp_probe(rid.page, tc);
        let page = self
            .pages
            .get_mut(rid.page as usize)
            .ok_or_else(|| EngineError::NotFound(format!("page {}", rid.page)))?;
        page.delete(rid.slot, tc)?;
        self.live_rows -= 1;
        Ok(())
    }

    /// Restore a deleted row image at its original RID (abort of a
    /// delete; the slot's bytes are still reserved).
    pub(crate) fn restore_bytes(
        &mut self,
        rid: Rid,
        bytes: &[u8],
        tc: &mut TraceCtx,
    ) -> Result<()> {
        self.bp_probe(rid.page, tc);
        let page = self
            .pages
            .get_mut(rid.page as usize)
            .ok_or_else(|| EngineError::NotFound(format!("page {}", rid.page)))?;
        page.restore(rid.slot, bytes, tc)?;
        self.live_rows += 1;
        Ok(())
    }

    /// Number of allocated pages.
    pub fn n_pages(&self) -> usize {
        self.pages.len()
    }

    /// Slot count (including tombstones) of one page; 0 for out-of-range.
    pub fn page_nslots(&self, page: u32) -> u16 {
        self.pages.get(page as usize).map_or(0, SlottedPage::nslots)
    }

    /// Number of live rows (tombstones excluded).
    pub fn n_rows(&self) -> usize {
        self.live_rows
    }

    /// Iterate every allocated RID in physical order — tombstoned slots
    /// included: callers filter on [`HeapTable::read_at`] returning `None`
    /// (the scan operator drives this; per-tuple charges happen there).
    pub fn rids(&self) -> impl Iterator<Item = Rid> + '_ {
        self.pages.iter().enumerate().flat_map(|(p, page)| {
            (0..page.nslots()).map(move |s| Rid {
                page: p as u32,
                slot: s,
            })
        })
    }

    /// Raw access for the scan path: page + slot to the tuple, without
    /// buffer-pool charge (the scan pins a page once, not per tuple).
    /// The slot and tuple loads and the whole `TUPLE_DECODE` charge are
    /// issued here, whatever the caller goes on to read: the simulated
    /// engine decodes every tuple it visits. The *host* decodes only
    /// what is asked of the returned view.
    pub fn read_at(&self, rid: Rid, tc: &mut TraceCtx) -> Option<TupleRef<'_>> {
        let page = self.pages.get(rid.page as usize)?;
        let bytes = page.get(rid.slot, tc)?;
        tc.charge(tc.r.tuple, instr::TUPLE_DECODE + (bytes.len() / 16) as u32);
        Some(TupleRef::new(&self.schema, bytes))
    }

    /// Per-page pin for scans.
    pub fn pin_page(&self, page: u32, tc: &mut TraceCtx) {
        self.bp_probe(page, tc);
    }

    /// Feed the heap's buffer-pool address, insert cursor, row count and
    /// every page to `word`
    /// ([`Database::state_digest`](crate::Database::state_digest)).
    pub(crate) fn digest(&self, word: &mut impl FnMut(u64)) {
        word(self.bp_addr);
        word(self.insert_page as u64);
        word(self.live_rows as u64);
        word(self.pages.len() as u64);
        for page in &self.pages {
            page.digest(word);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::EngineRegions;
    use crate::types::ColType;
    use dbcmp_trace::CodeRegions;

    fn setup() -> (HeapTable, AddressSpace, TraceCtx) {
        let mut r = CodeRegions::new();
        let er = EngineRegions::register(&mut r);
        let space = AddressSpace::new();
        let schema = Schema::new(vec![("id", ColType::Int), ("name", ColType::Str(12))]);
        let heap = HeapTable::new(schema, &space);
        (heap, space, TraceCtx::null(er))
    }

    fn row(id: i64, name: &str) -> Row {
        vec![Value::Int(id), Value::Str(name.into())]
    }

    #[test]
    fn insert_get_update_delete() {
        let (mut h, space, mut tc) = setup();
        let rid = h.insert(&row(1, "alice"), &space, &mut tc).unwrap();
        assert_eq!(h.get(rid, &mut tc).unwrap(), row(1, "alice"));
        h.update(rid, &row(1, "bob"), &mut tc).unwrap();
        assert_eq!(h.get(rid, &mut tc).unwrap(), row(1, "bob"));
        h.delete(rid, &mut tc).unwrap();
        assert!(h.get(rid, &mut tc).is_err());
        assert_eq!(h.n_rows(), 0);
    }

    #[test]
    fn spills_to_new_pages() {
        let (mut h, space, mut tc) = setup();
        for i in 0..2000 {
            h.insert(&row(i, "xxxxxxxxxxxx"), &space, &mut tc).unwrap();
        }
        assert!(h.n_pages() > 1, "2000 rows x 30B must span pages");
        assert_eq!(h.n_rows(), 2000);
        // All rows readable through the scan path.
        let mut seen = 0;
        for rid in h.rids() {
            if h.read_at(rid, &mut tc).is_some() {
                seen += 1;
            }
        }
        assert_eq!(seen, 2000);
    }

    #[test]
    fn rid_pack_roundtrip() {
        let rid = Rid {
            page: 123_456,
            slot: 789,
        };
        assert_eq!(Rid::unpack(rid.pack()), rid);
    }
}
