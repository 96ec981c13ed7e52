//! Slotted pages: the classic row-store page layout.
//!
//! ```text
//! +--------------+----------------------------+------------------+
//! | header (16B) | tuples grow ->    <- free  | slot array grows |
//! +--------------+----------------------------+------------------+
//! ```
//!
//! Each slot is a 4-byte (offset, len) pair at the page tail. Deleting a
//! tuple zeroes its slot length; `compact` reclaims the holes. Every page
//! carries a simulated base address so accesses can be traced.

use crate::error::{EngineError, Result};
use crate::tctx::TraceCtx;
use crate::types::le_bytes;

/// Page size, matching the paper-era 8 KB default.
pub const PAGE_SIZE: usize = 8192;
const HEADER: usize = 16;
const SLOT_BYTES: usize = 4;

/// Slot index within a page.
pub(crate) type SlotId = u16;

/// One slotted page plus its simulated address.
#[derive(Debug, Clone)]
pub struct SlottedPage {
    data: Vec<u8>,
    nslots: u16,
    /// First free byte after the last tuple.
    free_ptr: u16,
    /// Simulated base address of this page.
    pub(crate) addr: u64,
}

impl SlottedPage {
    /// An empty page at the given simulated address.
    pub fn new(addr: u64) -> Self {
        SlottedPage {
            data: vec![0; PAGE_SIZE],
            nslots: 0,
            free_ptr: HEADER as u16,
            addr,
        }
    }

    fn slot_pos(&self, slot: SlotId) -> usize {
        PAGE_SIZE - (slot as usize + 1) * SLOT_BYTES
    }

    fn slot(&self, slot: SlotId) -> (u16, u16) {
        let p = self.slot_pos(slot);
        let off = u16::from_le_bytes(le_bytes(&self.data, p));
        let len = u16::from_le_bytes(le_bytes(&self.data, p + 2));
        (off, len)
    }

    fn set_slot(&mut self, slot: SlotId, off: u16, len: u16) {
        let p = self.slot_pos(slot);
        self.data[p..p + 2].copy_from_slice(&off.to_le_bytes());
        self.data[p + 2..p + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Free space available for one more tuple of `len` bytes.
    pub fn fits(&self, len: usize) -> bool {
        let slot_top = PAGE_SIZE - (self.nslots as usize + 1) * SLOT_BYTES;
        self.free_ptr as usize + len <= slot_top
    }

    /// Insert a tuple; returns its slot. The traced accesses are the slot
    /// entry (near the page tail) and the tuple bytes.
    pub fn insert(&mut self, bytes: &[u8], tc: &mut TraceCtx) -> Result<SlotId> {
        if !self.fits(bytes.len()) {
            return Err(EngineError::PageFull);
        }
        let slot = self.nslots;
        let off = self.free_ptr;
        self.data[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
        self.free_ptr += bytes.len() as u16;
        self.nslots += 1;
        self.set_slot(slot, off, bytes.len() as u16);
        tc.store(self.addr + self.slot_pos(slot) as u64, SLOT_BYTES as u32);
        tc.store(self.addr + off as u64, bytes.len() as u32);
        Ok(slot)
    }

    /// Read a tuple image. `None` for deleted/invalid slots.
    pub fn get<'a>(&'a self, slot: SlotId, tc: &mut TraceCtx) -> Option<&'a [u8]> {
        if slot >= self.nslots {
            return None;
        }
        tc.load(self.addr + self.slot_pos(slot) as u64, SLOT_BYTES as u32);
        let (off, len) = self.slot(slot);
        if len == 0 {
            return None;
        }
        tc.load(self.addr + off as u64, len as u32);
        Some(&self.data[off as usize..off as usize + len as usize])
    }

    /// Overwrite a tuple in place. The new image must not be longer than
    /// the old (fixed-width rows always qualify).
    pub fn update(&mut self, slot: SlotId, bytes: &[u8], tc: &mut TraceCtx) -> Result<()> {
        if slot >= self.nslots {
            return Err(EngineError::NotFound(format!("slot {slot}")));
        }
        let (off, len) = self.slot(slot);
        if len == 0 {
            return Err(EngineError::NotFound(format!("slot {slot} deleted")));
        }
        if bytes.len() > len as usize {
            return Err(EngineError::PageFull);
        }
        self.data[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
        if (bytes.len() as u16) < len {
            self.set_slot(slot, off, bytes.len() as u16);
        }
        tc.store(self.addr + off as u64, bytes.len() as u32);
        Ok(())
    }

    /// Delete a tuple (slot becomes a tombstone until `compact`).
    pub fn delete(&mut self, slot: SlotId, tc: &mut TraceCtx) -> Result<()> {
        if slot >= self.nslots {
            return Err(EngineError::NotFound(format!("slot {slot}")));
        }
        let (off, len) = self.slot(slot);
        if len == 0 {
            return Err(EngineError::NotFound(format!(
                "slot {slot} already deleted"
            )));
        }
        self.set_slot(slot, off, 0);
        tc.store(self.addr + self.slot_pos(slot) as u64, SLOT_BYTES as u32);
        Ok(())
    }

    /// Restore a tombstoned slot's image in place (delete rollback). The
    /// byte region of the original tuple is still reserved (compaction is
    /// never run mid-transaction), so the image fits by construction.
    pub(crate) fn restore(&mut self, slot: SlotId, bytes: &[u8], tc: &mut TraceCtx) -> Result<()> {
        if slot >= self.nslots {
            return Err(EngineError::NotFound(format!("slot {slot}")));
        }
        let (off, len) = self.slot(slot);
        if len != 0 {
            return Err(EngineError::NotFound(format!("slot {slot} not deleted")));
        }
        self.data[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
        self.set_slot(slot, off, bytes.len() as u16);
        tc.store(self.addr + self.slot_pos(slot) as u64, SLOT_BYTES as u32);
        tc.store(self.addr + off as u64, bytes.len() as u32);
        Ok(())
    }

    /// Number of slots ever allocated (including tombstones).
    pub(crate) fn nslots(&self) -> u16 {
        self.nslots
    }

    /// Live tuples.
    pub fn live(&self) -> usize {
        (0..self.nslots).filter(|&s| self.slot(s).1 != 0).count()
    }

    /// Reclaim holes left by deletions; slot ids are preserved.
    pub fn compact(&mut self) {
        let mut images: Vec<(SlotId, Vec<u8>)> = Vec::new();
        for s in 0..self.nslots {
            let (off, len) = self.slot(s);
            if len != 0 {
                images.push((s, self.data[off as usize..(off + len) as usize].to_vec()));
            }
        }
        let mut cur = HEADER as u16;
        for (s, img) in images {
            self.data[cur as usize..cur as usize + img.len()].copy_from_slice(&img);
            self.set_slot(s, cur, img.len() as u16);
            cur += img.len() as u16;
        }
        self.free_ptr = cur;
    }

    /// Bytes of free space.
    pub fn free_space(&self) -> usize {
        let slot_top = PAGE_SIZE - (self.nslots as usize) * SLOT_BYTES;
        slot_top.saturating_sub(self.free_ptr as usize)
    }

    /// Feed the page's address, slot count, free pointer and whole image
    /// (tuples and slot directory) to `word`
    /// ([`Database::state_digest`](crate::Database::state_digest)).
    pub(crate) fn digest(&self, word: &mut impl FnMut(u64)) {
        word(self.addr);
        word(self.nslots as u64);
        word(self.free_ptr as u64);
        for w in self.data.chunks_exact(8) {
            word(w.iter().fold(0, |acc, &b| (acc << 8) | b as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::EngineRegions;
    use dbcmp_trace::CodeRegions;

    fn tc() -> TraceCtx {
        let mut r = CodeRegions::new();
        let er = EngineRegions::register(&mut r);
        TraceCtx::null(er)
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut tcx = tc();
        let mut p = SlottedPage::new(0x10000);
        let s0 = p.insert(b"hello", &mut tcx).unwrap();
        let s1 = p.insert(b"world!", &mut tcx).unwrap();
        assert_eq!(p.get(s0, &mut tcx).unwrap(), b"hello");
        assert_eq!(p.get(s1, &mut tcx).unwrap(), b"world!");
        assert_eq!(p.live(), 2);
    }

    #[test]
    fn delete_leaves_tombstone() {
        let mut tcx = tc();
        let mut p = SlottedPage::new(0);
        let s = p.insert(b"x", &mut tcx).unwrap();
        p.delete(s, &mut tcx).unwrap();
        assert!(p.get(s, &mut tcx).is_none());
        assert!(p.delete(s, &mut tcx).is_err());
        assert_eq!(p.live(), 0);
        assert_eq!(p.nslots(), 1);
    }

    #[test]
    fn update_in_place_and_shrink() {
        let mut tcx = tc();
        let mut p = SlottedPage::new(0);
        let s = p.insert(b"abcdef", &mut tcx).unwrap();
        p.update(s, b"ABCDEF", &mut tcx).unwrap();
        assert_eq!(p.get(s, &mut tcx).unwrap(), b"ABCDEF");
        p.update(s, b"xy", &mut tcx).unwrap();
        assert_eq!(p.get(s, &mut tcx).unwrap(), b"xy");
        assert!(p.update(s, b"toolongnow", &mut tcx).is_err());
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut tcx = tc();
        let mut p = SlottedPage::new(0);
        let tuple = vec![7u8; 100];
        let mut n = 0;
        while p.fits(tuple.len()) {
            p.insert(&tuple, &mut tcx).unwrap();
            n += 1;
        }
        // 8192 - 16 header; 104 bytes per tuple+slot → ~78 tuples.
        assert!((70..=80).contains(&n), "n={n}");
        assert!(matches!(
            p.insert(&tuple, &mut tcx),
            Err(EngineError::PageFull)
        ));
    }

    #[test]
    fn compact_reclaims_space() {
        let mut tcx = tc();
        let mut p = SlottedPage::new(0);
        let a = p.insert(&[1u8; 1000], &mut tcx).unwrap();
        let b = p.insert(&[2u8; 1000], &mut tcx).unwrap();
        let c = p.insert(&[3u8; 1000], &mut tcx).unwrap();
        let before = p.free_space();
        p.delete(b, &mut tcx).unwrap();
        p.compact();
        assert!(p.free_space() >= before + 1000);
        // Survivors intact, ids stable.
        assert_eq!(p.get(a, &mut tcx).unwrap(), &[1u8; 1000][..]);
        assert_eq!(p.get(c, &mut tcx).unwrap(), &[3u8; 1000][..]);
        assert!(p.get(b, &mut tcx).is_none());
    }
}
