//! System catalog: table and index metadata.
//!
//! Lookups are traced (the catalog is itself a shared, read-mostly
//! structure that all clients touch at statement start).

use crate::costs::instr;
use crate::tctx::TraceCtx;
use dbcmp_trace::AddressSpace;

/// Table handle.
pub type TableId = usize;
/// Index handle.
pub type IndexId = usize;

/// Per-table catalog entry.
#[derive(Debug)]
pub(crate) struct TableMeta {
    /// Table name (unique within the database).
    pub(crate) name: &'static str,
    /// Indexes defined over the table.
    pub(crate) indexes: Vec<IndexId>,
}

/// The catalog.
#[derive(Debug)]
pub(crate) struct Catalog {
    tables: Vec<TableMeta>,
    addr: u64,
}

impl Catalog {
    /// An empty catalog with a simulated allocation for its entries.
    pub(crate) fn new(space: &AddressSpace) -> Self {
        Catalog {
            tables: Vec::new(),
            addr: space.alloc(32 * 1024),
        }
    }

    /// Register a table, returning its dense handle.
    pub(crate) fn add_table(&mut self, name: &'static str) -> TableId {
        self.tables.push(TableMeta {
            name,
            indexes: Vec::new(),
        });
        self.tables.len() - 1
    }

    /// Attach an index to a table's entry.
    pub(crate) fn add_index(&mut self, table: TableId, index: IndexId) {
        self.tables[table].indexes.push(index);
    }

    /// Traced lookup by name.
    pub(crate) fn lookup(&self, name: &str, tc: &mut TraceCtx) -> Option<TableId> {
        tc.charge(tc.r.catalog, instr::CATALOG_LOOKUP);
        let id = self.tables.iter().position(|t| t.name == name)?;
        tc.load(self.addr + (id as u64) * 128, 64);
        Some(id)
    }

    /// Metadata for a table handle.
    pub(crate) fn table(&self, id: TableId) -> &TableMeta {
        &self.tables[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::EngineRegions;
    use dbcmp_trace::CodeRegions;

    #[test]
    fn add_and_lookup() {
        let mut r = CodeRegions::new();
        let er = EngineRegions::register(&mut r);
        let space = AddressSpace::new();
        let mut cat = Catalog::new(&space);
        let mut tc = TraceCtx::null(er);
        let a = cat.add_table("warehouse");
        let b = cat.add_table("district");
        cat.add_index(b, 3);
        assert_eq!(cat.lookup("warehouse", &mut tc), Some(a));
        assert_eq!(cat.lookup("district", &mut tc), Some(b));
        assert_eq!(cat.lookup("nope", &mut tc), None);
        assert_eq!(cat.table(b).indexes, vec![3]);
    }
}
