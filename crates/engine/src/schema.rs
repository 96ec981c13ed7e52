//! Table schemas: named, typed, fixed-offset columns.

use crate::types::ColType;

/// One column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Column {
    /// Column name.
    pub(crate) name: &'static str,
    /// Column type (fixed on-page width).
    pub(crate) ty: ColType,
}

/// A fixed-width row layout. Offsets are precomputed at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
    offsets: Vec<usize>,
    row_width: usize,
}

impl Schema {
    /// Build a layout from `(name, type)` pairs, computing offsets.
    pub fn new(cols: Vec<(&'static str, ColType)>) -> Self {
        let columns: Vec<Column> = cols
            .into_iter()
            .map(|(name, ty)| Column { name, ty })
            .collect();
        let mut offsets = Vec::with_capacity(columns.len());
        let mut off = 0usize;
        for c in &columns {
            offsets.push(off);
            off += c.ty.width();
        }
        Schema {
            columns,
            offsets,
            row_width: off,
        }
    }

    /// The columns in declaration order.
    pub(crate) fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Byte offset of column `i` in the row image.
    pub(crate) fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Total row image width in bytes.
    pub fn row_width(&self) -> usize {
        self.row_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_and_width() {
        let s = Schema::new(vec![
            ("a", ColType::Int),
            ("b", ColType::Date),
            ("c", ColType::Str(10)),
        ]);
        assert_eq!(s.offset(0), 0);
        assert_eq!(s.offset(1), 8);
        assert_eq!(s.offset(2), 12);
        assert_eq!(s.row_width(), 8 + 4 + 12);
    }
}
