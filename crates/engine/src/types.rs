//! Values, column types, and the fixed-width row codec.
//!
//! Rows are stored in pages as fixed-layout byte images (the row-store
//! discipline of the paper's era): integers and decimals as 8-byte
//! little-endian, dates as 4-byte day numbers, strings as fixed-capacity
//! byte fields with a 2-byte length prefix. Fixed layouts keep offsets
//! computable without parsing — and make the traced access patterns
//! realistic (a column read touches the line(s) holding that offset).

use std::borrow::Cow;

use crate::error::{EngineError, Result};
use crate::schema::Schema;

/// Column type, with fixed on-page width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 64-bit signed integer.
    Int,
    /// Fixed-point decimal stored as integer hundredths (cents).
    Decimal,
    /// UTF-8 string with fixed byte capacity.
    Str(u16),
    /// Date as days since epoch.
    Date,
}

impl ColType {
    /// On-page width in bytes.
    pub fn width(&self) -> usize {
        match *self {
            ColType::Int | ColType::Decimal => 8,
            ColType::Str(n) => n as usize + 2,
            ColType::Date => 4,
        }
    }

    /// Type name for error messages.
    pub fn name(&self) -> &'static str {
        match self {
            ColType::Int => "int",
            ColType::Decimal => "decimal",
            ColType::Str(_) => "str",
            ColType::Date => "date",
        }
    }
}

/// A runtime value.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// Integer hundredths.
    Decimal(i64),
    /// UTF-8 string.
    Str(String),
    /// Days since epoch (day 0 = 1992-01-01 in the TPC-H population).
    Date(u32),
    /// SQL NULL.
    Null,
}

impl Clone for Value {
    fn clone(&self) -> Self {
        match self {
            Value::Int(v) => Value::Int(*v),
            Value::Decimal(v) => Value::Decimal(*v),
            Value::Str(s) => Value::Str(s.clone()),
            Value::Date(d) => Value::Date(*d),
            Value::Null => Value::Null,
        }
    }

    /// Reuses `self`'s string buffer when both are strings, so a key
    /// buffer refilled row after row allocates only when a string
    /// outgrows it.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Value::Str(dst), Value::Str(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl Value {
    /// Type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Decimal(_) => "decimal",
            Value::Str(_) => "str",
            Value::Date(_) => "date",
            Value::Null => "null",
        }
    }

    /// Integer view (Int, Decimal, Date coerce; Null/Str do not).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) | Value::Decimal(v) => Some(*v),
            Value::Date(d) => Some(*d as i64),
            _ => None,
        }
    }

    /// String view (`Str` only).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// A materialized row.
pub type Row = Vec<Value>;

/// Anything a predicate, scalar or aggregate can read columns from: a
/// materialised row (the value is borrowed) or a [`TupleRef`] (the one
/// column asked for is decoded from the page image). Either way the
/// caller gets a [`Value`] and compares it as a `Value`, so both kinds
/// of row give every expression the same answer.
pub trait Columns {
    /// Column `i`.
    fn col(&self, i: usize) -> Cow<'_, Value>;

    /// Column `i` written into `out`, reusing `out`'s string buffer
    /// ([`Value::clone_from`]): a group-key buffer refilled per row
    /// allocates nothing once it has seen its longest key.
    #[inline]
    fn col_into(&self, i: usize, out: &mut Value) {
        out.clone_from(&self.col(i));
    }
}

impl Columns for [Value] {
    #[inline]
    fn col(&self, i: usize) -> Cow<'_, Value> {
        Cow::Borrowed(&self[i])
    }
}

impl Columns for Row {
    #[inline]
    fn col(&self, i: usize) -> Cow<'_, Value> {
        self.as_slice().col(i)
    }
}

/// A borrowed row reads as the row (a `&[Value]` is then a `&dyn Columns`).
impl<C: Columns + ?Sized> Columns for &C {
    #[inline]
    fn col(&self, i: usize) -> Cow<'_, Value> {
        (**self).col(i)
    }

    #[inline]
    fn col_into(&self, i: usize, out: &mut Value) {
        (**self).col_into(i, out);
    }
}

/// A tuple where it lies: its table's schema plus its bytes in the page
/// image. This is what a heap read hands out. Nothing is decoded until a
/// column is asked for, and nothing is allocated until [`Self::to_row`]:
/// a scan can test its predicate, or feed an aggregate, on tuples it
/// never materialises.
#[derive(Debug, Clone, Copy)]
pub struct TupleRef<'a> {
    schema: &'a Schema,
    bytes: &'a [u8],
}

impl<'a> TupleRef<'a> {
    /// View `bytes` as one tuple of `schema`.
    pub(crate) fn new(schema: &'a Schema, bytes: &'a [u8]) -> Self {
        TupleRef { schema, bytes }
    }

    /// Materialise every column.
    pub fn to_row(&self) -> Row {
        decode_row(self.schema, self.bytes)
    }
}

impl Columns for TupleRef<'_> {
    #[inline]
    fn col(&self, i: usize) -> Cow<'_, Value> {
        Cow::Owned(decode_col(self.schema, self.bytes, i))
    }

    /// A string column is decoded straight into `out`'s buffer.
    #[inline]
    fn col_into(&self, i: usize, out: &mut Value) {
        match (self.schema.columns()[i].ty, out) {
            (ColType::Str(_), Value::Str(s)) => {
                s.clear();
                s.push_str(&String::from_utf8_lossy(str_field(
                    self.bytes,
                    self.schema.offset(i),
                )));
            }
            (_, out) => *out = decode_col(self.schema, self.bytes, i),
        }
    }
}

/// Encode a row into its fixed-width page image.
pub fn encode_row(schema: &Schema, row: &[Value]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    encode_row_into(schema, row, &mut out)?;
    Ok(out)
}

/// Encode a row into `out`, replacing what it held: a buffer refilled per
/// row allocates only for the first.
pub(crate) fn encode_row_into(schema: &Schema, row: &[Value], out: &mut Vec<u8>) -> Result<()> {
    if row.len() != schema.columns().len() {
        return Err(EngineError::TypeMismatch {
            expected: "row arity",
            got: "mismatch",
        });
    }
    out.clear();
    out.resize(schema.row_width(), 0);
    for (i, v) in row.iter().enumerate() {
        let col = &schema.columns()[i];
        let off = schema.offset(i);
        match (col.ty, v) {
            (ColType::Int, Value::Int(x)) | (ColType::Decimal, Value::Decimal(x)) => {
                out[off..off + 8].copy_from_slice(&x.to_le_bytes());
            }
            (ColType::Date, Value::Date(d)) => {
                out[off..off + 4].copy_from_slice(&d.to_le_bytes());
            }
            (ColType::Str(cap), Value::Str(s)) => {
                // Truncate to capacity on a character boundary: a cut
                // through a multi-byte character would decode as U+FFFD,
                // three bytes that were never written.
                let mut n = s.len().min(cap as usize);
                while !s.is_char_boundary(n) {
                    n -= 1;
                }
                out[off..off + 2].copy_from_slice(&(n as u16).to_le_bytes());
                out[off + 2..off + 2 + n].copy_from_slice(&s.as_bytes()[..n]);
            }
            (ty, v) => {
                return Err(EngineError::TypeMismatch {
                    expected: ty.name(),
                    got: v.type_name(),
                })
            }
        }
    }
    Ok(())
}

/// Decode a full row from its page image.
pub fn decode_row(schema: &Schema, bytes: &[u8]) -> Row {
    (0..schema.columns().len())
        .map(|i| decode_col(schema, bytes, i))
        .collect()
}

/// Decode a single column (used by column-selective scans).
pub fn decode_col(schema: &Schema, bytes: &[u8], i: usize) -> Value {
    let col = &schema.columns()[i];
    let off = schema.offset(i);
    match col.ty {
        #[expect(
            clippy::unwrap_used,
            reason = "fixed 8-byte slice into [u8; 8] is infallible"
        )]
        ColType::Int => Value::Int(i64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())),
        #[expect(
            clippy::unwrap_used,
            reason = "fixed 8-byte slice into [u8; 8] is infallible"
        )]
        ColType::Decimal => {
            Value::Decimal(i64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()))
        }
        #[expect(
            clippy::unwrap_used,
            reason = "fixed 4-byte slice into [u8; 4] is infallible"
        )]
        ColType::Date => Value::Date(u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap())),
        ColType::Str(_) => Value::Str(String::from_utf8_lossy(str_field(bytes, off)).into_owned()),
    }
}

/// The bytes of the string field at `off`: a 2-byte length, then that
/// many bytes.
#[inline]
fn str_field(bytes: &[u8], off: usize) -> &[u8] {
    let n = u16::from_le_bytes([bytes[off], bytes[off + 1]]) as usize;
    &bytes[off + 2..off + 2 + n]
}

#[cfg(test)]
#[allow(
    clippy::inconsistent_digit_grouping,
    reason = "money literals: dollars_cents"
)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> Schema {
        Schema::new(vec![
            ("id", ColType::Int),
            ("amount", ColType::Decimal),
            ("name", ColType::Str(16)),
            ("d", ColType::Date),
        ])
    }

    #[test]
    fn roundtrip() {
        let s = schema();
        let row = vec![
            Value::Int(-42),
            Value::Decimal(123_45),
            Value::Str("hello".into()),
            Value::Date(9000),
        ];
        let bytes = encode_row(&s, &row).unwrap();
        assert_eq!(bytes.len(), s.row_width());
        assert_eq!(decode_row(&s, &bytes), row);
    }

    #[test]
    fn string_truncated_to_capacity() {
        let s = Schema::new(vec![("n", ColType::Str(4))]);
        let bytes = encode_row(&s, &[Value::Str("abcdefgh".into())]).unwrap();
        assert_eq!(decode_row(&s, &bytes), vec![Value::Str("abcd".into())]);
    }

    /// `Str(4)` given `"abc€"` used to store `61 62 63 E2` and read back
    /// `"abc\u{FFFD}"`: six bytes out of a four-byte column.
    #[test]
    fn string_truncated_on_a_character_boundary() {
        let s = Schema::new(vec![("n", ColType::Str(4))]);
        for (given, stored) in [
            ("abc€", "abc"),
            ("ab€d", "ab"),
            ("a€", "a€"),
            ("€€", "€"),
            ("😀", "😀"),
            ("a😀", "a"),
        ] {
            let bytes = encode_row(&s, &[Value::Str(given.into())]).unwrap();
            assert_eq!(
                decode_row(&s, &bytes),
                vec![Value::Str(stored.into())],
                "{given:?}"
            );
        }
    }

    #[test]
    fn tuple_ref_reads_columns_in_place() {
        let s = schema();
        let row = vec![
            Value::Int(7),
            Value::Decimal(99),
            Value::Str("abc".into()),
            Value::Date(1),
        ];
        let bytes = encode_row(&s, &row).unwrap();
        let t = TupleRef::new(&s, &bytes);
        for (i, v) in row.iter().enumerate() {
            assert_eq!(&*t.col(i), v);
            assert_eq!(row.col(i), t.col(i));
        }
        assert_eq!(t.to_row(), row);
    }

    #[test]
    fn type_mismatch_rejected() {
        let s = schema();
        let row = vec![
            Value::Str("oops".into()),
            Value::Decimal(0),
            Value::Str("x".into()),
            Value::Date(0),
        ];
        assert!(matches!(
            encode_row(&s, &row),
            Err(EngineError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let s = schema();
        assert!(encode_row(&s, &[Value::Int(1)]).is_err());
    }

    #[test]
    fn column_selective_decode() {
        let s = schema();
        let row = vec![
            Value::Int(7),
            Value::Decimal(99),
            Value::Str("abc".into()),
            Value::Date(1),
        ];
        let bytes = encode_row(&s, &row).unwrap();
        assert_eq!(decode_col(&s, &bytes, 2), Value::Str("abc".into()));
        assert_eq!(decode_col(&s, &bytes, 0), Value::Int(7));
    }

    #[test]
    fn value_coercions() {
        assert_eq!(Value::Int(5).as_i64(), Some(5));
        assert_eq!(Value::Decimal(5).as_i64(), Some(5));
        assert_eq!(Value::Date(5).as_i64(), Some(5));
        assert_eq!(Value::Str("x".into()).as_i64(), None);
        assert!(Value::Null.is_null());
    }
}
