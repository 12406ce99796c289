//! Column-major batches: the vectorized executor's exchange format.
//!
//! A [`ColumnBatch`] stores up to one operator batch of rows as typed
//! per-column buffers — `Vec<i64>` / `Vec<f64>` / a byte arena for text —
//! with a null *bitmap* per column instead of `Value::Null` sentinels.
//! Scans decode page payloads straight into these buffers
//! ([`ColumnBatch::push_wire`]) without materializing a `Row` per record,
//! filters evaluate compiled predicates as tight per-column loops
//! producing *selection vectors* ([`VPredicate::select`]), and joins
//! produce output batches by columnwise gather
//! ([`ColumnBatch::concat_gather`]). `Row`s exist again only at the
//! pipeline boundary (projection / aggregation output).
//!
//! Row ↔ batch conversion is lossless: every `Value` variant maps to its
//! own buffer type (`Int` is *not* widened to `BigInt`, `Real` not to
//! `Float`), float payloads preserve bits (NaN, -0.0), and NULL cells
//! round-trip through the bitmap regardless of the placeholder stored in
//! the typed buffer.
//!
//! A batch keeps the table's layout even when the plan reads only some of
//! its columns: a column the plan never reads is *absent*
//! ([`ColumnData::Absent`]) — no buffer, nothing pushed per row, the same
//! position as in the table, so no expression is remapped. The decoders
//! check an absent column's framing and keep nothing (and, where the row
//! format allows, find the kept ones by offset instead of walking to them:
//! `FixedLayout`); gathers and appends carry it along for free; it reads
//! as NULL through [`Column::value`], and the typed paths (kernels, hash
//! build and probe, key encoding), which a correct plan never points at
//! one, `debug_assert!` that.
//!
//! [`VPredicate`] compiles the planner's residual predicates into branch-
//! light kernels over a tri-state truth vector (false / true / NULL —
//! SQL's three-valued logic). Only shapes whose columnar evaluation is
//! *provably identical* to row-at-a-time [`Expr::eval`] compile: comparisons
//! and BETWEEN over numeric operands, text column vs. text constant, IS
//! NULL on a column, NOT/AND/OR over compiled operands. A numeric operand
//! is a tree of numeric columns, numeric literals, `+ - * /`, `POWER` and
//! the unary scalar functions: the interpreter widens every numeric operand
//! to `f64` before it computes (it has no integer arithmetic) and yields
//! NULL exactly when some column under the operator is NULL, so the same
//! IEEE operations in the same order over `f64` vectors, under the union of
//! the columns' null masks, give the same answer bit for bit. Everything
//! else — a text operand or a non-numeric literal anywhere in an operand
//! (whose type errors must surface), a comparison nested inside arithmetic
//! — falls back to evaluating the original expression on a reused scratch
//! row, so results can never diverge from the row pipeline.

use crate::error::{DbError, DbResult};
use crate::expr::{BinOp, Expr, Func};
use crate::key::{encode_value, next_field, KeyField};
use crate::row::{self, Row};
use crate::value::{DataType, Value};
use bytes::Buf;
use std::collections::HashMap;

// ---- null bitmap ------------------------------------------------------------

/// Per-column null bitmap: bit set ⇒ the cell is NULL. The typed buffer
/// holds an arbitrary placeholder at null positions (0 / 0.0 / empty
/// string), keeping the buffers dense and loops branch-light.
#[derive(Debug, Clone, Default)]
pub struct NullMask {
    bits: Vec<u64>,
    len: usize,
}

impl NullMask {
    fn with_capacity(cap: usize) -> NullMask {
        NullMask { bits: Vec::with_capacity(cap.div_ceil(64)), len: 0 }
    }

    #[inline]
    fn push(&mut self, null: bool) {
        let word = self.len / 64;
        if word == self.bits.len() {
            self.bits.push(0);
        }
        if null {
            self.bits[word] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Is row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of NULL rows.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Any NULL at all? (Lets kernels skip the bitmap probe entirely.)
    pub fn any(&self) -> bool {
        self.bits.iter().any(|&w| w != 0)
    }

    /// `len` rows, none NULL.
    fn zeros(len: usize) -> NullMask {
        NullMask { bits: vec![0; len.div_ceil(64)], len }
    }

    fn gather(&self, sel: &[u32]) -> NullMask {
        if !self.any() {
            return NullMask::zeros(sel.len());
        }
        let mut out = NullMask::with_capacity(sel.len());
        for &i in sel {
            out.push(self.is_null(i as usize));
        }
        out
    }

    fn extend(&mut self, other: &NullMask) {
        if !other.any() {
            // No bit past `len` is ever set, so growing by zero words does.
            self.len += other.len;
            self.bits.resize(self.len.div_ceil(64), 0);
            return;
        }
        for i in 0..other.len {
            self.push(other.is_null(i));
        }
    }
}

// ---- columns ----------------------------------------------------------------

/// The typed buffer of one column. Text uses a shared byte arena with an
/// offsets vector (`offsets.len() == rows + 1`), so a batch of strings is
/// two allocations, not one per row.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// `bigint` buffer.
    BigInt(Vec<i64>),
    /// `int` buffer.
    Int(Vec<i32>),
    /// `real` buffer.
    Real(Vec<f32>),
    /// `float` buffer.
    Float(Vec<f64>),
    /// `text` arena: `bytes[offsets[i]..offsets[i+1]]` is row `i`.
    Text {
        /// Row boundaries into `bytes` (always `rows + 1` entries).
        offsets: Vec<u32>,
        /// Concatenated UTF-8 payloads.
        bytes: Vec<u8>,
    },
    /// A column of this declared type that the plan does not read: it
    /// holds no values at any batch length (see the module docs).
    Absent(DataType),
}

/// One column of a [`ColumnBatch`]: typed buffer plus null bitmap.
#[derive(Debug, Clone)]
pub struct Column {
    /// Typed values (placeholders at null positions).
    pub data: ColumnData,
    /// Which rows are NULL.
    pub nulls: NullMask,
}

impl Column {
    fn with_capacity(dtype: DataType, cap: usize) -> Column {
        let data = match dtype {
            DataType::BigInt => ColumnData::BigInt(Vec::with_capacity(cap)),
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Real => ColumnData::Real(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Text => ColumnData::Text {
                offsets: {
                    let mut v = Vec::with_capacity(cap + 1);
                    v.push(0);
                    v
                },
                bytes: Vec::new(),
            },
        };
        Column { data, nulls: NullMask::with_capacity(cap) }
    }

    fn absent(dtype: DataType) -> Column {
        Column { data: ColumnData::Absent(dtype), nulls: NullMask::default() }
    }

    /// Does the column hold no values because the plan does not read it?
    pub fn is_absent(&self) -> bool {
        matches!(self.data, ColumnData::Absent(_))
    }

    /// The column's declared type.
    pub fn dtype(&self) -> DataType {
        match &self.data {
            ColumnData::Absent(dtype) => *dtype,
            ColumnData::BigInt(_) => DataType::BigInt,
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Real(_) => DataType::Real,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Text { .. } => DataType::Text,
        }
    }

    /// Is the cell at row `i` NULL? Every cell of an absent column is.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.is_absent() || self.nulls.is_null(i)
    }

    #[inline]
    fn push_null(&mut self) {
        match &mut self.data {
            ColumnData::BigInt(v) => v.push(0),
            ColumnData::Int(v) => v.push(0),
            ColumnData::Real(v) => v.push(0.0),
            ColumnData::Float(v) => v.push(0.0),
            ColumnData::Text { offsets, .. } => offsets.push(*offsets.last().expect("base offset")),
            ColumnData::Absent(_) => return,
        }
        self.nulls.push(true);
    }

    /// Append the non-NULL value of this present fixed-width column that
    /// `bytes` starts with ([`FixedLayout`]).
    #[inline]
    fn push_fixed(&mut self, bytes: &[u8]) {
        fn le<const N: usize>(bytes: &[u8]) -> [u8; N] {
            *bytes.first_chunk().expect("the row is as long as its layout")
        }
        match &mut self.data {
            ColumnData::BigInt(v) => v.push(i64::from_le_bytes(le(bytes))),
            ColumnData::Int(v) => v.push(i32::from_le_bytes(le(bytes))),
            ColumnData::Real(v) => v.push(f32::from_le_bytes(le(bytes))),
            ColumnData::Float(v) => v.push(f64::from_le_bytes(le(bytes))),
            ColumnData::Text { .. } | ColumnData::Absent(_) => {
                unreachable!("a fixed layout keeps present fixed-width columns")
            }
        }
        self.nulls.push(false);
    }

    /// Append one field of an index entry. The key codec widened `int` to
    /// `i64` and `real` to `f64` losslessly, so narrowing back is exact and
    /// the cell is bit-identical to the one the table row holds; a field
    /// that is not such a widening was never written by this engine.
    fn push_key_field(&mut self, field: KeyField<'_>) -> DbResult<()> {
        let misfit = |what: &str, dtype: DataType| {
            Err(DbError::Corrupt(format!("index entry holds {what} for a {dtype} column")))
        };
        match (&mut self.data, field) {
            (_, KeyField::Null) => {
                self.push_null();
                return Ok(());
            }
            (ColumnData::BigInt(v), KeyField::Int(x)) => v.push(x),
            (ColumnData::Int(v), KeyField::Int(x)) => match i32::try_from(x) {
                Ok(x) => v.push(x),
                Err(_) => return misfit(&format!("the integer {x}"), DataType::Int),
            },
            (ColumnData::Float(v), KeyField::Num(x)) => v.push(x),
            (ColumnData::Real(v), KeyField::Num(x)) => {
                let narrow = x as f32;
                if f64::from(narrow).to_bits() != x.to_bits() {
                    return misfit(&format!("the float {x}"), DataType::Real);
                }
                v.push(narrow);
            }
            (ColumnData::Text { offsets, bytes }, KeyField::Text(s)) => {
                bytes.extend_from_slice(s.as_bytes());
                offsets.push(bytes.len() as u32);
            }
            (ColumnData::Absent(dtype), field) => {
                return match (*dtype, field) {
                    (DataType::BigInt | DataType::Int, KeyField::Int(_))
                    | (DataType::Real | DataType::Float, KeyField::Num(_))
                    | (DataType::Text, KeyField::Text(_)) => Ok(()),
                    (dtype, _) => misfit("a field of another type", dtype),
                };
            }
            _ => return misfit("a field of another type", self.dtype()),
        }
        self.nulls.push(false);
        Ok(())
    }

    fn push_value(&mut self, v: &Value) -> DbResult<()> {
        match (&mut self.data, v) {
            (_, Value::Null) => {
                self.push_null();
                return Ok(());
            }
            (ColumnData::BigInt(buf), Value::BigInt(x)) => buf.push(*x),
            (ColumnData::Int(buf), Value::Int(x)) => buf.push(*x),
            (ColumnData::Real(buf), Value::Real(x)) => buf.push(*x),
            (ColumnData::Float(buf), Value::Float(x)) => buf.push(*x),
            (ColumnData::Text { offsets, bytes }, Value::Text(s)) => {
                bytes.extend_from_slice(s.as_bytes());
                offsets.push(bytes.len() as u32);
            }
            (_, v) => {
                return Err(DbError::TypeError(format!(
                    "cannot store {v} in a {} column buffer",
                    self.dtype()
                )))
            }
        }
        self.nulls.push(false);
        Ok(())
    }

    /// Materialize the cell at row `i` as a `Value` (the only place a
    /// per-cell allocation can happen, and only for text).
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Absent(_) => Value::Null,
            ColumnData::BigInt(v) => Value::BigInt(v[i]),
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Real(v) => Value::Real(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Text { offsets, bytes } => {
                let s = &bytes[offsets[i] as usize..offsets[i + 1] as usize];
                Value::Text(String::from_utf8(s.to_vec()).expect("validated on ingest"))
            }
        }
    }

    /// The integer at row `i` (`None` for NULL and for any other type).
    #[inline]
    pub(crate) fn int_at(&self, i: usize) -> Option<i64> {
        match &self.data {
            _ if self.is_null(i) => None,
            ColumnData::BigInt(v) => Some(v[i]),
            ColumnData::Int(v) => Some(i64::from(v[i])),
            _ => None,
        }
    }

    /// The number at row `i`, widened as [`Value::as_f64`] widens it
    /// (`None` for NULL and for text).
    #[inline]
    pub(crate) fn num_at(&self, i: usize) -> Option<f64> {
        match &self.data {
            _ if self.is_null(i) => None,
            ColumnData::BigInt(v) => Some(v[i] as f64),
            ColumnData::Int(v) => Some(f64::from(v[i])),
            ColumnData::Real(v) => Some(f64::from(v[i])),
            ColumnData::Float(v) => Some(v[i]),
            ColumnData::Text { .. } | ColumnData::Absent(_) => None,
        }
    }

    /// Text payload of row `i` as bytes (NULL and non-text return `None`).
    #[inline]
    pub fn text_at(&self, i: usize) -> Option<&[u8]> {
        if self.is_null(i) {
            return None;
        }
        match &self.data {
            ColumnData::Text { offsets, bytes } => {
                Some(&bytes[offsets[i] as usize..offsets[i + 1] as usize])
            }
            _ => None,
        }
    }

    fn gather(&self, sel: &[u32]) -> Column {
        let data = match &self.data {
            ColumnData::Absent(dtype) => return Column::absent(*dtype),
            ColumnData::BigInt(v) => {
                ColumnData::BigInt(sel.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnData::Int(v) => ColumnData::Int(sel.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Real(v) => ColumnData::Real(sel.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Float(v) => ColumnData::Float(sel.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Text { offsets, bytes } => {
                let mut out_off = Vec::with_capacity(sel.len() + 1);
                out_off.push(0u32);
                let mut out_bytes = Vec::new();
                for &i in sel {
                    let i = i as usize;
                    out_bytes.extend_from_slice(&bytes[offsets[i] as usize..offsets[i + 1] as usize]);
                    out_off.push(out_bytes.len() as u32);
                }
                ColumnData::Text { offsets: out_off, bytes: out_bytes }
            }
        };
        Column { data, nulls: self.nulls.gather(sel) }
    }

    fn extend_from(&mut self, other: &Column) -> DbResult<()> {
        match (&mut self.data, &other.data) {
            (ColumnData::BigInt(a), ColumnData::BigInt(b)) => a.extend_from_slice(b),
            (ColumnData::Int(a), ColumnData::Int(b)) => a.extend_from_slice(b),
            (ColumnData::Real(a), ColumnData::Real(b)) => a.extend_from_slice(b),
            (ColumnData::Float(a), ColumnData::Float(b)) => a.extend_from_slice(b),
            (
                ColumnData::Text { offsets: ao, bytes: ab },
                ColumnData::Text { offsets: bo, bytes: bb },
            ) => {
                let base = ab.len() as u32;
                ab.extend_from_slice(bb);
                ao.extend(bo.iter().skip(1).map(|&o| base + o));
            }
            (ColumnData::Absent(a), ColumnData::Absent(b)) if a == b => return Ok(()),
            _ => {
                return Err(DbError::TypeError(format!(
                    "cannot append a {} column to a {} column",
                    other.dtype(),
                    self.dtype()
                )))
            }
        }
        self.nulls.extend(&other.nulls);
        Ok(())
    }
}

// ---- batches ----------------------------------------------------------------

/// A column-major batch of rows: the native exchange format of the
/// vectorized operator pipeline (see the module docs).
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    cols: Vec<Column>,
    len: usize,
    /// Set on a batch made to decode rows into, when its column types allow
    /// one; derived batches (gathers, join outputs) carry none.
    fixed: Option<FixedLayout>,
}

/// Where a row's values sit when every column is fixed-width and no value
/// is NULL: at offsets known from the column types alone. A NULL takes one
/// byte instead of `1 + width`, so a well-formed row is `row_len` bytes
/// long exactly when it has none — the length picks the layout, and
/// [`ColumnBatch::push_wire`] reads such a row by offset instead of walking
/// it tag by tag, where a value it does not keep costs as much as one it
/// does.
#[derive(Debug, Clone)]
struct FixedLayout {
    row_len: usize,
    /// One per column, in order.
    cells: Vec<FixedCell>,
}

#[derive(Debug, Clone, Copy)]
struct FixedCell {
    /// Offset of the value's tag byte; the value follows it.
    at: u32,
    /// The tag a non-NULL value of the column's type carries.
    tag: u8,
    /// Whether the column is present.
    kept: bool,
}

impl FixedLayout {
    /// The layout of `cols`, or `None` when one of them is text.
    fn of(cols: &[Column]) -> Option<FixedLayout> {
        let mut layout = FixedLayout { row_len: 0, cells: Vec::with_capacity(cols.len()) };
        for col in cols {
            let (tag, width) = match col.dtype() {
                DataType::BigInt => (row::TAG_BIGINT, 8),
                DataType::Int => (row::TAG_INT, 4),
                DataType::Real => (row::TAG_REAL, 4),
                DataType::Float => (row::TAG_FLOAT, 8),
                DataType::Text => return None,
            };
            let at = layout.row_len as u32;
            layout.cells.push(FixedCell { at, tag, kept: !col.is_absent() });
            layout.row_len += 1 + width;
        }
        Some(layout)
    }
}

impl ColumnBatch {
    /// An empty batch with per-column buffers sized for `cap` rows.
    pub fn with_capacity(dtypes: &[DataType], cap: usize) -> ColumnBatch {
        ColumnBatch::decoding_into(dtypes.iter().map(|&t| Column::with_capacity(t, cap)).collect())
    }

    fn decoding_into(cols: Vec<Column>) -> ColumnBatch {
        ColumnBatch { fixed: FixedLayout::of(&cols), cols, len: 0 }
    }

    /// An empty batch in the layout `dtypes` whose column `c` is present
    /// when `needed[c]` and absent otherwise (see the module docs).
    pub(crate) fn with_projection(
        dtypes: &[DataType],
        needed: &[bool],
        cap: usize,
    ) -> ColumnBatch {
        assert_eq!(dtypes.len(), needed.len(), "one flag per table column");
        let col = |(&dtype, &read)| match read {
            true => Column::with_capacity(dtype, cap),
            false => Column::absent(dtype),
        };
        ColumnBatch::decoding_into(dtypes.iter().zip(needed).map(col).collect())
    }

    /// Rows in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `len() == 0`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Per-column declared types.
    pub fn dtypes(&self) -> Vec<DataType> {
        self.cols.iter().map(Column::dtype).collect()
    }

    /// Borrow column `c`.
    pub fn col(&self, c: usize) -> &Column {
        &self.cols[c]
    }

    /// Materialize cell `(c, i)`.
    pub fn value(&self, c: usize, i: usize) -> Value {
        self.cols[c].value(i)
    }

    /// Append one materialized row. Value variants must match the batch's
    /// column types exactly (NULL fits everywhere) — the lossless-ingest
    /// contract the round-trip property test pins down.
    pub fn push_row(&mut self, row: &Row) -> DbResult<()> {
        if row.arity() != self.cols.len() {
            return Err(DbError::SchemaMismatch(format!(
                "row arity {} != batch arity {}",
                row.arity(),
                self.cols.len()
            )));
        }
        for (col, v) in self.cols.iter_mut().zip(row.values()) {
            col.push_value(v)?;
        }
        self.len += 1;
        Ok(())
    }

    /// Decode one row-codec payload (see [`crate::row`]) straight into the
    /// column buffers — the no-`Row` scan path, and the one row decoder:
    /// an absent column's value is framing-checked and stepped over. The
    /// wire tags must match the batch's column types (they do for any
    /// schema-checked table); trailing bytes are corruption, exactly as in
    /// [`Row::decode`].
    pub fn push_wire(&mut self, mut buf: &[u8]) -> DbResult<()> {
        if let Some(fixed) = self.fixed.as_ref().filter(|fixed| fixed.row_len == buf.len()) {
            // The length admits one layout (`FixedLayout`): every tag is
            // where that puts it, or the row is malformed.
            for (col, cell) in self.cols.iter_mut().zip(&fixed.cells) {
                let at = cell.at as usize;
                if buf[at] != cell.tag {
                    return Err(tag_misfit(buf[at], col.dtype()));
                }
                if cell.kept {
                    col.push_fixed(&buf[at + 1..]);
                }
            }
            self.len += 1;
            return Ok(());
        }
        for col in &mut self.cols {
            if !buf.has_remaining() {
                return Err(DbError::Corrupt("row truncated".into()));
            }
            let tag = buf.get_u8();
            if tag == row::TAG_NULL {
                col.push_null();
                continue;
            }
            match (&mut col.data, tag) {
                (ColumnData::BigInt(v), row::TAG_BIGINT) => {
                    ensure(buf.remaining() >= 8)?;
                    v.push(buf.get_i64_le());
                }
                (ColumnData::Int(v), row::TAG_INT) => {
                    ensure(buf.remaining() >= 4)?;
                    v.push(buf.get_i32_le());
                }
                (ColumnData::Real(v), row::TAG_REAL) => {
                    ensure(buf.remaining() >= 4)?;
                    v.push(buf.get_f32_le());
                }
                (ColumnData::Float(v), row::TAG_FLOAT) => {
                    ensure(buf.remaining() >= 8)?;
                    v.push(buf.get_f64_le());
                }
                (ColumnData::Text { offsets, bytes }, row::TAG_TEXT) => {
                    ensure(buf.remaining() >= 4)?;
                    let len = buf.get_u32_le() as usize;
                    ensure(buf.remaining() >= len)?;
                    std::str::from_utf8(&buf[..len])
                        .map_err(|_| DbError::Corrupt("invalid utf8 in text value".into()))?;
                    bytes.extend_from_slice(&buf[..len]);
                    offsets.push(bytes.len() as u32);
                    buf.advance(len);
                }
                (ColumnData::Absent(dtype), tag) => {
                    let len = match (*dtype, tag) {
                        (DataType::BigInt, row::TAG_BIGINT)
                        | (DataType::Float, row::TAG_FLOAT) => 8,
                        (DataType::Int, row::TAG_INT) | (DataType::Real, row::TAG_REAL) => 4,
                        (DataType::Text, row::TAG_TEXT) => {
                            ensure(buf.remaining() >= 4)?;
                            buf.get_u32_le() as usize
                        }
                        (dtype, tag) => return Err(tag_misfit(tag, dtype)),
                    };
                    ensure(buf.remaining() >= len)?;
                    buf.advance(len);
                    continue;
                }
                _ => return Err(tag_misfit(tag, col.dtype())),
            }
            col.nulls.push(false);
        }
        if buf.has_remaining() {
            return Err(DbError::Corrupt(format!("{} trailing bytes after row", buf.remaining())));
        }
        self.len += 1;
        Ok(())
    }

    /// Decode one secondary-index entry — order-preserving key bytes (see
    /// [`crate::key`]) holding exactly one field per element of `fields` —
    /// into the batch: field `f` is the cell of column `fields[f]`. A
    /// column named twice (indexed *and* clustering) takes its first field.
    /// Every present column must be named. Returns the byte offset of field
    /// `split` within `key`, where the entry's locator starts.
    pub(crate) fn push_key(
        &mut self,
        key: &[u8],
        fields: &[usize],
        split: usize,
    ) -> DbResult<usize> {
        let mut buf = key;
        let mut split_at = key.len();
        for (f, &c) in fields.iter().enumerate() {
            if f == split {
                split_at = key.len() - buf.len();
            }
            let Some(field) = next_field(&mut buf)? else {
                return Err(DbError::Corrupt(format!(
                    "index entry has {f} fields, its index and clustering columns {}",
                    fields.len()
                )));
            };
            let col = &mut self.cols[c];
            if col.is_absent() || col.nulls.len == self.len {
                col.push_key_field(field)?;
            }
        }
        if !buf.is_empty() {
            return Err(DbError::Corrupt(format!(
                "index entry has more than the {} fields of its index and clustering columns",
                fields.len()
            )));
        }
        self.len += 1;
        Ok(split_at)
    }

    /// Build a batch from materialized rows (see [`ColumnBatch::push_row`]).
    pub fn from_rows(dtypes: &[DataType], rows: &[Row]) -> DbResult<ColumnBatch> {
        let mut b = ColumnBatch::with_capacity(dtypes, rows.len());
        for row in rows {
            b.push_row(row)?;
        }
        Ok(b)
    }

    /// Materialize every row (the inverse of [`ColumnBatch::from_rows`]).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        Row(self.cols.iter().map(|c| c.value(i)).collect())
    }

    /// Materialize row `i` into a reused buffer (scratch rows for the
    /// row-fallback predicate path and expression projection).
    pub fn read_row_into(&self, i: usize, out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.cols.iter().map(|c| c.value(i)));
    }

    /// Columnwise gather: the batch containing exactly the selected rows,
    /// in selection order.
    pub fn gather(&self, sel: &[u32]) -> ColumnBatch {
        ColumnBatch {
            cols: self.cols.iter().map(|c| c.gather(sel)).collect(),
            len: sel.len(),
            fixed: None,
        }
    }

    /// Append all of `other`'s rows (columns must match in type).
    pub fn extend_from(&mut self, other: &ColumnBatch) -> DbResult<()> {
        if self.cols.len() != other.cols.len() {
            return Err(DbError::SchemaMismatch(format!(
                "batch arity {} != {}",
                other.cols.len(),
                self.cols.len()
            )));
        }
        for (a, b) in self.cols.iter_mut().zip(&other.cols) {
            a.extend_from(b)?;
        }
        self.len += other.len;
        Ok(())
    }

    /// Join-output constructor: left columns gathered by `li` concatenated
    /// with right columns gathered by `ri` (`li.len() == ri.len()` pairs).
    pub fn concat_gather(
        left: &ColumnBatch,
        li: &[u32],
        right: &ColumnBatch,
        ri: &[u32],
    ) -> ColumnBatch {
        debug_assert_eq!(li.len(), ri.len());
        let mut cols = Vec::with_capacity(left.cols.len() + right.cols.len());
        cols.extend(left.cols.iter().map(|c| c.gather(li)));
        cols.extend(right.cols.iter().map(|c| c.gather(ri)));
        ColumnBatch { cols, len: li.len(), fixed: None }
    }
}

fn tag_misfit(tag: u8, dtype: DataType) -> DbError {
    DbError::Corrupt(format!("value tag {tag} does not fit a {dtype} column"))
}

fn ensure(ok: bool) -> DbResult<()> {
    if ok {
        Ok(())
    } else {
        Err(DbError::Corrupt("row truncated".into()))
    }
}

// ---- vectorized predicates --------------------------------------------------

/// Tri-state truth values in kernel output vectors.
const T_FALSE: u8 = 0;
const T_TRUE: u8 = 1;
const T_NULL: u8 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    fn of(op: BinOp) -> Option<CmpOp> {
        Some(match op {
            BinOp::Lt => CmpOp::Lt,
            BinOp::Le => CmpOp::Le,
            BinOp::Gt => CmpOp::Gt,
            BinOp::Ge => CmpOp::Ge,
            BinOp::Eq => CmpOp::Eq,
            BinOp::Ne => CmpOp::Ne,
            _ => return None,
        })
    }

    /// `a OP b` flipped to `b OP' a` (for `lit OP col` conjuncts).
    fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }

    #[inline]
    fn apply_f64(self, x: f64, y: f64) -> bool {
        match self {
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
        }
    }

    #[inline]
    fn apply_bytes(self, x: &[u8], y: &[u8]) -> bool {
        match self {
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
        }
    }
}

/// A compiled predicate node evaluating to a tri-state vector.
#[derive(Debug, Clone)]
enum Kernel {
    /// `col OP constant` over a numeric column — both sides widened to
    /// `f64`, exactly as [`crate::expr`]'s `eval_bin` widens them.
    CmpNum { col: usize, op: CmpOp, lit: f64 },
    /// `col OP constant` over a text column (byte-wise, like `String` Ord).
    CmpText { col: usize, op: CmpOp, lit: String },
    /// `col BETWEEN lo AND hi` with constant numeric bounds (inclusive).
    BetweenNum { col: usize, lo: f64, hi: f64 },
    /// `a OP b` over numeric operand trees. `cols` are the columns under
    /// either operand: the result is NULL where any of them is.
    CmpExpr { a: Num, op: CmpOp, b: Num, cols: Vec<usize> },
    /// `v BETWEEN lo AND hi` over numeric operand trees (inclusive).
    BetweenExpr { v: Num, lo: Num, hi: Num, cols: Vec<usize> },
    /// `col IS NULL` (never yields NULL itself).
    IsNullCol { col: usize },
    /// A bare numeric column as a predicate (`truthy`: value != 0).
    TruthyCol { col: usize },
    /// `NOT k` (NULL stays NULL).
    Not(Box<Kernel>),
    /// Three-valued AND (false dominates NULL).
    And(Box<Kernel>, Box<Kernel>),
    /// Three-valued OR (true dominates NULL).
    Or(Box<Kernel>, Box<Kernel>),
}

/// A predicate ready for columnar evaluation: either a compiled kernel
/// tree or the original expression evaluated row-at-a-time on a scratch
/// row. Compile once per operator, evaluate once per batch.
#[derive(Debug, Clone)]
pub struct VPredicate {
    inner: Pred,
}

#[derive(Debug, Clone)]
enum Pred {
    /// Fully compiled: tight per-column loops, no `Value` materialization.
    Compiled(Kernel),
    /// Row-at-a-time fallback, bit-identical to the row pipeline by
    /// construction (it *is* the row pipeline's evaluator).
    Fallback(Expr),
}

impl VPredicate {
    /// Compile `pred` against the input's column types. Shapes without a
    /// provably identical columnar kernel fall back to row-at-a-time
    /// evaluation of the original expression.
    pub fn compile(pred: &Expr, dtypes: &[DataType]) -> VPredicate {
        let inner = match compile_kernel(pred, dtypes) {
            Some(k) => Pred::Compiled(k),
            None => Pred::Fallback(pred.clone()),
        };
        VPredicate { inner }
    }

    /// Was the whole predicate compiled to columnar kernels?
    pub fn is_compiled(&self) -> bool {
        matches!(self.inner, Pred::Compiled(_))
    }

    /// Evaluate over a batch, returning the selection vector: indices of
    /// the rows where the predicate is *true* (NULL counts as false, as in
    /// SQL `WHERE`), in row order.
    pub fn select(&self, batch: &ColumnBatch) -> DbResult<Vec<u32>> {
        let n = batch.len();
        let mut sel = Vec::with_capacity(n);
        if n == 0 {
            return Ok(sel);
        }
        match &self.inner {
            Pred::Compiled(k) => {
                let mut truth = vec![T_FALSE; n];
                k.eval(batch, &mut truth);
                for (i, &t) in truth.iter().enumerate() {
                    if t == T_TRUE {
                        sel.push(i as u32);
                    }
                }
            }
            Pred::Fallback(expr) => {
                let mut scratch = Row(Vec::with_capacity(batch.num_cols()));
                for i in 0..n {
                    batch.read_row_into(i, &mut scratch.0);
                    if expr.matches(&scratch)? {
                        sel.push(i as u32);
                    }
                }
            }
        }
        Ok(sel)
    }
}

/// Numeric view of a column for comparison kernels: `None` when the
/// column is text (whose comparisons against numeric constants must go
/// through the row path to reproduce its type errors).
fn numeric(dtypes: &[DataType], col: usize) -> bool {
    matches!(
        dtypes.get(col),
        Some(DataType::BigInt | DataType::Int | DataType::Real | DataType::Float)
    )
}

fn num_lit(v: &Value) -> Option<f64> {
    match v {
        Value::BigInt(_) | Value::Int(_) | Value::Real(_) | Value::Float(_) => {
            Some(v.as_f64().expect("numeric"))
        }
        _ => None,
    }
}

fn compile_kernel(pred: &Expr, dtypes: &[DataType]) -> Option<Kernel> {
    match pred {
        Expr::Bin(BinOp::And, a, b) => Some(Kernel::And(
            Box::new(compile_kernel(a, dtypes)?),
            Box::new(compile_kernel(b, dtypes)?),
        )),
        Expr::Bin(BinOp::Or, a, b) => Some(Kernel::Or(
            Box::new(compile_kernel(a, dtypes)?),
            Box::new(compile_kernel(b, dtypes)?),
        )),
        Expr::Bin(op, a, b) => {
            let op = CmpOp::of(*op)?;
            // Column against constant reads the typed buffer in place.
            let leaf = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) => Some((*c, v, op)),
                (Expr::Lit(v), Expr::Col(c)) => Some((*c, v, op.flip())),
                _ => None,
            };
            if let Some((col, lit, op)) = leaf {
                return match (dtypes.get(col)?, lit) {
                    (DataType::Text, Value::Text(s)) => {
                        Some(Kernel::CmpText { col, op, lit: s.clone() })
                    }
                    (DataType::Text, _) => None,
                    _ => num_lit(lit).map(|lit| Kernel::CmpNum { col, op, lit }),
                };
            }
            let mut cols = Vec::new();
            let a = compile_num(a, dtypes, &mut cols)?;
            let b = compile_num(b, dtypes, &mut cols)?;
            Some(Kernel::CmpExpr { a, op, b, cols })
        }
        Expr::Between(v, lo, hi) => {
            if let (Expr::Col(c), Expr::Lit(lo), Expr::Lit(hi)) =
                (v.as_ref(), lo.as_ref(), hi.as_ref())
            {
                if !numeric(dtypes, *c) {
                    return None;
                }
                return Some(Kernel::BetweenNum { col: *c, lo: num_lit(lo)?, hi: num_lit(hi)? });
            }
            let mut cols = Vec::new();
            let v = compile_num(v, dtypes, &mut cols)?;
            let lo = compile_num(lo, dtypes, &mut cols)?;
            let hi = compile_num(hi, dtypes, &mut cols)?;
            Some(Kernel::BetweenExpr { v, lo, hi, cols })
        }
        Expr::IsNull(a) => match a.as_ref() {
            Expr::Col(c) if *c < dtypes.len() => Some(Kernel::IsNullCol { col: *c }),
            _ => None,
        },
        Expr::Not(a) => Some(Kernel::Not(Box::new(compile_kernel(a, dtypes)?))),
        Expr::Col(c) if numeric(dtypes, *c) => Some(Kernel::TruthyCol { col: *c }),
        _ => None,
    }
}

/// A numeric operand of a comparison kernel: what [`Expr::eval`] computes
/// in `f64` whatever the column types, as a tree.
#[derive(Debug, Clone)]
enum Num {
    Col(usize),
    Lit(f64),
    /// `+ - * /` (no other [`BinOp`] is built).
    Arith(BinOp, Box<Num>, Box<Num>),
    Power(Box<Num>, Box<Num>),
    Call(Func, Box<Num>),
}

/// Compile a numeric operand, noting in `cols` every column under it.
/// `None` for anything that is not arithmetic over numeric columns and
/// numeric literals: a text column or literal (the interpreter's type
/// error must surface), a NULL literal, a comparison or connective.
fn compile_num(e: &Expr, dtypes: &[DataType], cols: &mut Vec<usize>) -> Option<Num> {
    let mut sub = |e: &Expr| compile_num(e, dtypes, cols).map(Box::new);
    Some(match e {
        Expr::Col(c) if numeric(dtypes, *c) => {
            if !cols.contains(c) {
                cols.push(*c);
            }
            Num::Col(*c)
        }
        Expr::Lit(v) => Num::Lit(num_lit(v)?),
        Expr::Bin(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div), a, b) => {
            Num::Arith(*op, sub(a)?, sub(b)?)
        }
        Expr::Power(base, exp) => Num::Power(sub(base)?, sub(exp)?),
        Expr::Call(f, a) => Num::Call(*f, sub(a)?),
        _ => return None,
    })
}

/// A numeric operand over one batch: one value per row, unless every row
/// has the same.
enum NumVal<'a> {
    Const(f64),
    /// A `float` column's own buffer.
    Col(&'a [f64]),
    Owned(Vec<f64>),
}

impl NumVal<'_> {
    /// The per-row values, or the one value every row has.
    fn view(&self) -> Result<&[f64], f64> {
        match self {
            NumVal::Const(x) => Err(*x),
            NumVal::Col(v) => Ok(v),
            NumVal::Owned(v) => Ok(v),
        }
    }
}

/// `f(&mut out[i], x[i], y[i])` for every row: one tight loop per operand
/// shape, so a constant operand is a loop invariant.
fn zip_rows<T>(x: &NumVal, y: &NumVal, out: &mut [T], f: impl Fn(&mut T, f64, f64)) {
    match (x.view(), y.view()) {
        (Ok(xs), Ok(ys)) => {
            for ((t, &a), &b) in out.iter_mut().zip(xs).zip(ys) {
                f(t, a, b);
            }
        }
        (Ok(xs), Err(b)) => {
            for (t, &a) in out.iter_mut().zip(xs) {
                f(t, a, b);
            }
        }
        (Err(a), Ok(ys)) => {
            for (t, &b) in out.iter_mut().zip(ys) {
                f(t, a, b);
            }
        }
        (Err(a), Err(b)) => {
            for t in out {
                f(t, a, b);
            }
        }
    }
}

/// `f(x[i], y[i])` for every row; constants fold.
fn binary<'a>(
    x: NumVal<'a>,
    y: NumVal<'a>,
    rows: usize,
    f: impl Fn(f64, f64) -> f64,
) -> NumVal<'a> {
    if let (NumVal::Const(x), NumVal::Const(y)) = (&x, &y) {
        return NumVal::Const(f(*x, *y));
    }
    let mut out = vec![0.0; rows];
    zip_rows(&x, &y, &mut out, |t, a, b| *t = f(a, b));
    NumVal::Owned(out)
}

/// `f(x[i])` for every row.
fn unary(x: NumVal<'_>, f: impl Fn(f64) -> f64) -> NumVal<'_> {
    match x {
        NumVal::Const(x) => NumVal::Const(f(x)),
        NumVal::Col(v) => NumVal::Owned(v.iter().map(|&x| f(x)).collect()),
        NumVal::Owned(mut v) => {
            v.iter_mut().for_each(|x| *x = f(*x));
            NumVal::Owned(v)
        }
    }
}

impl Num {
    /// Evaluate over every row of `batch`, NULL rows included: a NULL cell
    /// holds a placeholder, `f64` arithmetic cannot trap, and the kernel
    /// masks those rows afterwards ([`mask_nulls`]). Each arm applies the
    /// operation `Expr::eval` applies, to the same widened operands.
    fn eval<'a>(&self, batch: &'a ColumnBatch) -> NumVal<'a> {
        let n = batch.len();
        match self {
            Num::Lit(x) => NumVal::Const(*x),
            // The widenings of `Value::as_f64`.
            Num::Col(c) => match &read_col(batch, *c).data {
                ColumnData::Float(v) => NumVal::Col(v),
                ColumnData::BigInt(v) => NumVal::Owned(v.iter().map(|&x| x as f64).collect()),
                ColumnData::Int(v) => NumVal::Owned(v.iter().map(|&x| f64::from(x)).collect()),
                ColumnData::Real(v) => NumVal::Owned(v.iter().map(|&x| f64::from(x)).collect()),
                // Unreachable by compilation rules; `mask_nulls` makes
                // every row NULL rather than panic.
                ColumnData::Text { .. } | ColumnData::Absent(_) => NumVal::Const(0.0),
            },
            Num::Arith(op, a, b) => {
                let (x, y) = (a.eval(batch), b.eval(batch));
                match op {
                    BinOp::Add => binary(x, y, n, |x, y| x + y),
                    BinOp::Sub => binary(x, y, n, |x, y| x - y),
                    BinOp::Mul => binary(x, y, n, |x, y| x * y),
                    _ => binary(x, y, n, |x, y| x / y),
                }
            }
            Num::Power(base, exp) => binary(base.eval(batch), exp.eval(batch), n, f64::powf),
            Num::Call(func, a) => {
                let x = a.eval(batch);
                match func {
                    Func::Abs => unary(x, f64::abs),
                    Func::Log => unary(x, f64::ln),
                    Func::Floor => unary(x, f64::floor),
                    Func::Sqrt => unary(x, f64::sqrt),
                }
            }
        }
    }
}

/// Make `out` NULL on every row where one of `cols` is NULL: the rule of
/// every numeric operator, applied once for the whole operand tree.
fn mask_nulls(batch: &ColumnBatch, cols: &[usize], out: &mut [u8]) {
    for &c in cols {
        let col = batch.col(c);
        if col.is_absent() {
            out.fill(T_NULL);
            continue;
        }
        for (w, &word) in col.nulls.bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                out[w * 64 + rest.trailing_zeros() as usize] = T_NULL;
                rest &= rest - 1;
            }
        }
    }
}

/// The column a typed path is about to read. The planner marks every
/// column an operator reads as needed, so none of them is ever absent.
fn read_col(batch: &ColumnBatch, col: usize) -> &Column {
    let c = batch.col(col);
    debug_assert!(!c.is_absent(), "a typed path reads column {col}, which the plan left absent");
    c
}

impl Kernel {
    fn eval(&self, batch: &ColumnBatch, out: &mut [u8]) {
        match self {
            Kernel::CmpNum { col, op, lit } => {
                let c = read_col(batch, *col);
                cmp_num_kernel(c, *op, *lit, out);
            }
            Kernel::CmpText { col, op, lit } => {
                let c = read_col(batch, *col);
                let y = lit.as_bytes();
                if let ColumnData::Text { offsets, bytes } = &c.data {
                    for (i, t) in out.iter_mut().enumerate() {
                        *t = if c.nulls.is_null(i) {
                            T_NULL
                        } else {
                            let x = &bytes[offsets[i] as usize..offsets[i + 1] as usize];
                            op.apply_bytes(x, y) as u8
                        };
                    }
                }
            }
            Kernel::BetweenNum { col, lo, hi } => {
                between_kernel(read_col(batch, *col), *lo, *hi, out);
            }
            Kernel::CmpExpr { a, op, b, cols } => {
                let (x, y, op) = (a.eval(batch), b.eval(batch), *op);
                zip_rows(&x, &y, out, |t, x, y| *t = op.apply_f64(x, y) as u8);
                mask_nulls(batch, cols, out);
            }
            Kernel::BetweenExpr { v, lo, hi, cols } => {
                let (x, lo, hi) = (v.eval(batch), lo.eval(batch), hi.eval(batch));
                zip_rows(&x, &lo, out, |t, x, lo| *t = (x >= lo) as u8);
                zip_rows(&x, &hi, out, |t, x, hi| *t &= (x <= hi) as u8);
                mask_nulls(batch, cols, out);
            }
            Kernel::IsNullCol { col } => {
                let c = read_col(batch, *col);
                for (i, t) in out.iter_mut().enumerate() {
                    *t = c.is_null(i) as u8;
                }
            }
            Kernel::TruthyCol { col } => {
                let c = read_col(batch, *col);
                cmp_num_kernel(c, CmpOp::Ne, 0.0, out);
            }
            Kernel::Not(k) => {
                k.eval(batch, out);
                for t in out.iter_mut() {
                    // 0 ↔ 1, NULL stays NULL.
                    if *t != T_NULL {
                        *t ^= 1;
                    }
                }
            }
            Kernel::And(a, b) => {
                a.eval(batch, out);
                let mut rhs = vec![T_FALSE; out.len()];
                b.eval(batch, &mut rhs);
                for (t, &r) in out.iter_mut().zip(&rhs) {
                    // false dominates; otherwise NULL dominates.
                    *t = if *t == T_FALSE || r == T_FALSE {
                        T_FALSE
                    } else if *t == T_NULL || r == T_NULL {
                        T_NULL
                    } else {
                        T_TRUE
                    };
                }
            }
            Kernel::Or(a, b) => {
                a.eval(batch, out);
                let mut rhs = vec![T_FALSE; out.len()];
                b.eval(batch, &mut rhs);
                for (t, &r) in out.iter_mut().zip(&rhs) {
                    // true dominates; otherwise NULL dominates.
                    *t = if *t == T_TRUE || r == T_TRUE {
                        T_TRUE
                    } else if *t == T_NULL || r == T_NULL {
                        T_NULL
                    } else {
                        T_FALSE
                    };
                }
            }
        }
    }
}

/// `column OP lit` over every row: one tight loop per buffer type. The
/// no-NULL fast path drops the bitmap probe so the loop autovectorizes.
fn cmp_num_kernel(c: &Column, op: CmpOp, lit: f64, out: &mut [u8]) {
    macro_rules! run {
        ($vals:expr) => {{
            let vals = $vals;
            if c.nulls.any() {
                for (i, t) in out.iter_mut().enumerate() {
                    *t = if c.nulls.is_null(i) {
                        T_NULL
                    } else {
                        op.apply_f64(vals[i] as f64, lit) as u8
                    };
                }
            } else {
                for (t, &v) in out.iter_mut().zip(vals.iter()) {
                    *t = op.apply_f64(v as f64, lit) as u8;
                }
            }
        }};
    }
    match &c.data {
        ColumnData::BigInt(v) => run!(v),
        ColumnData::Int(v) => run!(v),
        ColumnData::Real(v) => run!(v),
        ColumnData::Float(v) => run!(v),
        // Unreachable by compilation rules; mark every row NULL (filters
        // drop NULL) rather than panic.
        ColumnData::Text { .. } | ColumnData::Absent(_) => out.fill(T_NULL),
    }
}

/// `lo <= column <= hi` (both numeric constants) in one pass.
fn between_kernel(c: &Column, lo: f64, hi: f64, out: &mut [u8]) {
    macro_rules! run {
        ($vals:expr) => {{
            let vals = $vals;
            if c.nulls.any() {
                for (i, t) in out.iter_mut().enumerate() {
                    *t = if c.nulls.is_null(i) {
                        T_NULL
                    } else {
                        let x = vals[i] as f64;
                        (x >= lo && x <= hi) as u8
                    };
                }
            } else {
                for (t, &v) in out.iter_mut().zip(vals.iter()) {
                    let x = v as f64;
                    *t = (x >= lo && x <= hi) as u8;
                }
            }
        }};
    }
    match &c.data {
        ColumnData::BigInt(v) => run!(v),
        ColumnData::Int(v) => run!(v),
        ColumnData::Real(v) => run!(v),
        ColumnData::Float(v) => run!(v),
        ColumnData::Text { .. } | ColumnData::Absent(_) => out.fill(T_NULL),
    }
}

// ---- columnar hash join -----------------------------------------------------

/// Build-side key directory for the vectorized hash join. The planner
/// picks the hash path only for same-`DataType` integer or text
/// equalities, so keys hash on the native representation (`i64` for both
/// integer widths within one type, arena bytes for text) — equality on
/// those is exactly the `=` predicate. NULL keys are skipped on both
/// sides, per SQL three-valued logic.
pub struct ColumnHashTable {
    build: ColumnBatch,
    map: KeyMap,
}

enum KeyMap {
    Int(HashMap<i64, Vec<u32>>),
    Text(HashMap<Vec<u8>, Vec<u32>>),
}

impl ColumnHashTable {
    /// Hash `build` on `key_col`.
    pub fn build(build: ColumnBatch, key_col: usize) -> DbResult<ColumnHashTable> {
        let col = read_col(&build, key_col);
        let map = match &col.data {
            ColumnData::BigInt(v) => {
                let mut m: HashMap<i64, Vec<u32>> = HashMap::with_capacity(v.len());
                for (i, &k) in v.iter().enumerate() {
                    if !col.nulls.is_null(i) {
                        m.entry(k).or_default().push(i as u32);
                    }
                }
                KeyMap::Int(m)
            }
            ColumnData::Int(v) => {
                let mut m: HashMap<i64, Vec<u32>> = HashMap::with_capacity(v.len());
                for (i, &k) in v.iter().enumerate() {
                    if !col.nulls.is_null(i) {
                        m.entry(i64::from(k)).or_default().push(i as u32);
                    }
                }
                KeyMap::Int(m)
            }
            ColumnData::Text { offsets, bytes } => {
                let mut m: HashMap<Vec<u8>, Vec<u32>> = HashMap::with_capacity(offsets.len());
                for i in 0..build.len() {
                    if !col.nulls.is_null(i) {
                        let k = bytes[offsets[i] as usize..offsets[i + 1] as usize].to_vec();
                        m.entry(k).or_default().push(i as u32);
                    }
                }
                KeyMap::Text(m)
            }
            other => {
                return Err(DbError::TypeError(format!(
                    "hash join key must be integer or text, got {:?}",
                    other
                )))
            }
        };
        Ok(ColumnHashTable { build, map })
    }

    /// Rows on the build side.
    pub fn build_rows(&self) -> usize {
        self.build.len()
    }

    /// Probe with a batch of left rows, emitting the concatenated output
    /// batch in left-major order with build rows in input order — exactly
    /// the order the row pipeline's hash join (and the nested loop)
    /// produces. The key column is hashed columnwise; output columns are
    /// built by gather, never row by row.
    pub fn probe(&self, left: &ColumnBatch, left_col: usize) -> DbResult<ColumnBatch> {
        let col = read_col(left, left_col);
        let mut li: Vec<u32> = Vec::new();
        let mut ri: Vec<u32> = Vec::new();
        let mut push = |i: usize, hits: &[u32]| {
            li.extend(std::iter::repeat_n(i as u32, hits.len()));
            ri.extend_from_slice(hits);
        };
        match (&self.map, &col.data) {
            (KeyMap::Int(m), ColumnData::BigInt(v)) => {
                for (i, &k) in v.iter().enumerate() {
                    if !col.nulls.is_null(i) {
                        if let Some(hits) = m.get(&k) {
                            push(i, hits);
                        }
                    }
                }
            }
            (KeyMap::Int(m), ColumnData::Int(v)) => {
                for (i, &k) in v.iter().enumerate() {
                    if !col.nulls.is_null(i) {
                        if let Some(hits) = m.get(&i64::from(k)) {
                            push(i, hits);
                        }
                    }
                }
            }
            (KeyMap::Text(m), ColumnData::Text { offsets, bytes }) => {
                for i in 0..left.len() {
                    if !col.nulls.is_null(i) {
                        let k = &bytes[offsets[i] as usize..offsets[i + 1] as usize];
                        if let Some(hits) = m.get(k) {
                            push(i, hits);
                        }
                    }
                }
            }
            _ => {
                return Err(DbError::TypeError(
                    "hash join probe key type does not match the build side".into(),
                ))
            }
        }
        Ok(ColumnBatch::concat_gather(left, &li, &self.build, &ri))
    }
}

/// Encode the cell `(col, i)` with the order-preserving key codec into a
/// reused scratch buffer (hash-join key parity with the row pipeline's
/// `encode_key`, minus its per-row allocation).
pub fn encode_cell_key(batch: &ColumnBatch, col: usize, i: usize, out: &mut Vec<u8>) {
    out.clear();
    encode_value(&read_col(batch, col).value(i), out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dtypes() -> Vec<DataType> {
        vec![DataType::BigInt, DataType::Int, DataType::Real, DataType::Float, DataType::Text]
    }

    fn rows() -> Vec<Row> {
        vec![
            Row(vec![
                Value::BigInt(i64::MAX),
                Value::Int(-7),
                Value::Real(2.5),
                Value::Float(-0.0),
                Value::Text(String::new()),
            ]),
            Row(vec![Value::Null, Value::Null, Value::Null, Value::Null, Value::Null]),
            Row(vec![
                Value::BigInt(-42),
                Value::Int(i32::MIN),
                Value::Real(f32::NAN),
                Value::Float(f64::INFINITY),
                Value::Text("skyserver".into()),
            ]),
        ]
    }

    #[test]
    fn row_batch_roundtrip_is_lossless() {
        let batch = ColumnBatch::from_rows(&dtypes(), &rows()).unwrap();
        assert_eq!(batch.len(), 3);
        let back = batch.to_rows();
        for (a, b) in rows().iter().zip(&back) {
            assert_eq!(a.encode(), b.encode(), "byte-exact round trip");
        }
    }

    #[test]
    fn wire_decode_matches_row_decode() {
        let mut batch = ColumnBatch::with_capacity(&dtypes(), 4);
        for row in rows() {
            batch.push_wire(&row.encode()).unwrap();
        }
        for (i, row) in rows().iter().enumerate() {
            assert_eq!(batch.row(i).encode(), row.encode());
        }
    }

    #[test]
    fn wire_decode_rejects_mismatched_tags_and_trailing_bytes() {
        let mut batch = ColumnBatch::with_capacity(&[DataType::Int], 1);
        let bigint = Row(vec![Value::BigInt(1)]).encode();
        assert!(batch.push_wire(&bigint).is_err());
        let mut ok = Row(vec![Value::Int(1)]).encode();
        ok.push(0);
        assert!(batch.push_wire(&ok).is_err());
    }

    /// An index entry decodes to the very cells its row decodes to: the
    /// key codec's widening (`int`→`i64`, `real`→`f64`) narrows back
    /// exactly, NULL, signed zero, NaN and text included.
    #[test]
    fn key_decode_is_bit_identical_to_wire_decode() {
        use crate::key::encode_key;
        let mut edge = rows();
        edge.push(Row(vec![
            Value::BigInt(i64::MIN),
            Value::Int(i32::MAX),
            Value::Real(-0.0),
            Value::Float(f64::NAN),
            Value::Text("zone".into()),
        ]));
        edge.push(Row(vec![
            Value::BigInt(0),
            Value::Int(0),
            Value::Real(0.1),
            Value::Float(0.1),
            Value::Text("é".into()),
        ]));
        // Fields in another order than the columns, one column twice.
        let fields = [3, 4, 0, 2, 1, 0];
        let (mut from_key, mut from_wire) =
            (ColumnBatch::with_capacity(&dtypes(), 8), ColumnBatch::with_capacity(&dtypes(), 8));
        for row in &edge {
            let key = encode_key(&fields.map(|c| row[c].clone()));
            let at = from_key.push_key(&key, &fields, 4).unwrap();
            assert_eq!(key[at..], encode_key(&[row[1].clone(), row[0].clone()]), "locator");
            from_wire.push_wire(&row.encode()).unwrap();
        }
        for (i, row) in edge.iter().enumerate() {
            assert_eq!(from_key.row(i).encode(), row.encode(), "row {i} through the key");
            assert_eq!(from_wire.row(i).encode(), row.encode(), "row {i} through the wire");
        }
    }

    /// Absent columns: same layout, no cells; decoders step over them,
    /// gathers and appends carry them, and they read as NULL.
    #[test]
    fn absent_columns_keep_the_layout_and_hold_nothing() {
        let needed = [true, false, false, true, false];
        let mut batch = ColumnBatch::with_projection(&dtypes(), &needed, 4);
        for row in rows() {
            batch.push_wire(&row.encode()).unwrap();
        }
        assert_eq!((batch.len(), batch.num_cols()), (3, 5));
        assert_eq!(batch.dtypes(), dtypes());
        let expect = |i: usize| {
            let mut row = rows()[i].clone();
            for (cell, read) in row.0.iter_mut().zip(needed) {
                if !read {
                    *cell = Value::Null;
                }
            }
            row.encode()
        };
        assert_eq!(batch.row(2).encode(), expect(2));
        let mut scratch = Vec::new();
        batch.read_row_into(0, &mut scratch);
        assert_eq!(Row(scratch).encode(), expect(0));
        let picked = batch.gather(&[2, 0]);
        assert!(picked.col(1).is_absent() && !picked.col(3).is_absent());
        assert_eq!(picked.row(0).encode(), expect(2));
        let mut all = ColumnBatch::with_projection(&dtypes(), &needed, 0);
        all.extend_from(&batch).unwrap();
        all.extend_from(&picked).unwrap();
        assert_eq!((all.len(), all.row(4).encode()), (5, expect(0)));
        let joined = ColumnBatch::concat_gather(&batch, &[1, 2], &picked, &[0, 1]);
        assert!(joined.col(2).is_absent() && joined.col(6).is_absent());
        assert_eq!(joined.value(8, 1), rows()[0][3]);
        // A batch that holds the column does not take one that lacks it.
        assert!(ColumnBatch::with_capacity(&dtypes(), 0).extend_from(&batch).is_err());
        // The framing of a stepped-over value is still checked.
        let mut short = rows()[0].encode();
        short.truncate(short.len() - 3);
        assert!(batch.push_wire(&short).is_err());
        let swapped = Row(vec![Value::BigInt(1), Value::Float(1.0)]).encode();
        let mut two =
            ColumnBatch::with_projection(&[DataType::BigInt, DataType::Int], &[true, false], 1);
        assert!(two.push_wire(&swapped).is_err(), "a FLOAT where the absent INT column sits");
    }

    /// Reading a NULL-free all-fixed-width row by offset gives the cells
    /// walking it gives; a NULL (a shorter row) or a misplaced tag (a row of
    /// that length that is not that layout) takes the walk or is refused.
    #[test]
    fn rows_read_by_offset_are_the_rows_read_by_walking() {
        let dt = [DataType::BigInt, DataType::Int, DataType::Real, DataType::Float];
        let row = |a: Value, b: Value, c: Value, d: Value| Row(vec![a, b, c, d]);
        let corpus = [
            row(Value::BigInt(i64::MIN), Value::Int(i32::MAX), Value::Real(-0.0), Value::Float(0.1)),
            row(Value::BigInt(7), Value::Null, Value::Real(f32::NAN), Value::Float(f64::INFINITY)),
            row(Value::Null, Value::Null, Value::Null, Value::Null),
            row(Value::BigInt(-1), Value::Int(i32::MIN), Value::Real(0.1), Value::Float(-0.0)),
        ];
        for needed in [[true; 4], [false, true, false, true], [true, false, true, false], [false; 4]] {
            let mut by_offset = ColumnBatch::with_projection(&dt, &needed, 4);
            let mut by_walk = ColumnBatch::with_projection(&dt, &needed, 4);
            assert_eq!(by_offset.fixed.as_ref().map(|f| f.row_len), Some(9 + 5 + 5 + 9));
            by_walk.fixed = None;
            for r in &corpus {
                by_offset.push_wire(&r.encode()).unwrap();
                by_walk.push_wire(&r.encode()).unwrap();
            }
            for i in 0..corpus.len() {
                assert_eq!(by_offset.row(i).encode(), by_walk.row(i).encode(), "{needed:?} row {i}");
            }
            // As long as the layout, but an INT where the BIGINT sits: the
            // walk refuses it, and so does the offset read, absent or not.
            let misfit = row(Value::Int(1), Value::Int(2), Value::Float(3.0), Value::Float(4.0));
            assert_eq!(misfit.encoded_len(), 28);
            assert!(matches!(by_offset.push_wire(&misfit.encode()), Err(DbError::Corrupt(_))));
            assert!(matches!(by_walk.push_wire(&misfit.encode()), Err(DbError::Corrupt(_))));
        }
        // A text column has no fixed layout.
        assert!(ColumnBatch::with_capacity(&dtypes(), 1).fixed.is_none());
    }

    /// A plan that points a kernel at a column it did not mark as needed is
    /// a planner bug; debug builds stop on it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "which the plan left absent")]
    fn a_kernel_over_an_absent_column_trips_the_assertion() {
        let dt = [DataType::Float, DataType::Int];
        let mut batch = ColumnBatch::with_projection(&dt, &[false, true], 1);
        batch.push_wire(&Row(vec![Value::Float(1.0), Value::Int(1)]).encode()).unwrap();
        let vp = VPredicate::compile(&Expr::Col(0).bin(BinOp::Gt, Expr::lit(0.5)), &dt);
        assert!(vp.is_compiled());
        let _ = vp.select(&batch);
    }

    #[test]
    fn gather_and_extend_preserve_values() {
        let batch = ColumnBatch::from_rows(&dtypes(), &rows()).unwrap();
        let picked = batch.gather(&[2, 0]);
        assert_eq!(picked.row(0).encode(), rows()[2].encode());
        assert_eq!(picked.row(1).encode(), rows()[0].encode());
        let mut all = ColumnBatch::with_capacity(&dtypes(), 0);
        all.extend_from(&batch).unwrap();
        all.extend_from(&picked).unwrap();
        assert_eq!(all.len(), 5);
        assert_eq!(all.row(3).encode(), rows()[2].encode());
    }

    #[test]
    fn compiled_selection_matches_row_at_a_time() {
        let dt = vec![DataType::Float, DataType::Int];
        let rows: Vec<Row> = (0..10)
            .map(|i| {
                Row(vec![
                    if i % 4 == 0 { Value::Null } else { Value::Float(f64::from(i)) },
                    Value::Int(i % 3),
                ])
            })
            .collect();
        let batch = ColumnBatch::from_rows(&dt, &rows).unwrap();
        let pred = Expr::Col(0)
            .between(Expr::lit(2.0), Expr::lit(8.0))
            .and(Expr::Col(1).bin(BinOp::Ne, Expr::lit(1i32)));
        let vp = VPredicate::compile(&pred, &dt);
        assert!(vp.is_compiled());
        let sel = vp.select(&batch).unwrap();
        let expect: Vec<u32> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| pred.matches(r).unwrap())
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(sel, expect);
    }

    #[test]
    fn arithmetic_predicates_compile() {
        let dt = vec![DataType::Float];
        let pred = Expr::Col(0).bin(BinOp::Add, Expr::lit(1.0)).bin(BinOp::Gt, Expr::lit(3.0));
        let vp = VPredicate::compile(&pred, &dt);
        assert!(vp.is_compiled());
        let rows = vec![Row(vec![Value::Float(1.0)]), Row(vec![Value::Float(5.0)])];
        let batch = ColumnBatch::from_rows(&dt, &rows).unwrap();
        assert_eq!(vp.select(&batch).unwrap(), vec![1]);
    }

    /// A 64-bit LCG: the differential test's only source of variety.
    fn lcg(mut state: u64) -> impl FnMut() -> usize {
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        }
    }

    /// A numeric operand tree over columns 0..4 of [`dtypes`]. `poison`
    /// plants, at the first leaf drawn, what the kernels must refuse: the
    /// text column or a NULL literal.
    fn num_tree(next: &mut impl FnMut() -> usize, depth: usize, poison: &mut Option<Expr>) -> Expr {
        let mut sub = |next: &mut _| Box::new(num_tree(next, depth - 1, poison));
        match if depth == 0 { next() % 2 } else { next() % 9 } {
            0 => poison.take().unwrap_or(Expr::Col(next() % 4)),
            1 => poison.take().unwrap_or(Expr::Lit(
                [
                    Value::Float(0.0),
                    Value::Float(-0.0),
                    Value::Float(0.5),
                    Value::Float(-3.0),
                    Value::Float(f64::INFINITY),
                    Value::Real(0.1),
                    Value::Int(2),
                    Value::BigInt(-1),
                    Value::BigInt((1 << 53) + 1),
                ][next() % 9]
                    .clone(),
            )),
            op @ 2..=5 => {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][op - 2];
                Expr::Bin(op, sub(next), sub(next))
            }
            6 => Expr::Power(sub(next), sub(next)),
            _ => {
                let f = [Func::Abs, Func::Log, Func::Floor, Func::Sqrt][next() % 4];
                Expr::Call(f, sub(next))
            }
        }
    }

    /// Comparisons and BETWEENs over [`num_tree`]s, under NOT / AND / OR.
    fn num_pred(next: &mut impl FnMut() -> usize, depth: usize, poison: &mut Option<Expr>) -> Expr {
        let cmp = [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq, BinOp::Ne];
        let mut num = |next: &mut _| num_tree(next, 3, poison);
        match if depth == 0 { next() % 2 } else { next() % 5 } {
            0 => num(next).bin(cmp[next() % 6], num(next)),
            1 => num(next).between(num(next), num(next)),
            2 => Expr::Not(Box::new(num_pred(next, depth - 1, poison))),
            3 => num_pred(next, depth - 1, poison).and(num_pred(next, depth - 1, poison)),
            _ => num_pred(next, depth - 1, poison)
                .bin(BinOp::Or, num_pred(next, depth - 1, poison)),
        }
    }

    /// Rows crossing what `f64` arithmetic treats specially, over all four
    /// numeric types: NULL, NaN, signed zeros and infinities, the integer
    /// extremes, `i64`s no `f64` holds, a `REAL` whose widening is not its
    /// decimal, and operands that divide by zero or leave `LOG`/`SQRT`'s
    /// domain.
    fn edge_rows(next: &mut impl FnMut() -> usize, n: usize) -> Vec<Row> {
        let big = [i64::MAX, i64::MIN, (1 << 53) + 1, -(1 << 53) - 1, 0, 1, -1, 7];
        let int = [i32::MAX, i32::MIN, 0, 1, -1, -4, 9, 100];
        let real = [0.0, -0.0, 0.1, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, -2.5];
        let float = [0.0, -0.0, 0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e308, -4.0];
        (0..n)
            .map(|_| {
                let cell = |draw: usize, v: Value| if draw % 7 == 0 { Value::Null } else { v };
                Row(vec![
                    cell(next(), Value::BigInt(big[next() % 8])),
                    cell(next(), Value::Int(int[next() % 8])),
                    cell(next(), Value::Real(real[next() % 8])),
                    cell(next(), Value::Float(float[next() % 8])),
                    cell(next(), Value::Text(["", "a", "7"][next() % 3].into())),
                ])
            })
            .collect()
    }

    /// What evaluating `pred` row by row selects, or the first error.
    fn interpreted(pred: &Expr, rows: &[Row]) -> DbResult<Vec<u32>> {
        let mut sel = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            if pred.matches(row)? {
                sel.push(i as u32);
            }
        }
        Ok(sel)
    }

    /// The numeric kernels are the interpreter: every generated predicate
    /// compiles, and selects exactly the rows `Expr::matches` accepts.
    #[test]
    fn numeric_kernels_select_what_the_interpreter_selects() {
        let mut next = lcg(2005);
        let rows = edge_rows(&mut next, 150);
        let batch = ColumnBatch::from_rows(&dtypes(), &rows).unwrap();
        let mut selected = 0;
        for _ in 0..400 {
            let pred = num_pred(&mut next, 2, &mut None);
            let vp = VPredicate::compile(&pred, &dtypes());
            assert!(vp.is_compiled(), "{pred:?}");
            let got = vp.select(&batch).unwrap();
            assert_eq!(got, interpreted(&pred, &rows).unwrap(), "{pred:?}");
            selected += got.len();
        }
        assert!(selected > 1000, "the corpus selects rows: {selected}");
    }

    /// A text column or a NULL literal anywhere in an operand keeps the
    /// whole predicate on the interpreter, type errors included.
    #[test]
    fn non_numeric_operands_keep_the_interpreter_and_its_errors() {
        let mut next = lcg(1806);
        let rows = edge_rows(&mut next, 40);
        let batch = ColumnBatch::from_rows(&dtypes(), &rows).unwrap();
        let mut errors = 0;
        for case in 0..200 {
            let mut poison =
                Some(if case % 2 == 0 { Expr::Col(4) } else { Expr::Lit(Value::Null) });
            let pred = num_pred(&mut next, 2, &mut poison);
            assert!(poison.is_none(), "every predicate has a leaf");
            let vp = VPredicate::compile(&pred, &dtypes());
            assert!(!vp.is_compiled(), "{pred:?}");
            let want = interpreted(&pred, &rows);
            errors += usize::from(want.is_err());
            assert_eq!(vp.select(&batch), want, "{pred:?}");
        }
        assert!(errors > 20, "arithmetic on text is a type error: {errors}");
    }

    #[test]
    fn columnar_hash_join_probe_orders_like_nested_loop() {
        let ldt = vec![DataType::Int, DataType::Float];
        let rdt = vec![DataType::Int, DataType::Text];
        let left = ColumnBatch::from_rows(
            &ldt,
            &[
                Row(vec![Value::Int(1), Value::Float(0.5)]),
                Row(vec![Value::Null, Value::Float(1.5)]),
                Row(vec![Value::Int(2), Value::Float(2.5)]),
            ],
        )
        .unwrap();
        let right = ColumnBatch::from_rows(
            &rdt,
            &[
                Row(vec![Value::Int(2), Value::Text("a".into())]),
                Row(vec![Value::Int(1), Value::Text("b".into())]),
                Row(vec![Value::Int(2), Value::Text("c".into())]),
            ],
        )
        .unwrap();
        let table = ColumnHashTable::build(right, 0).unwrap();
        let out = table.probe(&left, 0).unwrap();
        let got: Vec<Vec<u8>> = out.to_rows().iter().map(Row::encode).collect();
        let want: Vec<Vec<u8>> = [
            Row(vec![Value::Int(1), Value::Float(0.5), Value::Int(1), Value::Text("b".into())]),
            Row(vec![Value::Int(2), Value::Float(2.5), Value::Int(2), Value::Text("a".into())]),
            Row(vec![Value::Int(2), Value::Float(2.5), Value::Int(2), Value::Text("c".into())]),
        ]
        .iter()
        .map(Row::encode)
        .collect();
        assert_eq!(got, want);
    }
}
