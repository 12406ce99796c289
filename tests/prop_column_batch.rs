//! Property tests for the columnar exchange format: random typed rows —
//! NULLs, empty strings, extreme ints and floats included — must survive
//! the `Row` ↔ `ColumnBatch` round trip losslessly (compared on the wire
//! encoding, so NaN and -0.0 bit patterns count), and compiled predicate
//! kernels must select exactly the rows the row-at-a-time `Expr`
//! evaluator accepts — generated numeric expression trees included.

use proptest::prelude::*;
use stardb::{BinOp, ColumnBatch, DataType, DbResult, Expr, Func, Row, Value, VPredicate};

/// Entropy for one cell, interpreted per the column's declared type:
/// `pick` routes between NULL, forced extremes, and the generic payload.
type CellSeed = (u8, i64, f64, String);

fn cell_seed() -> impl Strategy<Value = CellSeed> {
    (0u8..10, any::<i64>(), any::<f64>(), "[a-c ]{0,6}")
}

fn cell(dtype: DataType, seed: &CellSeed) -> Value {
    let (pick, i, f, s) = seed;
    if *pick == 0 {
        return Value::Null;
    }
    match dtype {
        DataType::BigInt => Value::BigInt(match pick {
            1 => i64::MAX,
            2 => i64::MIN,
            _ => *i,
        }),
        DataType::Int => Value::Int(match pick {
            1 => i32::MAX,
            2 => i32::MIN,
            _ => *i as i32,
        }),
        DataType::Real => Value::Real(match pick {
            1 => f32::MAX,
            2 => -f32::MAX,
            3 => -0.0f32,
            _ => *f as f32,
        }),
        DataType::Float => Value::Float(match pick {
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => f64::NAN,
            4 => -0.0,
            _ => *f,
        }),
        DataType::Text => Value::Text(s.clone()),
    }
}

fn decode_dtype(code: u8) -> DataType {
    match code % 5 {
        0 => DataType::BigInt,
        1 => DataType::Int,
        2 => DataType::Real,
        3 => DataType::Float,
        _ => DataType::Text,
    }
}

fn build_rows(dtypes: &[DataType], nrows: usize, pool: &[CellSeed]) -> Vec<Row> {
    (0..nrows)
        .map(|r| {
            Row(dtypes
                .iter()
                .enumerate()
                .map(|(c, &dt)| cell(dt, &pool[(r * dtypes.len() + c) % pool.len()]))
                .collect())
        })
        .collect()
}

/// Derive a predicate over column `c` from seed material. Returns the
/// expression plus whether the compile-or-fallback contract promises a
/// compiled kernel for this shape.
fn build_pred(dtypes: &[DataType], sel: u64, ilit: i64, flit: f64, slit: &str) -> (Expr, bool) {
    let c = (sel % dtypes.len() as u64) as usize;
    let col = Expr::Col(c);
    let numeric = dtypes[c] != DataType::Text;
    if !numeric {
        return match (sel / 7) % 3 {
            0 => (col.bin(BinOp::Eq, Expr::lit(slit)), true),
            1 => (col.bin(BinOp::Lt, Expr::lit(slit)), true),
            _ => (Expr::IsNull(Box::new(col)), true),
        };
    }
    let op = match (sel / 3) % 6 {
        0 => BinOp::Lt,
        1 => BinOp::Le,
        2 => BinOp::Gt,
        3 => BinOp::Ge,
        4 => BinOp::Eq,
        _ => BinOp::Ne,
    };
    match (sel / 7) % 8 {
        0 => (col.bin(op, Expr::lit(flit)), true),
        1 => (col.bin(op, Expr::lit(ilit % 100)), true),
        2 => (col.between(Expr::lit(flit - 10.0), Expr::lit(flit + 10.0)), true),
        3 => (Expr::IsNull(Box::new(col)), true),
        4 => (Expr::Not(Box::new(Expr::IsNull(Box::new(col)))), true),
        5 => (col, true), // bare truthy column
        6 => (
            col.clone()
                .bin(op, Expr::lit(flit))
                .and(Expr::Not(Box::new(Expr::IsNull(Box::new(col))))),
            true,
        ),
        // Arithmetic inside the comparison: a numeric operand tree.
        _ => (col.bin(BinOp::Add, Expr::lit(1i64)).bin(op, Expr::lit(flit)), true),
    }
}

/// The column layout of the numeric-kernel property: all four numeric
/// types, and a text column for the operands the kernels must refuse.
const NUMERIC_AND_TEXT: [DataType; 5] =
    [DataType::BigInt, DataType::Int, DataType::Real, DataType::Float, DataType::Text];

/// Generated draws, read off in order and around again.
struct Tape<'a> {
    draws: &'a [u32],
    at: usize,
}

impl Tape<'_> {
    fn next(&mut self) -> usize {
        self.at += 1;
        self.draws[(self.at - 1) % self.draws.len()] as usize
    }
}

/// A numeric operand tree over the four numeric columns. `poison` plants,
/// at the first leaf drawn, what the kernels must refuse.
fn num_tree(tape: &mut Tape, depth: usize, poison: &mut Option<Expr>) -> Expr {
    let mut sub = |tape: &mut Tape| Box::new(num_tree(tape, depth - 1, poison));
    match if depth == 0 { tape.next() % 2 } else { tape.next() % 9 } {
        0 => poison.take().unwrap_or(Expr::Col(tape.next() % 4)),
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
            ][tape.next() % 9]
                .clone(),
        )),
        op @ 2..=5 => {
            let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][op - 2];
            Expr::Bin(op, sub(tape), sub(tape))
        }
        6 => Expr::Power(sub(tape), sub(tape)),
        _ => {
            let f = [Func::Abs, Func::Log, Func::Floor, Func::Sqrt][tape.next() % 4];
            Expr::Call(f, sub(tape))
        }
    }
}

/// Comparisons and BETWEENs over [`num_tree`]s, under NOT / AND / OR.
fn num_pred(tape: &mut Tape, depth: usize, poison: &mut Option<Expr>) -> Expr {
    let cmp = [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq, BinOp::Ne];
    let mut num = |tape: &mut Tape| num_tree(tape, 3, poison);
    match if depth == 0 { tape.next() % 2 } else { tape.next() % 5 } {
        0 => num(tape).bin(cmp[tape.next() % 6], num(tape)),
        1 => num(tape).between(num(tape), num(tape)),
        2 => Expr::Not(Box::new(num_pred(tape, depth - 1, poison))),
        3 => num_pred(tape, depth - 1, poison).and(num_pred(tape, depth - 1, poison)),
        _ => num_pred(tape, depth - 1, poison).bin(BinOp::Or, num_pred(tape, depth - 1, poison)),
    }
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Row ↔ ColumnBatch is lossless on the wire encoding, through both
    /// ingestion paths: typed `from_rows` and the page-wire `push_wire`.
    #[test]
    fn row_column_round_trip_is_lossless(
        codes in prop::collection::vec(0u8..5, 1usize..6),
        nrows in 0usize..64,
        pool in prop::collection::vec(cell_seed(), 96usize),
    ) {
        let dtypes: Vec<DataType> = codes.iter().map(|&c| decode_dtype(c)).collect();
        let rows = build_rows(&dtypes, nrows, &pool);
        let want: Vec<Vec<u8>> = rows.iter().map(Row::encode).collect();

        let batch = ColumnBatch::from_rows(&dtypes, &rows).unwrap();
        prop_assert_eq!(batch.len(), rows.len());
        let got: Vec<Vec<u8>> = batch.to_rows().iter().map(Row::encode).collect();
        prop_assert_eq!(&got, &want, "from_rows round trip");

        let mut wired = ColumnBatch::with_capacity(&dtypes, rows.len());
        for row in &rows {
            wired.push_wire(&row.encode()).unwrap();
        }
        let got: Vec<Vec<u8>> = wired.to_rows().iter().map(Row::encode).collect();
        prop_assert_eq!(&got, &want, "push_wire round trip");

        // Per-cell access agrees with the row view, NULLs included.
        for (i, row) in rows.iter().enumerate() {
            for c in 0..dtypes.len() {
                prop_assert_eq!(
                    Row(vec![batch.value(c, i)]).encode(),
                    Row(vec![row.0[c].clone()]).encode(),
                    "cell ({}, {})", c, i
                );
            }
        }
    }

    /// A compiled kernel's selection vector names exactly the rows the
    /// scalar `Expr::matches` accepts — and shapes the contract promises
    /// to compile really do compile (no silent fallback).
    #[test]
    fn selection_vectors_agree_with_row_at_a_time_eval(
        codes in prop::collection::vec(0u8..5, 1usize..6),
        nrows in 0usize..64,
        pool in prop::collection::vec(cell_seed(), 96usize),
        preds in prop::collection::vec(
            (any::<u64>(), any::<i64>(), -400.0f64..400.0, "[a-c ]{0,4}"),
            1usize..8,
        ),
    ) {
        let dtypes: Vec<DataType> = codes.iter().map(|&c| decode_dtype(c)).collect();
        let rows = build_rows(&dtypes, nrows, &pool);
        let batch = ColumnBatch::from_rows(&dtypes, &rows).unwrap();

        for (sel, ilit, flit, slit) in &preds {
            let (expr, compiled) = build_pred(&dtypes, *sel, *ilit, *flit, slit);
            let vp = VPredicate::compile(&expr, &dtypes);
            prop_assert_eq!(
                vp.is_compiled(), compiled,
                "compile contract violated for {:?}", expr
            );
            let got = vp.select(&batch).unwrap();
            let mut want: Vec<u32> = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                if expr.matches(row).unwrap() {
                    want.push(i as u32);
                }
            }
            prop_assert_eq!(&got, &want, "selection diverged for {:?}", expr);
        }
    }

    /// Numeric kernels are the interpreter, bit for bit: a generated
    /// comparison tree over all four numeric types — NULL, NaN, signed
    /// zeros and infinities, the integer extremes, `i64`s no `f64` holds,
    /// `REAL` widening, division by zero, `LOG`/`SQRT` out of domain —
    /// compiles and selects exactly what `Expr::matches` accepts; with a
    /// text column or a NULL literal anywhere in it, it stays on the
    /// interpreter and returns the interpreter's answer or type error.
    #[test]
    fn numeric_kernels_agree_with_the_interpreter(
        nrows in 0usize..64,
        pool in prop::collection::vec(cell_seed(), 96usize),
        draws in prop::collection::vec(any::<u32>(), 48usize),
        refuse in 0u8..3,
    ) {
        let rows = build_rows(&NUMERIC_AND_TEXT, nrows, &pool);
        let batch = ColumnBatch::from_rows(&NUMERIC_AND_TEXT, &rows).unwrap();
        let mut poison = match refuse {
            0 => None,
            1 => Some(Expr::Col(4)),
            _ => Some(Expr::Lit(Value::Null)),
        };
        let pred = num_pred(&mut Tape { draws: &draws, at: 0 }, 2, &mut poison);
        let vp = VPredicate::compile(&pred, &NUMERIC_AND_TEXT);
        prop_assert_eq!(vp.is_compiled(), refuse == 0, "compile contract violated for {:?}", pred);
        prop_assert_eq!(vp.select(&batch), interpreted(&pred, &rows), "diverged for {:?}", pred);
    }
}
