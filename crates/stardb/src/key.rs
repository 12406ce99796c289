//! Order-preserving key encoding.
//!
//! Index keys are encoded so that `memcmp` on the encoded bytes reproduces
//! [`Value::total_cmp`] lexicographically over the key columns. This is the
//! trick real engines use to keep B-tree binary searches allocation-free:
//! comparisons happen directly against page bytes.
//!
//! Per-field layout: a tag byte, then a payload whose raw byte order
//! matches the value order:
//!
//! * `0x00` — NULL (sorts first; no payload);
//! * `0x01` + 8 bytes — float (`real` widens to f64; the bits get the
//!   standard order-preserving transform: positive floats set the sign bit,
//!   negative floats invert all bits, then big-endian);
//! * `0x02` + 8 bytes — integer (`int` widens to i64; sign bit flipped,
//!   big-endian — exact for the full `bigint` range, e.g. objid keys);
//! * `0x03` + bytes + `0x00` terminator — text (no embedded NULs, which the
//!   engine's identifiers never contain).
//!
//! A key *column* always carries one type (schemas are static and
//! [`crate::schema::Schema::check_row`] enforces them), so encoded
//! comparisons only ever see same-tag fields in practice; across tags the
//! order is by tag byte, which is deterministic but not numeric.

use crate::error::{DbError, DbResult};
use crate::value::Value;

const TAG_NULL: u8 = 0x00;
const TAG_NUM: u8 = 0x01;
const TAG_INT: u8 = 0x02;
const TAG_TEXT: u8 = 0x03;

/// f64 bits → order-preserving u64.
#[inline]
fn order_f64(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`order_f64`].
#[inline]
fn unorder_f64(bits: u64) -> f64 {
    let raw = if bits & (1 << 63) != 0 { bits & !(1 << 63) } else { !bits };
    f64::from_bits(raw)
}

/// i64 → order-preserving u64 (flip the sign bit).
#[inline]
fn order_i64(v: i64) -> u64 {
    (v as u64) ^ (1 << 63)
}

#[inline]
fn unorder_i64(bits: u64) -> i64 {
    (bits ^ (1 << 63)) as i64
}

/// Append the order-preserving encoding of one value.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::BigInt(x) => {
            out.push(TAG_INT);
            out.extend_from_slice(&order_i64(*x).to_be_bytes());
        }
        Value::Int(x) => {
            out.push(TAG_INT);
            out.extend_from_slice(&order_i64(i64::from(*x)).to_be_bytes());
        }
        Value::Real(x) => {
            out.push(TAG_NUM);
            out.extend_from_slice(&order_f64(f64::from(*x)).to_be_bytes());
        }
        Value::Float(x) => {
            out.push(TAG_NUM);
            out.extend_from_slice(&order_f64(*x).to_be_bytes());
        }
        Value::Text(s) => {
            // Every key the engine stores went through [`encode_fields`].
            debug_assert!(!s.as_bytes().contains(&0), "text keys may not embed NUL");
            out.push(TAG_TEXT);
            out.extend_from_slice(s.as_bytes());
            out.push(0x00);
        }
    }
}

/// Encode a composite key.
pub fn encode_key(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 9);
    for v in values {
        encode_value(v, &mut out);
    }
    out
}

/// Append the encoding of each value in turn, refusing the one kind that
/// cannot be a key field: text holding NUL, the codec's text terminator —
/// an embedded one would write a key [`decode_key`] rejects.
pub(crate) fn encode_fields<'a>(
    values: impl IntoIterator<Item = &'a Value>,
    out: &mut Vec<u8>,
) -> DbResult<()> {
    for v in values {
        if matches!(v, Value::Text(s) if s.as_bytes().contains(&0)) {
            return Err(DbError::SchemaMismatch(
                "a text value containing NUL cannot be a key field".into(),
            ));
        }
        encode_value(v, out);
    }
    Ok(())
}

/// One decoded key field, borrowing text from the key bytes. Widths are
/// the codec's normalized ones: every integer is an `i64`, every float an
/// `f64` (both widenings are lossless, so narrowing back to the column's
/// declared type is exact).
pub(crate) enum KeyField<'a> {
    /// NULL.
    Null,
    /// `real` or `float`.
    Num(f64),
    /// `int` or `bigint`.
    Int(i64),
    /// `text`.
    Text(&'a str),
}

/// Split the first field off `buf`, or `None` at the end of the key.
pub(crate) fn next_field<'a>(buf: &mut &'a [u8]) -> DbResult<Option<KeyField<'a>>> {
    let Some((&tag, rest)) = buf.split_first() else { return Ok(None) };
    *buf = rest;
    Ok(Some(match tag {
        TAG_NULL => KeyField::Null,
        TAG_INT => KeyField::Int(unorder_i64(take8(buf)?)),
        TAG_NUM => KeyField::Num(unorder_f64(take8(buf)?)),
        TAG_TEXT => {
            let end = buf
                .iter()
                .position(|&b| b == 0)
                .ok_or_else(|| DbError::Corrupt("unterminated text key".into()))?;
            let s = std::str::from_utf8(&buf[..end])
                .map_err(|_| DbError::Corrupt("invalid utf8 in key".into()))?;
            *buf = &buf[end + 1..];
            KeyField::Text(s)
        }
        other => return Err(DbError::Corrupt(format!("unknown key tag {other}"))),
    }))
}

/// Decode a composite key back to values. Integers come back as `BigInt`
/// and floats as `Float` — the key codec normalizes widths, which is fine
/// because tables keep the authoritative row in the leaf payload.
pub fn decode_key(mut buf: &[u8]) -> DbResult<Vec<Value>> {
    let mut out = Vec::new();
    while let Some(field) = next_field(&mut buf)? {
        out.push(match field {
            KeyField::Null => Value::Null,
            KeyField::Int(i) => Value::BigInt(i),
            KeyField::Num(f) => Value::Float(f),
            KeyField::Text(s) => Value::Text(s.to_owned()),
        });
    }
    Ok(out)
}

fn take8(buf: &mut &[u8]) -> DbResult<u64> {
    let Some((head, rest)) = buf.split_first_chunk::<8>() else {
        return Err(DbError::Corrupt("truncated key".into()));
    };
    *buf = rest;
    Ok(u64::from_be_bytes(*head))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn cmp_via_bytes(a: &[Value], b: &[Value]) -> Ordering {
        encode_key(a).cmp(&encode_key(b))
    }

    fn cmp_via_values(a: &[Value], b: &[Value]) -> Ordering {
        for (x, y) in a.iter().zip(b) {
            match x.total_cmp(y) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        a.len().cmp(&b.len())
    }

    #[test]
    fn numeric_ordering_preserved() {
        let vals = [
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-1e30),
            Value::Float(-1.5),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(1e-300),
            Value::Float(2.5),
            Value::Float(f64::INFINITY),
        ];
        for w in vals.windows(2) {
            let a = encode_key(&[w[0].clone()]);
            let b = encode_key(&[w[1].clone()]);
            assert!(a <= b, "{} !<= {}", w[0], w[1]);
        }
    }

    #[test]
    fn integer_ordering_preserved_beyond_f64_precision() {
        let a = Value::BigInt(i64::MAX - 1);
        let b = Value::BigInt(i64::MAX);
        assert_eq!(cmp_via_bytes(&[a], &[b]), Ordering::Less);
        let a = Value::BigInt(i64::MIN);
        let b = Value::BigInt(i64::MIN + 1);
        assert_eq!(cmp_via_bytes(&[a], &[b]), Ordering::Less);
    }

    #[test]
    fn null_sorts_first() {
        assert_eq!(
            cmp_via_bytes(&[Value::Null], &[Value::Float(f64::NEG_INFINITY)]),
            Ordering::Less
        );
    }

    #[test]
    fn text_prefix_sorts_before_extension() {
        assert_eq!(
            cmp_via_bytes(&[Value::Text("abc".into())], &[Value::Text("abcd".into())]),
            Ordering::Less
        );
    }

    #[test]
    fn composite_keys_compare_lexicographically() {
        let a = vec![Value::Int(5), Value::Float(10.0)];
        let b = vec![Value::Int(5), Value::Float(10.5)];
        let c = vec![Value::Int(6), Value::Float(0.0)];
        assert_eq!(cmp_via_bytes(&a, &b), Ordering::Less);
        assert_eq!(cmp_via_bytes(&b, &c), Ordering::Less);
    }

    #[test]
    fn decode_roundtrip_normalized() {
        let key = vec![
            Value::Int(42),
            Value::Float(-273.15),
            Value::Text("zone".into()),
            Value::Null,
        ];
        let decoded = decode_key(&encode_key(&key)).unwrap();
        assert_eq!(decoded[0], Value::BigInt(42));
        assert_eq!(decoded[1], Value::Float(-273.15));
        assert_eq!(decoded[2], Value::Text("zone".into()));
        assert!(decoded[3].is_null());
    }

    #[test]
    fn text_holding_nul_is_no_key() {
        let ok = [Value::Text("zone".into()), Value::Text(String::new()), Value::Null];
        let mut key = Vec::new();
        encode_fields(&ok, &mut key).unwrap();
        assert_eq!(key, encode_key(&ok));
        let nul = [Value::Int(1), Value::Text("a\0b".into())];
        assert!(matches!(encode_fields(&nul, &mut key), Err(DbError::SchemaMismatch(_))));
    }

    #[test]
    fn corrupt_keys_error() {
        assert!(decode_key(&[TAG_INT, 1, 2]).is_err());
        assert!(decode_key(&[TAG_TEXT, b'a', b'b']).is_err());
        assert!(decode_key(&[0x77]).is_err());
    }

    #[test]
    fn bytes_order_matches_value_order_within_each_type_family() {
        // Key columns are homogeneous per schema, so byte order only has to
        // agree with value order inside each type family (plus NULL, which
        // sorts first against everything).
        let families: [&[Value]; 3] = [
            &[Value::Null, Value::BigInt(i64::MIN), Value::Int(-3), Value::Int(0), Value::BigInt(2), Value::BigInt(i64::MAX)],
            &[Value::Null, Value::Float(-2.5), Value::Real(0.0), Value::Real(1.5), Value::Float(1e9)],
            &[Value::Null, Value::Text("a".into()), Value::Text("ab".into()), Value::Text("b".into())],
        ];
        for family in families {
            for a in family {
                for b in family {
                    let ka = [a.clone()];
                    let kb = [b.clone()];
                    assert_eq!(
                        cmp_via_bytes(&ka, &kb),
                        cmp_via_values(&ka, &kb),
                        "mismatch for {a} vs {b}"
                    );
                }
            }
        }
    }
}
