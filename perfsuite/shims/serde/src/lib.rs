//! Offline stand-in for the subset of `serde` this repository uses.
//!
//! The real serde is format-agnostic; every use in this repository goes
//! to or from JSON, so this crate is JSON-only: [`Serialize`] writes JSON
//! text straight into a `String` (no intermediate tree, as serde_json
//! does), [`Deserialize`] reads from a parsed [`json::Value`]. The data
//! model follows serde_json's defaults: externally tagged enums, newtype
//! structs as their inner value, tuples as arrays, `None` as `null`, a
//! missing `Option` field as `None`, non-finite floats as `null`.

pub mod json;

use json::{Error, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A value that can write itself as JSON text.
pub trait Serialize {
    fn serialize_json(&self, out: &mut String);
}

/// A value that can be read back from parsed JSON.
pub trait Deserialize: Sized {
    fn deserialize_json(value: &Value) -> Result<Self, Error>;

    /// What a struct field of this type reads as when the key is absent.
    fn missing_field(field: &str) -> Result<Self, Error> {
        Err(Error::new(format!("missing field `{field}`")))
    }
}

// ---- Serialize ----------------------------------------------------------

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
ser_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

macro_rules! ser_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                if !self.is_finite() {
                    out.push_str("null");
                    return;
                }
                let start = out.len();
                let _ = write!(out, "{self}");
                if !out[start..].contains('.') {
                    out.push_str(".0");
                }
            }
        }
    )*};
}
ser_float!(f32, f64);

impl Serialize for bool {
    #[inline]
    fn serialize_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Serialize for str {
    #[inline]
    fn serialize_json(&self, out: &mut String) {
        json::write_str(self, out);
    }
}

impl Serialize for String {
    #[inline]
    fn serialize_json(&self, out: &mut String) {
        json::write_str(self, out);
    }
}

impl Serialize for () {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("null");
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    #[inline]
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    #[inline]
    fn serialize_json(&self, out: &mut String) {
        match self {
            Some(v) => v.serialize_json(out),
            None => out.push_str("null"),
        }
    }
}

/// Write `items` as a JSON array.
pub fn serialize_seq<'a, T: Serialize + 'a>(items: impl IntoIterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    let mut first = true;
    for item in items {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        item.serialize_json(out);
    }
    out.push(']');
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, out: &mut String) {
        serialize_seq(self, out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut String) {
        serialize_seq(self, out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_json(&self, out: &mut String) {
        serialize_seq(self, out);
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize_json(&self, out: &mut String) {
        serialize_seq(self, out);
    }
}

macro_rules! tuples {
    ($(($($name:ident $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize_json(&self, out: &mut String) {
                out.push('[');
                $(
                    if $idx > 0 {
                        out.push(',');
                    }
                    self.$idx.serialize_json(out);
                )+
                out.push(']');
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize_json(value: &Value) -> Result<Self, Error> {
                let items = __private::tuple(Some(value), [$($idx),+].len())?;
                Ok(($($name::deserialize_json(&items[$idx])?,)+))
            }
        }
    )*};
}
tuples! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

/// A map key: JSON object keys are strings, integers are written quoted.
pub trait JsonKey: Sized {
    fn write_key(&self, out: &mut String);
    fn read_key(key: &str) -> Result<Self, Error>;
}

impl JsonKey for String {
    fn write_key(&self, out: &mut String) {
        json::write_str(self, out);
    }
    fn read_key(key: &str) -> Result<Self, Error> {
        Ok(key.to_owned())
    }
}

macro_rules! int_key {
    ($($t:ty),*) => {$(
        impl JsonKey for $t {
            fn write_key(&self, out: &mut String) {
                let _ = write!(out, "\"{self}\"");
            }
            fn read_key(key: &str) -> Result<Self, Error> {
                key.parse().map_err(|_| Error::new(format!("invalid map key `{key}`")))
            }
        }
    )*};
}
int_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Write `entries` as a JSON object.
pub fn serialize_map<'a, K: JsonKey + 'a, V: Serialize + 'a>(
    entries: impl IntoIterator<Item = (&'a K, &'a V)>,
    out: &mut String,
) {
    out.push('{');
    let mut first = true;
    for (k, v) in entries {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        k.write_key(out);
        out.push(':');
        v.serialize_json(out);
    }
    out.push('}');
}

impl<K: JsonKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize_json(&self, out: &mut String) {
        serialize_map(self, out);
    }
}

// ---- Deserialize --------------------------------------------------------

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize_json(value: &Value) -> Result<Self, Error> {
                let wide: Option<i128> = match value {
                    Value::Number(n) => n.as_i128(),
                    _ => None,
                };
                wide.and_then(|w| <$t>::try_from(w).ok())
                    .ok_or_else(|| Error::invalid(value, stringify!($t)))
            }
        }
    )*};
}
de_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        value.as_f64().ok_or_else(|| Error::invalid(value, "f64"))
    }
}

impl Deserialize for f32 {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        value.as_f64().map(|v| v as f32).ok_or_else(|| Error::invalid(value, "f32"))
    }
}

impl Deserialize for bool {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        value.as_bool().ok_or_else(|| Error::invalid(value, "a boolean"))
    }
}

impl Deserialize for String {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        value.as_str().map(str::to_owned).ok_or_else(|| Error::invalid(value, "a string"))
    }
}

impl Deserialize for () {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        if value.is_null() {
            Ok(())
        } else {
            Err(Error::invalid(value, "null"))
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        if value.is_null() {
            Ok(None)
        } else {
            T::deserialize_json(value).map(Some)
        }
    }

    fn missing_field(_field: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

fn elements(value: &Value) -> Result<&[Value], Error> {
    value.as_array().map(Vec::as_slice).ok_or_else(|| Error::invalid(value, "an array"))
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        elements(value)?.iter().map(T::deserialize_json).collect()
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        elements(value)?.iter().map(T::deserialize_json).collect()
    }
}

fn entries<K: JsonKey, V: Deserialize, M: FromIterator<(K, V)>>(value: &Value) -> Result<M, Error> {
    let object = value.as_object().ok_or_else(|| Error::invalid(value, "an object"))?;
    object.iter().map(|(k, v)| Ok((K::read_key(k)?, V::deserialize_json(v)?))).collect()
}

impl<K: JsonKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        entries(value)
    }
}

/// serde's shape: `{"secs": .., "nanos": ..}`.
impl Serialize for std::time::Duration {
    fn serialize_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"secs\":{},\"nanos\":{}}}", self.as_secs(), self.subsec_nanos());
    }
}

impl Deserialize for std::time::Duration {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        let map = __private::object(Some(value))?;
        Ok(std::time::Duration::new(__private::field(map, "secs")?, __private::field(map, "nanos")?))
    }
}

/// Helpers the derive expands to. Not part of the interface.
#[doc(hidden)]
pub mod __private {
    use super::json::{Error, Map, Value};
    use super::Deserialize;

    /// An externally tagged enum: `"Variant"` or `{"Variant": body}`.
    pub fn variant(value: &Value) -> Result<(&str, Option<&Value>), Error> {
        match value {
            Value::String(tag) => Ok((tag, None)),
            Value::Object(map) if map.len() == 1 => {
                let (tag, body) = map.iter().next().expect("one entry");
                Ok((tag, Some(body)))
            }
            other => Err(Error::invalid(other, "an enum: a string or a single-key object")),
        }
    }

    pub fn unit(body: Option<&Value>, tag: &str) -> Result<(), Error> {
        match body {
            None | Some(Value::Null) => Ok(()),
            Some(other) => Err(Error::invalid(other, &format!("unit variant `{tag}`"))),
        }
    }

    pub fn newtype<T: Deserialize>(body: Option<&Value>, tag: &str) -> Result<T, Error> {
        match body {
            Some(body) => T::deserialize_json(body),
            None => Err(Error::new(format!("variant `{tag}` carries a value"))),
        }
    }

    pub fn tuple(body: Option<&Value>, arity: usize) -> Result<&[Value], Error> {
        match body {
            Some(Value::Array(items)) if items.len() == arity => Ok(items),
            Some(other) => Err(Error::invalid(other, &format!("an array of {arity}"))),
            None => Err(Error::new(format!("expected an array of {arity}"))),
        }
    }

    pub fn object(body: Option<&Value>) -> Result<&Map<String, Value>, Error> {
        match body {
            Some(Value::Object(map)) => Ok(map),
            Some(other) => Err(Error::invalid(other, "an object")),
            None => Err(Error::new("expected an object".to_owned())),
        }
    }

    pub fn field<T: Deserialize>(map: &Map<String, Value>, name: &str) -> Result<T, Error> {
        match map.get(name) {
            Some(value) => T::deserialize_json(value).map_err(|e| e.at(name)),
            None => T::missing_field(name),
        }
    }

    pub fn field_or_default<T: Deserialize + Default>(map: &Map<String, Value>, name: &str) -> Result<T, Error> {
        match map.get(name) {
            Some(value) => T::deserialize_json(value).map_err(|e| e.at(name)),
            None => Ok(T::default()),
        }
    }

    pub fn unknown_variant(tag: &str, of: &str) -> Error {
        Error::new(format!("unknown variant `{tag}` of `{of}`"))
    }
}
