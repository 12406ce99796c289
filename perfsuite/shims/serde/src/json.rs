//! The JSON tree, its parser and its writers; `serde_json` re-exports them.

use crate::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A JSON number: an integer when the text was one, a float otherwise.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

impl Number {
    pub fn as_f64(&self) -> Option<f64> {
        Some(match *self {
            Number::PosInt(v) => v as f64,
            Number::NegInt(v) => v as f64,
            Number::Float(v) => v,
        })
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(v) => Some(v),
            Number::NegInt(v) => u64::try_from(v).ok(),
            Number::Float(_) => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(v) => i64::try_from(v).ok(),
            Number::NegInt(v) => Some(v),
            Number::Float(_) => None,
        }
    }

    pub(crate) fn as_i128(&self) -> Option<i128> {
        match *self {
            Number::PosInt(v) => Some(v.into()),
            Number::NegInt(v) => Some(v.into()),
            Number::Float(_) => None,
        }
    }

    /// `None` for a non-finite float, which JSON cannot carry.
    pub fn from_f64(v: f64) -> Option<Number> {
        v.is_finite().then_some(Number::Float(v))
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Number) -> bool {
        match (self.as_i128(), other.as_i128()) {
            (Some(a), Some(b)) => a == b,
            (None, None) => self.as_f64() == other.as_f64(),
            _ => false,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::new();
        self.serialize_json(&mut text);
        f.write_str(&text)
    }
}

impl Serialize for Number {
    fn serialize_json(&self, out: &mut String) {
        match *self {
            Number::PosInt(v) => v.serialize_json(out),
            Number::NegInt(v) => v.serialize_json(out),
            Number::Float(v) => v.serialize_json(out),
        }
    }
}

/// A JSON object with its keys in sorted order (serde_json's default).
#[derive(Debug, Clone, PartialEq)]
pub struct Map<K, V>(BTreeMap<K, V>);

impl Map<String, Value> {
    pub fn new() -> Self {
        Map(BTreeMap::new())
    }

    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        self.0.insert(key, value)
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.0.get_mut(key)
    }

    pub fn contains_key(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn iter(&self) -> std::collections::btree_map::Iter<'_, String, Value> {
        self.0.iter()
    }

    pub fn keys(&self) -> std::collections::btree_map::Keys<'_, String, Value> {
        self.0.keys()
    }

    pub fn entry(&mut self, key: impl Into<String>) -> std::collections::btree_map::Entry<'_, String, Value> {
        self.0.entry(key.into())
    }
}

impl Default for Map<String, Value> {
    fn default() -> Self {
        Map::new()
    }
}

impl<'a> IntoIterator for &'a Map<String, Value> {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::collections::btree_map::Iter<'a, String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl Serialize for Map<String, Value> {
    fn serialize_json(&self, out: &mut String) {
        crate::serialize_map(&self.0, out);
    }
}

impl Deserialize for Map<String, Value> {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        value.as_object().cloned().ok_or_else(|| Error::invalid(value, "an object"))
    }
}

/// Any JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn get<I: ValueIndex>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }
}

/// `&str` / `String` index objects, `usize` indexes arrays.
pub trait ValueIndex {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value>;
    fn index_or_insert<'v>(&self, value: &'v mut Value) -> &'v mut Value;
}

impl ValueIndex for str {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        value.as_object().and_then(|o| o.get(self))
    }

    fn index_or_insert<'v>(&self, value: &'v mut Value) -> &'v mut Value {
        if value.is_null() {
            *value = Value::Object(Map::new());
        }
        match value {
            Value::Object(map) => map.entry(self).or_insert(Value::Null),
            other => panic!("cannot access key {self:?} in JSON {other}"),
        }
    }
}

impl ValueIndex for String {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(value)
    }

    fn index_or_insert<'v>(&self, value: &'v mut Value) -> &'v mut Value {
        self.as_str().index_or_insert(value)
    }
}

impl ValueIndex for usize {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        value.as_array().and_then(|a| a.get(*self))
    }

    fn index_or_insert<'v>(&self, value: &'v mut Value) -> &'v mut Value {
        match value {
            Value::Array(items) => &mut items[*self],
            other => panic!("cannot access index {self} of JSON {other}"),
        }
    }
}

impl<T: ValueIndex + ?Sized> ValueIndex for &T {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        (**self).index_into(value)
    }

    fn index_or_insert<'v>(&self, value: &'v mut Value) -> &'v mut Value {
        (**self).index_or_insert(value)
    }
}

impl<I: ValueIndex> std::ops::Index<I> for Value {
    type Output = Value;

    /// A missing key or index reads as `Null`, as in serde_json.
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl<I: ValueIndex> std::ops::IndexMut<I> for Value {
    fn index_mut(&mut self, index: I) -> &mut Value {
        index.index_or_insert(self)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                #[allow(unused_comparisons)]
                if v < 0 {
                    Value::Number(Number::NegInt(v as i64))
                } else {
                    Value::Number(Number::PosInt(v as u64))
                }
            }
        }
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                *self == Value::from(*other)
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}
from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Number::from_f64(v).map_or(Value::Null, Value::Number)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::from(f64::from(v))
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_owned())
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl From<Map<String, Value>> for Value {
    fn from(v: Map<String, Value>) -> Value {
        Value::Object(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl Serialize for Value {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.serialize_json(out),
            Value::Number(n) => n.serialize_json(out),
            Value::String(s) => write_str(s, out),
            Value::Array(items) => crate::serialize_seq(items, out),
            Value::Object(map) => map.serialize_json(out),
        }
    }
}

impl Deserialize for Value {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }

    fn missing_field(_field: &str) -> Result<Self, Error> {
        Ok(Value::Null)
    }
}

/// Compact JSON, or with `{:#}` the pretty form.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::new();
        if f.alternate() {
            write_pretty(self, 0, &mut text);
        } else {
            self.serialize_json(&mut text);
        }
        f.write_str(&text)
    }
}

/// A parse or shape error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    pub fn new(message: String) -> Error {
        Error(message)
    }

    pub fn invalid(found: &Value, expected: &str) -> Error {
        let kind = match found {
            Value::Null => "null".to_owned(),
            Value::Bool(b) => format!("boolean `{b}`"),
            Value::Number(n) => format!("number `{n}`"),
            Value::String(s) => format!("string {s:?}"),
            Value::Array(_) => "an array".to_owned(),
            Value::Object(_) => "an object".to_owned(),
        };
        Error(format!("invalid type: {kind}, expected {expected}"))
    }

    /// The same error, located at `field`.
    pub fn at(self, field: &str) -> Error {
        Error(format!("{field}: {}", self.0))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Write `s` as a JSON string literal.
pub fn write_str(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    let bytes = s.as_bytes();
    let mut clean_from = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &str = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean_from..i]);
        if escape.is_empty() {
            out.push_str(&format!("\\u{b:04x}"));
        } else {
            out.push_str(escape);
        }
        clean_from = i + 1;
    }
    out.push_str(&s[clean_from..]);
    out.push('"');
}

/// Two-space indented JSON, as `serde_json::to_string_pretty` writes it.
pub fn write_pretty(value: &Value, depth: usize, out: &mut String) {
    let indent = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                indent(out, depth + 1);
                write_pretty(item, depth + 1, out);
            }
            indent(out, depth);
            out.push(']');
        }
        Value::Object(map) if !map.is_empty() => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                indent(out, depth + 1);
                write_str(key, out);
                out.push_str(": ");
                write_pretty(item, depth + 1, out);
            }
            indent(out, depth);
            out.push('}');
        }
        scalar_or_empty => scalar_or_empty.serialize_json(out),
    }
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> Error {
        let upto = &self.bytes[..self.pos.min(self.bytes.len())];
        let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
        let column = 1 + upto.iter().rev().take_while(|&&b| b != b'\n').count();
        Error(format!("{what} at line {line} column {column}"))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(self.error("EOF while parsing a value")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected value")),
        }
    }

    fn nested(&mut self, body: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        self.depth += 1;
        if self.depth > 128 {
            return Err(self.error("recursion limit exceeded"));
        }
        let value = body(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                Some(_) => return Err(self.error("expected `,` or `]`")),
                None => return Err(self.error("EOF while parsing a list")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("key must be a string"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.error("expected `:`"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                Some(_) => return Err(self.error("expected `,` or `}`")),
                None => return Err(self.error("EOF while parsing an object")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos - from
        };
        let int_digits = digits(self);
        if int_digits == 0 || (int_digits > 1 && self.bytes[self.pos - int_digits] == b'0') {
            return Err(self.error("invalid number"));
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            if digits(self) == 0 {
                return Err(self.error("invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if digits(self) == 0 {
                return Err(self.error("invalid number"));
            }
        }
        let text = &self.text[start..self.pos];
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Number(Number::PosInt(v)));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Number(Number::NegInt(v)));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Value::Number(Number::Float(v))),
            _ => Err(self.error("number out of range")),
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self.text.get(self.pos..self.pos + 4).ok_or_else(|| self.error("EOF in \\u escape"))?;
        let code = u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0x00..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.error("EOF while parsing a string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("EOF while parsing a string"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) && self.eat("\\u") {
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("lone surrogate in string"));
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            out.push(char::from_u32(code).ok_or_else(|| self.error("lone surrogate in string"))?);
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                }
                Some(_) => return Err(self.error("control character in string")),
            }
        }
    }
}
