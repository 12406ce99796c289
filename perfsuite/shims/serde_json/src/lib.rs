//! Offline stand-in for the subset of `serde_json` this repository uses.
//! The tree, parser and writers live in the `serde` stand-in (which is
//! JSON-only); this crate gives them their usual names.

pub use serde::json::{Error, Map, Number, Value};

pub type Result<T> = std::result::Result<T, Error>;

/// Compact JSON text of `value`.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::with_capacity(128);
    value.serialize_json(&mut out);
    Ok(out)
}

/// Two-space indented JSON text of `value`.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    serde::json::write_pretty(&to_value(&value)?, 0, &mut out);
    Ok(out)
}

/// The JSON tree of `value`.
pub fn to_value<T: serde::Serialize>(value: T) -> Result<Value> {
    serde::json::parse(&to_string(&value)?)
}

pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T> {
    T::deserialize_json(&serde::json::parse(text)?)
}

/// Build a [`Value`] from JSON-like syntax. Keys are string literals (or
/// one parenthesized expression); values are `null`, nested `[..]` /
/// `{..}`, or any serializable expression.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($items:tt)* ]) => { $crate::Value::Array($crate::__json_array!([] $($items)*)) };
    ({ $($entries:tt)* }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $crate::__json_object!(map $($entries)*);
        $crate::Value::Object(map)
    }};
    ($value:expr) => { $crate::to_value(&$value).expect("json! value serializes") };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_array {
    ([$($done:expr,)*]) => { ::std::vec![$($done,)*] };
    ([$($done:expr,)*] null $(, $($rest:tt)*)?) => {
        $crate::__json_array!([$($done,)* $crate::Value::Null,] $($($rest)*)?)
    };
    ([$($done:expr,)*] [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $crate::__json_array!([$($done,)* $crate::json!([$($inner)*]),] $($($rest)*)?)
    };
    ([$($done:expr,)*] {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $crate::__json_array!([$($done,)* $crate::json!({$($inner)*}),] $($($rest)*)?)
    };
    ([$($done:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::__json_array!([$($done,)* $crate::json!($next),] $($rest)*)
    };
    ([$($done:expr,)*] $last:expr) => {
        $crate::__json_array!([$($done,)* $crate::json!($last),])
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_object {
    ($map:ident) => {};
    ($map:ident $key:tt : null $(, $($rest:tt)*)?) => {
        $map.insert(($key).into(), $crate::Value::Null);
        $crate::__json_object!($map $($($rest)*)?);
    };
    ($map:ident $key:tt : [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $map.insert(($key).into(), $crate::json!([$($inner)*]));
        $crate::__json_object!($map $($($rest)*)?);
    };
    ($map:ident $key:tt : {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $map.insert(($key).into(), $crate::json!({$($inner)*}));
        $crate::__json_object!($map $($($rest)*)?);
    };
    ($map:ident $key:tt : $value:expr, $($rest:tt)*) => {
        $map.insert(($key).into(), $crate::json!($value));
        $crate::__json_object!($map $($rest)*);
    };
    ($map:ident $key:tt : $value:expr) => {
        $map.insert(($key).into(), $crate::json!($value));
    };
}
