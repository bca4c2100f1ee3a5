//! Offline stand-in for `serde`, grown into a real serialization subsystem.
//!
//! This container has no network access to crates.io, so the workspace
//! vendors the serde surface the codebase relies on. Until PR 2 the traits
//! here were markers with blanket impls; they are now *real*: every
//! `#[derive(Serialize, Deserialize)]` in the workspace expands (via the
//! sibling `shims/serde_derive` proc macro) into working conversions through
//! the self-describing [`Value`] data model, and the [`json`] module renders
//! and parses that model as JSON (compact or pretty).
//!
//! # Data model
//!
//! [`Value`] is a small, ordered JSON-like tree. The encoding conventions
//! mirror `serde_json`'s defaults so that swapping in the real crates stays a
//! one-line change in the root manifest:
//!
//! * unit structs → `null`; newtype structs → the inner value;
//! * tuple structs and tuples → arrays;
//! * structs → objects with fields in declaration order;
//! * unit enum variants → `"VariantName"`; data-carrying variants →
//!   externally tagged objects `{"VariantName": ...}`;
//! * `Option` → `null` / the inner value; sequences → arrays;
//! * integers → JSON numbers; non-finite floats → `null`.
//!
//! Object member order is preserved (declaration order on serialize, document
//! order on parse), so serialization is fully deterministic: equal values
//! always produce byte-identical JSON. The experiment sweep harness in
//! `crates/bench` relies on this to diff report files across runs.
//!
//! ```
//! use serde::{json, Deserialize, Serialize};
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! struct Sample {
//!     name: String,
//!     points: Vec<(i64, u64)>,
//!     note: Option<String>,
//! }
//!
//! let sample = Sample {
//!     name: "cell".to_string(),
//!     points: vec![(-1, 2), (3, 4)],
//!     note: None,
//! };
//! let text = json::to_string(&sample);
//! assert_eq!(text, r#"{"name":"cell","points":[[-1,2],[3,4]],"note":null}"#);
//! let back: Sample = json::from_str(&text).unwrap();
//! assert_eq!(back, sample);
//! ```

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

pub mod json;

/// A self-describing serialized value (the shim's data model).
///
/// Maps preserve insertion order, which makes every serialization of a given
/// value deterministic down to the byte.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (also used for `None` and non-finite floats).
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer (negative numbers parse into this variant).
    Int(i64),
    /// An unsigned integer (non-negative numbers parse into this variant).
    UInt(u64),
    /// A finite floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Value>),
    /// An ordered map with string keys (insertion order is preserved).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// A short name for the variant, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "array",
            Value::Map(_) => "object",
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::UInt(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers are widened; `null` maps to NaN so
    /// that non-finite floats round-trip).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The sequence payload, if this is a `Seq`.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// The map payload, if this is a `Map`.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// Looks up a key in a `Map` value (first match wins).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// A serialization or deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }

    /// A "found the wrong shape" error with context.
    pub fn expected(what: &str, found: &Value, context: &str) -> Self {
        Error::new(format!(
            "expected {what} while deserializing {context}, found {}",
            found.kind()
        ))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Conversion into the [`Value`] data model. Mirrors `serde::Serialize`.
pub trait Serialize {
    /// Serializes `self` into a [`Value`] tree.
    fn to_value(&self) -> Value;
}

/// Conversion out of the [`Value`] data model. Mirrors `serde::Deserialize`
/// (the lifetime parameter is kept for signature compatibility with the real
/// crate; this shim always deserializes from an owned tree).
pub trait Deserialize<'de>: Sized {
    /// Reconstructs `Self` from a [`Value`] tree.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

/// Mirrors `serde::de::DeserializeOwned`.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// Mirrors `serde::de` far enough for `DeserializeOwned` bounds.
pub mod de {
    pub use super::{Deserialize, DeserializeOwned};
}

/// Mirrors `serde::ser` for symmetric imports.
pub mod ser {
    pub use super::Serialize;
}

// ---------------------------------------------------------------------------
// Implementations for std types.
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_bool()
            .ok_or_else(|| Error::expected("a bool", value, "bool"))
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let wide = value
                    .as_i64()
                    .ok_or_else(|| Error::expected("an integer", value, stringify!($t)))?;
                <$t>::try_from(wide).map_err(|_| {
                    Error::new(format!(
                        "integer {wide} is out of range for {}",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let wide = value
                    .as_u64()
                    .ok_or_else(|| Error::expected("a non-negative integer", value, stringify!($t)))?;
                <$t>::try_from(wide).map_err(|_| {
                    Error::new(format!(
                        "integer {wide} is out of range for {}",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        if self.is_finite() {
            Value::Float(*self)
        } else {
            Value::Null
        }
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_f64()
            .ok_or_else(|| Error::expected("a number", value, "f64"))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::expected("a string", value, "String"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items = value
            .as_seq()
            .ok_or_else(|| Error::expected("an array", value, "Vec"))?;
        items.iter().map(T::from_value).collect()
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<'de, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| Error::expected("an object", value, "BTreeMap"))?;
        entries
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

macro_rules! impl_tuple {
    ($len:literal => $($name:ident : $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let items = value
                    .as_seq()
                    .ok_or_else(|| Error::expected("an array", value, "tuple"))?;
                if items.len() != $len {
                    return Err(Error::new(format!(
                        "expected an array of length {} for a tuple, found length {}",
                        $len,
                        items.len()
                    )));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    };
}

impl_tuple!(1 => A: 0);
impl_tuple!(2 => A: 0, B: 1);

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<'de> Deserialize<'de> for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

// ---------------------------------------------------------------------------
// Support functions used by the generated derive code.
// ---------------------------------------------------------------------------

/// Looks up and deserializes a struct field (derive support; not public API).
#[doc(hidden)]
pub fn __map_field<T: DeserializeOwned>(
    value: &Value,
    field: &'static str,
    context: &'static str,
) -> Result<T, Error> {
    let entry = value
        .get(field)
        .ok_or_else(|| Error::new(format!("missing field `{field}` in {context}")))?;
    T::from_value(entry).map_err(|e| Error::new(format!("field `{field}` of {context}: {e}")))
}

/// Deserializes the `index`-th element of a tuple struct or tuple variant
/// (derive support; not public API).
#[doc(hidden)]
pub fn __seq_field<T: DeserializeOwned>(
    items: &[Value],
    index: usize,
    context: &'static str,
) -> Result<T, Error> {
    let entry = items
        .get(index)
        .ok_or_else(|| Error::new(format!("missing element {index} in {context}")))?;
    T::from_value(entry).map_err(|e| Error::new(format!("element {index} of {context}: {e}")))
}

/// Extracts the externally-tagged `{variant: payload}` pair of an enum value
/// (derive support; not public API).
#[doc(hidden)]
pub fn __enum_payload<'v>(
    value: &'v Value,
    context: &'static str,
) -> Result<(&'v str, &'v Value), Error> {
    match value.as_map() {
        Some([(tag, payload)]) => Ok((tag.as_str(), payload)),
        _ => Err(Error::expected(
            "a single-key object naming an enum variant",
            value,
            context,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_through_values() {
        assert_eq!(bool::from_value(&true.to_value()), Ok(true));
        assert_eq!(i64::from_value(&(-5i64).to_value()), Ok(-5));
        assert_eq!(u32::from_value(&7u32.to_value()), Ok(7));
        assert_eq!(String::from_value(&"hi".to_value()), Ok("hi".to_string()));
        assert_eq!(f64::from_value(&1.5f64.to_value()), Ok(1.5));
    }

    #[test]
    fn integers_check_their_ranges() {
        assert!(u8::from_value(&Value::UInt(300)).is_err());
        assert!(u64::from_value(&Value::Int(-1)).is_err());
        assert!(i8::from_value(&Value::Int(200)).is_err());
        // Cross-signedness widening works when in range.
        assert_eq!(i64::from_value(&Value::UInt(9)), Ok(9));
        assert_eq!(u64::from_value(&Value::Int(9)), Ok(9));
    }

    #[test]
    fn options_use_null() {
        assert_eq!(None::<u32>.to_value(), Value::Null);
        assert_eq!(Some(3u32).to_value(), Value::UInt(3));
        assert_eq!(Option::<u32>::from_value(&Value::Null), Ok(None));
        assert_eq!(Option::<u32>::from_value(&Value::UInt(3)), Ok(Some(3)));
    }

    #[test]
    fn sequences_and_tuples_are_arrays() {
        let v = vec![(1i64, 2u64), (3, 4)].to_value();
        assert_eq!(
            v,
            Value::Seq(vec![
                Value::Seq(vec![Value::Int(1), Value::UInt(2)]),
                Value::Seq(vec![Value::Int(3), Value::UInt(4)]),
            ])
        );
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(f64::NAN.to_value(), Value::Null);
        assert_eq!(f64::INFINITY.to_value(), Value::Null);
        assert!(f64::from_value(&Value::Null).unwrap().is_nan());
    }

    #[test]
    fn value_accessors_reject_wrong_kinds() {
        let v = Value::Str("s".to_string());
        assert_eq!(v.as_bool(), None);
        assert_eq!(v.as_i64(), None);
        assert_eq!(v.as_seq(), None);
        assert_eq!(v.kind(), "string");
        assert!(Vec::<u32>::from_value(&v).is_err());
    }

    #[test]
    fn map_lookup_finds_first_match() {
        let m = Value::Map(vec![
            ("a".to_string(), Value::UInt(1)),
            ("b".to_string(), Value::UInt(2)),
        ]);
        assert_eq!(m.get("b"), Some(&Value::UInt(2)));
        assert_eq!(m.get("c"), None);
        assert_eq!(__map_field::<u32>(&m, "a", "test"), Ok(1));
        assert!(__map_field::<u32>(&m, "missing", "test").is_err());
    }
}
