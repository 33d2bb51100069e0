//! Hermetic shim of the `serde` API subset this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors minimal, behavior-compatible implementations of its external
//! dependencies under `crates/shims/`.  This crate provides:
//!
//! * [`Serialize`] — a single-method trait producing a JSON [`Value`]
//!   tree (the only serialization format the workspace emits);
//! * [`Deserialize`] — the inverse conversion, failing with a structured
//!   [`Error`] that says which field failed and how;
//! * `#[derive(Serialize)]` / `#[derive(Deserialize)]` re-exported from
//!   the companion `serde_derive` proc-macro crate, covering named-field
//!   structs and unit-variant enums.
//!
//! # Derive attributes
//!
//! Structs take these `#[serde(...)]` attributes, with upstream serde's
//! meaning:
//!
//! * container: `deny_unknown_fields`, `default` (missing fields come
//!   from the struct's `Default`), `expecting = "..."` (what the error
//!   for a non-object calls the struct);
//! * field: `rename = "key"`, `default` / `default = "path"`,
//!   `skip_serializing_if = "path"` and `deserialize_with = "path"`.
//!
//! Any other `serde` attribute, and any `serde` attribute on an enum, is
//! a compile error rather than being ignored:
//!
//! ```compile_fail
//! #[derive(serde::Deserialize)]
//! struct S {
//!     #[serde(flatten)]
//!     x: u32,
//! }
//! ```
//!
//! A derived `Deserialize` visits the object's keys in input order and
//! moves each value into its field, so the first bad value or (with
//! `deny_unknown_fields`) unknown key in the input is the one reported.
//! A key that is absent decodes as `null`: `Option` fields read it as
//! `None`, other fields without a default report it as missing.
//!
//! The JSON [`Value`] tree lives here (not in `serde_json`) so both
//! crates can share it without a dependency cycle; `serde_json`
//! re-exports it as `serde_json::Value`.

pub use serde_derive::{Deserialize, Serialize};

/// Shared JSON value tree, re-exported by `serde_json` as its `Value`,
/// and the helpers derived impls call.
pub mod __private {
    /// A JSON number: integers keep their exact representation, as in
    /// upstream `serde_json`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum Number {
        /// Signed integer (only produced for negative values).
        I64(i64),
        /// Unsigned integer.
        U64(u64),
        /// Floating point.
        F64(f64),
    }

    impl Number {
        /// Lossy conversion to `f64`.
        pub fn as_f64(&self) -> f64 {
            match *self {
                Number::I64(v) => v as f64,
                Number::U64(v) => v as f64,
                Number::F64(v) => v,
            }
        }
    }

    /// A JSON document. Object keys keep insertion order, matching the
    /// field order of derived structs (upstream serde_json with
    /// `preserve_order` — and deterministic output either way).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number.
        Number(Number),
        /// A string.
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object (insertion-ordered).
        Object(Vec<(String, Value)>),
    }

    // The accessor/indexing surface lives here (with the type) because
    // coherence forbids `serde_json` adding inherent impls; `serde_json`
    // re-exports `Value`, so callers see the upstream API.
    impl Value {
        /// Object field lookup (`None` for non-objects / missing keys).
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// Array element lookup.
        pub fn get_index(&self, i: usize) -> Option<&Value> {
            match self {
                Value::Array(a) => a.get(i),
                _ => None,
            }
        }

        /// As `f64` if this is any number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(n.as_f64()),
                _ => None,
            }
        }

        /// As `i64` if this is an integer that fits.
        pub fn as_i64(&self) -> Option<i64> {
            match self {
                Value::Number(Number::I64(v)) => Some(*v),
                Value::Number(Number::U64(v)) => i64::try_from(*v).ok(),
                _ => None,
            }
        }

        /// As `u64` if this is a non-negative integer.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Number(Number::U64(v)) => Some(*v),
                Value::Number(Number::I64(v)) => u64::try_from(*v).ok(),
                _ => None,
            }
        }

        /// As string slice.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        /// As bool.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// As array slice.
        pub fn as_array(&self) -> Option<&Vec<Value>> {
            match self {
                Value::Array(a) => Some(a),
                _ => None,
            }
        }

        /// Whether this is `null`.
        pub fn is_null(&self) -> bool {
            matches!(self, Value::Null)
        }
    }

    impl std::ops::Index<&str> for Value {
        type Output = Value;
        fn index(&self, key: &str) -> &Value {
            static NULL: Value = Value::Null;
            self.get(key).unwrap_or(&NULL)
        }
    }

    impl std::ops::Index<usize> for Value {
        type Output = Value;
        fn index(&self, i: usize) -> &Value {
            static NULL: Value = Value::Null;
            self.get_index(i).unwrap_or(&NULL)
        }
    }

    use super::{Deserialize, Error, ErrorKind, Expected};

    /// The fields of an object, or the error for a non-object; `what`
    /// names the struct (or its `expecting` text).
    pub fn object(v: Value, what: &'static str) -> Result<Vec<(String, Value)>, Error> {
        match v {
            Value::Object(fields) => Ok(fields),
            other => Err(Error::invalid(Expected::Object(what), other)),
        }
    }

    /// Decode the value of field `key` of struct `ty`.
    pub fn field<T: Deserialize>(
        v: Value,
        ty: &'static str,
        key: &'static str,
    ) -> Result<T, Error> {
        T::from_json_value(v).map_err(|e| e.within(ty, key))
    }

    /// Decode an absent field as `null`: `Option` reads it as `None`,
    /// any type that rejects `null` reports the field missing.
    pub fn missing<T: Deserialize>(ty: &'static str, key: &'static str) -> Result<T, Error> {
        T::from_json_value(Value::Null).map_err(|e| {
            let kind = match e.kind {
                ErrorKind::Invalid(expected, Value::Null) => ErrorKind::Missing(expected),
                kind => kind,
            };
            Error { kind, ..e }.within(ty, key)
        })
    }
}

use __private::{Number, Value};
use std::sync::Arc;

/// Types that can be turned into a JSON [`Value`].
///
/// Upstream serde abstracts over serializer back-ends; this workspace
/// only ever serializes to JSON, so the shim collapses the trait to the
/// one conversion actually exercised.
pub trait Serialize {
    /// Convert `self` to a JSON value tree.
    fn to_json_value(&self) -> Value;
}

/// Types that can be rebuilt from a JSON [`Value`].
///
/// Upstream serde abstracts over deserializer back-ends; this workspace
/// only ever parses JSON, so the shim collapses the trait to the one
/// conversion actually exercised.
pub trait Deserialize: Sized {
    /// Build `Self` from a parsed JSON value.
    fn from_json_value(v: Value) -> Result<Self, Error>;
}

/// What a decoder expected where it found something else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// An unsigned integer type, by name (`u32`, `usize`, ...).
    Unsigned(&'static str),
    /// A signed integer type, by name.
    Signed(&'static str),
    /// A float type, by name.
    Float(&'static str),
    /// `true` or `false`.
    Bool,
    /// A string.
    String,
    /// A one-character string.
    Char,
    /// An array.
    Array,
    /// An object with arbitrary keys (a map).
    Map,
    /// A derived struct, by name or by its `expecting` text.
    Object(&'static str),
    /// A unit-variant name of the named enum.
    Variant(&'static str),
    /// Anything else, in words.
    Other(&'static str),
}

impl Expected {
    /// The expectation in words, with its article: `a number`,
    /// `a non-negative integer`, `an array`, ...
    pub fn describe(&self) -> String {
        match self {
            Expected::Unsigned(_) => "a non-negative integer".to_string(),
            Expected::Signed(_) => "an integer".to_string(),
            Expected::Float(_) => "a number".to_string(),
            Expected::Bool => "a boolean".to_string(),
            Expected::String => "a string".to_string(),
            Expected::Char => "a single-character string".to_string(),
            Expected::Array => "an array".to_string(),
            Expected::Map => "an object".to_string(),
            Expected::Variant(name) => format!("a {name} variant name"),
            Expected::Object(what) | Expected::Other(what) => what.to_string(),
        }
    }
}

/// The compact spelling: the type name for numbers, `object for X` for
/// structs, `string for X` for enums.
impl std::fmt::Display for Expected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expected::Unsigned(ty) | Expected::Signed(ty) | Expected::Float(ty) => f.write_str(ty),
            Expected::Bool => f.write_str("bool"),
            Expected::String => f.write_str("string"),
            Expected::Char => f.write_str("single-char string"),
            Expected::Array => f.write_str("array"),
            Expected::Map => f.write_str("object"),
            Expected::Object(what) => write!(f, "object for {what}"),
            Expected::Variant(name) => write!(f, "string for {name}"),
            Expected::Other(what) => f.write_str(what),
        }
    }
}

/// How a value failed to decode.
#[derive(Debug, Clone)]
pub enum ErrorKind {
    /// An object key the struct has no field for (`deny_unknown_fields`).
    UnknownField(String),
    /// A required key was absent.
    Missing(Expected),
    /// A value of the wrong JSON type, or out of the target type's range.
    Invalid(Expected, Value),
    /// Any other failure, described by the impl that raised it.  A typed
    /// error raised here comes back out through [`Error::downcast_ref`].
    Custom(Arc<dyn std::error::Error + Send + Sync>),
}

impl PartialEq for ErrorKind {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ErrorKind::UnknownField(a), ErrorKind::UnknownField(b)) => a == b,
            (ErrorKind::Missing(a), ErrorKind::Missing(b)) => a == b,
            (ErrorKind::Invalid(a, x), ErrorKind::Invalid(b, y)) => a == b && x == y,
            (ErrorKind::Custom(a), ErrorKind::Custom(b)) => a.to_string() == b.to_string(),
            _ => false,
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorKind::UnknownField(key) => write!(f, "unknown field `{key}`"),
            ErrorKind::Missing(expected) => write!(f, "expected {expected}, got Null"),
            ErrorKind::Invalid(expected, found) => write!(f, "expected {expected}, got {found:?}"),
            ErrorKind::Custom(e) => write!(f, "{e}"),
        }
    }
}

/// Why a value could not be decoded: which field, and how.
///
/// `Display` prefixes the kind with each enclosing field as
/// `Struct.key: `, e.g. `ClusterSpec.machine: MachineSpec.n_procs:
/// expected u32, got String("x")`.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    /// The struct fields leading to the fault, outermost first, as
    /// `(struct name, wire key)` pairs.
    pub path: Vec<(&'static str, &'static str)>,
    /// What went wrong there.
    pub kind: ErrorKind,
}

impl Error {
    /// A value of the wrong type or range.
    pub fn invalid(expected: Expected, found: Value) -> Self {
        Error {
            path: Vec::new(),
            kind: ErrorKind::Invalid(expected, found),
        }
    }

    /// An object key no field matches.
    pub fn unknown_field(key: String) -> Self {
        Error {
            path: Vec::new(),
            kind: ErrorKind::UnknownField(key),
        }
    }

    /// Any other failure: a message, or a typed error to pass through.
    pub fn custom(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> Self {
        Error {
            path: Vec::new(),
            kind: ErrorKind::Custom(Arc::from(e.into())),
        }
    }

    /// The same fault, seen from the struct `ty` whose field `key` holds it.
    pub fn within(mut self, ty: &'static str, key: &'static str) -> Self {
        self.path.insert(0, (ty, key));
        self
    }

    /// The innermost field holding the fault, as `(struct, key)`.
    pub fn field(&self) -> Option<(&'static str, &'static str)> {
        self.path.last().copied()
    }

    /// The typed error a hand-written impl raised through [`Error::custom`].
    pub fn downcast_ref<E: std::error::Error + 'static>(&self) -> Option<&E> {
        match &self.kind {
            ErrorKind::Custom(e) => e.downcast_ref(),
            _ => None,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (ty, key) in &self.path {
            write!(f, "{ty}.{key}: ")?;
        }
        write!(f, "{}", self.kind)
    }
}

impl std::error::Error for Error {}

impl Serialize for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_json_value(v: Value) -> Result<Self, Error> {
        Ok(v)
    }
}

macro_rules! impl_ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::Number(Number::U64(*self as u64))
            }
        }
    )*};
}
macro_rules! impl_ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                let v = *self as i64;
                if v < 0 {
                    Value::Number(Number::I64(v))
                } else {
                    Value::Number(Number::U64(v as u64))
                }
            }
        }
    )*};
}
impl_ser_uint!(u8, u16, u32, u64, usize);
impl_ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_json_value(&self) -> Value {
        Value::Number(Number::F64(*self))
    }
}
impl Serialize for f32 {
    fn to_json_value(&self) -> Value {
        Value::Number(Number::F64(*self as f64))
    }
}
impl Serialize for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Serialize for String {
    fn to_json_value(&self) -> Value {
        Value::String(self.clone())
    }
}
impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::String(self.to_string())
    }
}
impl Serialize for char {
    fn to_json_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}
impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}
impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(v) => v.to_json_value(),
            None => Value::Null,
        }
    }
}
impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}
impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}
impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

macro_rules! impl_ser_tuple {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_json_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_json_value()),+])
            }
        }
    )+};
}
impl_ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

impl<K: AsRef<str>, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_json_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.as_ref().to_string(), v.to_json_value()))
                .collect(),
        )
    }
}

macro_rules! impl_de_uint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_json_value(v: Value) -> Result<Self, Error> {
                v.as_u64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| Error::invalid(Expected::Unsigned(stringify!($t)), v))
            }
        }
    )*};
}
macro_rules! impl_de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_json_value(v: Value) -> Result<Self, Error> {
                v.as_i64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| Error::invalid(Expected::Signed(stringify!($t)), v))
            }
        }
    )*};
}
impl_de_uint!(u8, u16, u32, u64, usize);
impl_de_int!(i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn from_json_value(v: Value) -> Result<Self, Error> {
        v.as_f64()
            .ok_or_else(|| Error::invalid(Expected::Float("f64"), v))
    }
}
impl Deserialize for f32 {
    fn from_json_value(v: Value) -> Result<Self, Error> {
        v.as_f64()
            .map(|f| f as f32)
            .ok_or_else(|| Error::invalid(Expected::Float("f32"), v))
    }
}
impl Deserialize for bool {
    fn from_json_value(v: Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::invalid(Expected::Bool, v))
    }
}
impl Deserialize for String {
    fn from_json_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s),
            other => Err(Error::invalid(Expected::String, other)),
        }
    }
}
impl Deserialize for char {
    fn from_json_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::String(ref s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(Error::invalid(Expected::Char, other)),
        }
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn from_json_value(v: Value) -> Result<Self, Error> {
        T::from_json_value(v).map(Box::new)
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json_value(other).map(Some),
        }
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.into_iter().map(T::from_json_value).collect(),
            other => Err(Error::invalid(Expected::Array, other)),
        }
    }
}
impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_json_value(v: Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_json_value(v)?;
        let got = items.len();
        items
            .try_into()
            .map_err(|_| Error::custom(format!("expected array of length {N}, got length {got}")))
    }
}

macro_rules! impl_de_tuple {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_json_value(v: Value) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = stringify!($t); 1 })+;
                match v {
                    Value::Array(items) if items.len() == LEN => {
                        let mut it = items.into_iter();
                        Ok(($(
                            $t::from_json_value(it.next().expect("length checked"))
                                .map_err(|e| Error::custom(format!("tuple element {}: {e}", $n)))?,
                        )+))
                    }
                    other => Err(Error::custom(format!(
                        "expected array of length {LEN}, got {other:?}"
                    ))),
                }
            }
        }
    )+};
}
impl_de_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_json_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::Object(fields) => fields
                .into_iter()
                .map(|(k, v)| V::from_json_value(v).map(|v| (k, v)))
                .collect(),
            other => Err(Error::invalid(Expected::Map, other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_map_to_expected_variants() {
        assert_eq!(5u32.to_json_value(), Value::Number(Number::U64(5)));
        assert_eq!((-3i64).to_json_value(), Value::Number(Number::I64(-3)));
        assert_eq!(2i64.to_json_value(), Value::Number(Number::U64(2)));
        assert_eq!(true.to_json_value(), Value::Bool(true));
        assert_eq!("x".to_json_value(), Value::String("x".into()));
        assert_eq!(Option::<u8>::None.to_json_value(), Value::Null);
    }

    #[test]
    fn compound_shapes() {
        let v = vec![(1u64, "a".to_string())].to_json_value();
        assert_eq!(
            v,
            Value::Array(vec![Value::Array(vec![
                Value::Number(Number::U64(1)),
                Value::String("a".into())
            ])])
        );
        let arr = [1.0f64, 2.0].to_json_value();
        assert!(matches!(arr, Value::Array(ref a) if a.len() == 2));
    }

    #[test]
    fn primitives_deserialize_back() {
        let round = |v: Value| v;
        assert_eq!(u32::from_json_value(round(5u32.to_json_value())), Ok(5));
        assert_eq!(i64::from_json_value(round((-3i64).to_json_value())), Ok(-3));
        assert_eq!(f64::from_json_value(round(1.5f64.to_json_value())), Ok(1.5));
        // Integer-typed JSON numbers satisfy f64 fields.
        assert_eq!(f64::from_json_value(Value::Number(Number::U64(7))), Ok(7.0));
        assert_eq!(bool::from_json_value(Value::Bool(true)), Ok(true));
        assert_eq!(
            String::from_json_value(Value::String("x".into())),
            Ok("x".to_string())
        );
        // Range and shape violations are errors, not truncations.
        assert!(u8::from_json_value(Value::Number(Number::U64(300))).is_err());
        assert!(u64::from_json_value(Value::Number(Number::I64(-1))).is_err());
        assert!(bool::from_json_value(Value::Null).is_err());
    }

    #[test]
    fn containers_deserialize_back() {
        assert_eq!(
            Option::<u64>::from_json_value(Value::Null),
            Ok(None),
            "null is None"
        );
        assert_eq!(
            Option::<u64>::from_json_value(Value::Number(Number::U64(4))),
            Ok(Some(4))
        );
        let v = vec![1u64, 2, 3].to_json_value();
        assert_eq!(Vec::<u64>::from_json_value(v), Ok(vec![1, 2, 3]));
        let t = (1u64, "a".to_string()).to_json_value();
        assert_eq!(
            <(u64, String)>::from_json_value(t),
            Ok((1, "a".to_string()))
        );
        let a = [1u64, 2].to_json_value();
        assert_eq!(<[u64; 2]>::from_json_value(a.clone()), Ok([1, 2]));
        assert!(<[u64; 3]>::from_json_value(a).is_err());
        let mut m = std::collections::BTreeMap::new();
        m.insert("k".to_string(), 9u64);
        assert_eq!(
            std::collections::BTreeMap::<String, u64>::from_json_value(m.to_json_value()),
            Ok(m)
        );
    }
}
