//! Offline stand-in for `serde` + `serde_json`.
//!
//! The build environment has no crates.io access, so this shim provides a real —
//! if deliberately small — serialisation framework with the surface the workspace
//! needs: the [`Serialize`]/[`Deserialize`] trait names that every IR, cost-model
//! and engine type already derives, a self-describing [`Value`] tree mirroring the
//! JSON data model, and a [`json`] module with `to_string` / `to_string_pretty` /
//! `from_str`, so that programs, requests and selections can cross a process
//! boundary (files, pipes, sockets) as JSON.
//!
//! Differences from the real `serde` are intentional and contained:
//!
//! * serialisation goes through the [`Value`] tree instead of a streaming
//!   `Serializer` visitor; responses are small next to the work that produces
//!   them;
//! * deserialisation has two paths with one result: [`json::from_str`] reads JSON
//!   text straight into the target type through [`Deserialize::read`] (no tree,
//!   strings borrowed from the input while they are looked at), and
//!   [`Deserialize::from_value`] decodes a [`Value`] tree. The tree decode is the
//!   reference: it defines every accepted input and every error message (see
//!   [`json`]);
//! * enums follow serde's *externally tagged* convention (`"Variant"`,
//!   `{"Variant": …}`), so the wire format matches what the real `serde_json`
//!   would produce for the same derives;
//! * generic types cannot be derived (checked at expansion time); every derived
//!   type in this workspace is concrete;
//! * the derives accept only the `#[serde(..)]` items they implement (see
//!   `serde_shim_derive`) and reject every other one at compile time:
//!
//! ```
//! #[derive(serde::Serialize, serde::Deserialize)]
//! struct Knob {
//!     #[serde(default, skip_serializing_if = "Option::is_none")]
//!     budget: Option<u32>,
//! }
//! assert_eq!(serde::json::to_string(&Knob { budget: None }), "{}");
//! ```
//!
//! ```compile_fail
//! #[derive(serde::Serialize, serde::Deserialize)]
//! struct Knob {
//!     #[serde(default, skip_serialising_if = "Option::is_none")]
//!     budget: Option<u32>,
//! }
//! ```
//!
//! Swapping this shim for the real `serde`/`serde_json` requires touching only the
//! call sites of [`json`], not the derives.

#![forbid(unsafe_code)]

pub use serde_shim_derive::{Deserialize, Serialize};

pub mod json;

use std::collections::BTreeMap;
use std::fmt;

/// A self-describing serialised value, mirroring the JSON data model.
///
/// Integers keep their sign information ([`Value::Int`] vs [`Value::Uint`]) so that
/// the full `u64` range (e.g. basic-block execution counts) round-trips exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON `true`/`false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer outside (or not known to be inside) the `i64` range.
    Uint(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An ordered map. Insertion order is preserved so that serialising the same
    /// data twice yields byte-identical text.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this value is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array elements, if this value is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this value is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up a key, if this value is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|entries| entries.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
    }

    /// Short human-readable description of the value's kind, used in error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Int(_) | Value::Uint(_) => "an integer",
            Value::Float(_) => "a number",
            Value::Str(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }
}

/// Serialisation/deserialisation error: a message describing what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error from a message.
    #[must_use]
    pub fn custom(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }

    /// Error for an enum tag that matches no variant.
    #[must_use]
    pub fn unknown_variant(tag: &str, enum_name: &str) -> Self {
        Error::custom(format!("unknown variant `{tag}` for enum `{enum_name}`"))
    }

    /// Error for a value of the wrong kind.
    #[must_use]
    pub fn invalid_type(expected: &str, found: &Value) -> Self {
        Error::custom(format!("expected {expected}, found {}", found.kind()))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

/// A type that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Serialises `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// A type that can be reconstructed from a [`Value`] tree, or read straight from
/// JSON text.
///
/// The lifetime parameter exists for signature compatibility with the real `serde`
/// (the derive emits `impl<'de> Deserialize<'de>`); this shim always produces owned
/// values.
pub trait Deserialize<'de>: Sized {
    /// Reconstructs a value of this type from a value tree: the reference decode.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] describing the first mismatch between the tree and the
    /// expected shape.
    fn from_value(value: &Value) -> Result<Self, Error>;

    /// Reads the next value of `reader` into this type without building a tree.
    ///
    /// An implementation must return `Ok` only with the value [`from_value`] gives
    /// for the tree of the same text; it may fail where `from_value` succeeds (the
    /// caller then decodes through the tree), and its error messages are never
    /// shown. The default builds the value's tree and calls `from_value`.
    ///
    /// [`from_value`]: Self::from_value
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] on a syntax error or a shape mismatch.
    fn read(reader: &mut json::Reader<'_>) -> Result<Self, Error> {
        Self::from_value(&reader.value()?)
    }
}

/// Convenience alias bound: deserialisable from any lifetime (all shim types are).
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

// ---------------------------------------------------------------------------
// Helpers used by the generated derive code.
// ---------------------------------------------------------------------------

/// Builds the externally-tagged representation of an enum variant.
#[must_use]
pub fn variant_value(tag: &str, inner: Value) -> Value {
    Value::Object(vec![(tag.to_string(), inner)])
}

/// Expects `value` to be an object; `ty` names the target type for error messages.
///
/// # Errors
///
/// Returns an [`Error`] when the value is not an object.
pub fn expect_object<'v>(value: &'v Value, ty: &str) -> Result<&'v [(String, Value)], Error> {
    value.as_object().ok_or_else(|| {
        Error::custom(format!(
            "expected an object for `{ty}`, found {}",
            value.kind()
        ))
    })
}

/// Expects `value` to be an array of exactly `len` elements.
///
/// # Errors
///
/// Returns an [`Error`] when the value is not an array or has the wrong length.
pub fn expect_array<'v>(value: &'v Value, ty: &str, len: usize) -> Result<&'v [Value], Error> {
    let items = value.as_array().ok_or_else(|| {
        Error::custom(format!(
            "expected an array for `{ty}`, found {}",
            value.kind()
        ))
    })?;
    if items.len() != len {
        return Err(Error::custom(format!(
            "expected {len} elements for `{ty}`, found {}",
            items.len()
        )));
    }
    Ok(items)
}

/// Looks up and deserialises a named field of an object that may be missing.
///
/// # Errors
///
/// Returns an [`Error`] when the field is present and its value does not
/// deserialise as `T`.
pub fn optional_field<T: DeserializeOwned>(
    fields: &[(String, Value)],
    key: &str,
    ty: &str,
) -> Result<Option<T>, Error> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, value)| {
            T::from_value(value).map_err(|e| Error::custom(format!("field `{key}` of `{ty}`: {e}")))
        })
        .transpose()
}

/// Unwraps a field that a decode found, or reports it missing.
///
/// # Errors
///
/// Returns an [`Error`] naming the field when `field` is `None`.
pub fn required<T>(field: Option<T>, key: &str, ty: &str) -> Result<T, Error> {
    field.ok_or_else(|| Error::custom(format!("missing field `{key}` for `{ty}`")))
}

// ---------------------------------------------------------------------------
// Implementations for primitives and common std containers.
// ---------------------------------------------------------------------------

/// `from_value` and `read` of a scalar, both `#[inline]` so that typed reads in
/// other crates compile them in: a number or literal read as a [`Value`]
/// allocates nothing, and the per-field calls would otherwise dominate decoding.
macro_rules! scalar_decode {
    (|$value:ident| $body:expr) => {
        #[inline]
        fn from_value($value: &Value) -> Result<Self, Error> {
            $body
        }

        #[inline]
        fn read(reader: &mut json::Reader<'_>) -> Result<Self, Error> {
            Self::from_value(&reader.value()?)
        }
    };
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(i64::from(*self))
            }
        }
        impl<'de> Deserialize<'de> for $t {
            scalar_decode!(|value| {
                let wide: i64 = i64::from_value(value)?;
                <$t>::try_from(wide)
                    .map_err(|_| Error::custom(format!("{wide} out of range for {}", stringify!($t))))
            });
        }
    )*};
}

impl_signed!(i8, i16, i32);

impl Serialize for i64 {
    fn to_value(&self) -> Value {
        Value::Int(*self)
    }
}

impl<'de> Deserialize<'de> for i64 {
    scalar_decode!(|value| match value {
        Value::Int(v) => Ok(*v),
        Value::Uint(v) => {
            i64::try_from(*v).map_err(|_| Error::custom(format!("{v} out of range for i64")))
        }
        Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => Ok(*f as i64),
        other => Err(Error::invalid_type("an integer", other)),
    });
}

impl Serialize for isize {
    fn to_value(&self) -> Value {
        Value::Int(*self as i64)
    }
}

impl<'de> Deserialize<'de> for isize {
    scalar_decode!(|value| {
        let wide = i64::from_value(value)?;
        isize::try_from(wide).map_err(|_| Error::custom(format!("{wide} out of range for isize")))
    });
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Uint(u64::from(*self))
            }
        }
        impl<'de> Deserialize<'de> for $t {
            scalar_decode!(|value| {
                let wide: u64 = u64::from_value(value)?;
                <$t>::try_from(wide)
                    .map_err(|_| Error::custom(format!("{wide} out of range for {}", stringify!($t))))
            });
        }
    )*};
}

impl_unsigned!(u8, u16, u32);

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        Value::Uint(*self)
    }
}

impl<'de> Deserialize<'de> for u64 {
    scalar_decode!(|value| match value {
        Value::Uint(v) => Ok(*v),
        Value::Int(v) => {
            u64::try_from(*v).map_err(|_| Error::custom(format!("{v} out of range for u64")))
        }
        // Mirror the i64 path's 2^53 bound: floats above it cannot represent
        // every integer exactly, and `as u64` would silently saturate.
        Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 && *f < 9.0e15 => Ok(*f as u64),
        other => Err(Error::invalid_type("an unsigned integer", other)),
    });
}

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::Uint(*self as u64)
    }
}

impl<'de> Deserialize<'de> for usize {
    scalar_decode!(|value| {
        let wide = u64::from_value(value)?;
        usize::try_from(wide).map_err(|_| Error::custom(format!("{wide} out of range for usize")))
    });
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        if self.is_finite() {
            Value::Float(*self)
        } else if self.is_nan() {
            Value::Str("NaN".to_string())
        } else if *self > 0.0 {
            Value::Str("Infinity".to_string())
        } else {
            Value::Str("-Infinity".to_string())
        }
    }
}

impl<'de> Deserialize<'de> for f64 {
    scalar_decode!(|value| match value {
        Value::Float(f) => Ok(*f),
        Value::Int(v) => Ok(*v as f64),
        Value::Uint(v) => Ok(*v as f64),
        Value::Str(s) if s == "NaN" => Ok(f64::NAN),
        Value::Str(s) if s == "Infinity" => Ok(f64::INFINITY),
        Value::Str(s) if s == "-Infinity" => Ok(f64::NEG_INFINITY),
        other => Err(Error::invalid_type("a number", other)),
    });
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        f64::from(*self).to_value()
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(f64::from_value(value)? as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    scalar_decode!(|value| match value {
        Value::Bool(b) => Ok(*b),
        other => Err(Error::invalid_type("a boolean", other)),
    });
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::invalid_type("a string", other)),
        }
    }

    #[inline]
    fn read(reader: &mut json::Reader<'_>) -> Result<Self, Error> {
        Ok(reader.string()?.into_owned())
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
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }

    fn read(reader: &mut json::Reader<'_>) -> Result<Self, Error> {
        if reader.peek() == Some(b'n') {
            reader.skip().map(|()| None)
        } else {
            T::read(reader).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::invalid_type("an array", other)),
        }
    }

    fn read(reader: &mut json::Reader<'_>) -> Result<Self, Error> {
        let mut items = Vec::new();
        reader.array(|reader| {
            items.push(T::read(reader)?);
            Ok(())
        })?;
        Ok(items)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: DeserializeOwned, const N: usize> Deserialize<'de> for [T; N] {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items = expect_array(value, "array", N)?;
        let mut out = Vec::with_capacity(N);
        for item in items {
            out.push(T::from_value(item)?);
        }
        out.try_into()
            .map_err(|_| Error::custom("array length mismatch"))
    }

    fn read(reader: &mut json::Reader<'_>) -> Result<Self, Error> {
        Vec::<T>::read(reader)?
            .try_into()
            .map_err(|_| Error::custom("array length mismatch"))
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<'de, V: DeserializeOwned> Deserialize<'de> for BTreeMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Object(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(Error::invalid_type("an object", other)),
        }
    }

    /// Every entry is decoded and a repeated key keeps its last value, as
    /// collecting the tree's entries into the map does.
    fn read(reader: &mut json::Reader<'_>) -> Result<Self, Error> {
        let mut map = BTreeMap::new();
        reader.object(|reader, key| {
            map.insert(key.into_owned(), V::read(reader)?);
            Ok(())
        })?;
        Ok(map)
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<'de> Deserialize<'de> for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }

    fn read(reader: &mut json::Reader<'_>) -> Result<Self, Error> {
        reader.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_round_trip_across_signedness() {
        assert_eq!(u64::from_value(&Value::Int(7)), Ok(7));
        assert_eq!(i64::from_value(&Value::Uint(7)), Ok(7));
        assert!(u64::from_value(&Value::Int(-1)).is_err());
        assert!(u8::from_value(&Value::Uint(300)).is_err());
    }

    #[test]
    fn non_finite_floats_serialise_as_strings() {
        assert_eq!(f64::NAN.to_value(), Value::Str("NaN".to_string()));
        assert_eq!(f64::INFINITY.to_value(), Value::Str("Infinity".to_string()));
        let back = f64::from_value(&Value::Str("-Infinity".to_string())).unwrap();
        assert!(back.is_infinite() && back < 0.0);
    }

    #[test]
    fn option_maps_null() {
        assert_eq!(Option::<u32>::from_value(&Value::Null), Ok(None));
        assert_eq!(None::<u32>.to_value(), Value::Null);
        assert_eq!(Some(3u32).to_value(), Value::Uint(3));
    }

    /// `read` agrees with `from_value` on the cases where a container's rule is not
    /// simply "first occurrence wins".
    #[test]
    fn container_reads_match_the_tree_decode() {
        fn both<T: DeserializeOwned + PartialEq + fmt::Debug>(text: &str) {
            let tree = json::parse(text).and_then(|value| T::from_value(&value));
            let mut reader = json::Reader::new(text);
            let read = T::read(&mut reader).and_then(|value| reader.finish().map(|()| value));
            assert_eq!(read.ok(), tree.ok(), "{text}");
        }
        both::<BTreeMap<String, u32>>(r#"{"b":1,"a":2,"b":3}"#);
        both::<BTreeMap<String, u32>>(r#"{"b":"x","b":3}"#);
        both::<Option<Vec<u8>>>("null");
        both::<Option<Vec<u8>>>("[1,2]");
        both::<[u8; 2]>("[1,2]");
        both::<[u8; 2]>("[1,2,3]");
        both::<String>(r#""a\u00e9""#);
        both::<f64>(r#""Infinity""#);
    }

    #[test]
    fn object_lookup_helpers() {
        let v = Value::Object(vec![("a".to_string(), Value::Int(1))]);
        assert_eq!(v.get("a"), Some(&Value::Int(1)));
        assert_eq!(v.get("b"), None);
        let fields = v.as_object().unwrap();
        assert_eq!(optional_field::<i64>(fields, "a", "T"), Ok(Some(1)));
        assert_eq!(optional_field::<i64>(fields, "b", "T"), Ok(None));
        assert!(optional_field::<bool>(fields, "a", "T").is_err());
    }
}
