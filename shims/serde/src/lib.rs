//! Offline stand-in for `serde`, implementing the subset this workspace uses.
//!
//! The build environment has no crates.io access, so instead of the real
//! serde's zero-copy visitor architecture, this shim routes everything
//! through a self-describing [`Value`] tree: `Serialize` renders a value
//! into the tree, `Deserialize` reads one back out. `serde_json` (also
//! shimmed) converts between [`Value`] and JSON text using the same data
//! layout conventions as real serde (structs as maps, unit enum variants as
//! strings, data-carrying variants as single-key maps, newtype structs as
//! their payload), so serialized artifacts remain standard JSON.
//!
//! Supported via `#[derive(Serialize, Deserialize)]` (see `serde_derive`):
//! structs with named fields, tuple structs, enums with unit / tuple /
//! struct variants, and the `#[serde(skip)]` field attribute (skipped on
//! write, `Default::default()` on read).

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Self-describing serialized value (the shim's data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Negative integers.
    Int(i64),
    /// Non-negative integers (kept separate so `u64` round-trips exactly).
    UInt(u64),
    Float(f64),
    Str(String),
    Seq(Vec<Value>),
    /// Insertion-ordered map (JSON object).
    Map(Vec<(String, Value)>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }

    /// Look up a key in a map value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone)]
pub struct DeError {
    pub msg: String,
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for DeError {}

/// Build a [`DeError`].
pub fn de_error(msg: impl Into<String>) -> DeError {
    DeError { msg: msg.into() }
}

/// Render `self` into the shim data model.
pub trait Serialize {
    fn ser(&self) -> Value;
}

/// Rebuild `Self` from the shim data model.
pub trait Deserialize: Sized {
    fn de(v: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------------
// Derive support helpers
// ---------------------------------------------------------------------------

/// Deserialize a named struct field from a map value. A missing key is
/// surfaced to `T` as `Null` (so `Option` fields tolerate absence).
pub fn de_field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
    match v {
        Value::Map(_) => match v.get(name) {
            Some(field) => T::de(field).map_err(|e| de_error(format!("field `{name}`: {}", e.msg))),
            None => T::de(&Value::Null).map_err(|_| de_error(format!("missing field `{name}`"))),
        },
        other => Err(de_error(format!(
            "expected map for struct, got {}",
            other.type_name()
        ))),
    }
}

/// Deserialize a `#[serde(default)]` struct field: a missing key yields
/// `Default::default()` instead of an error.
pub fn de_field_or_default<T: Deserialize + Default>(v: &Value, name: &str) -> Result<T, DeError> {
    match v {
        Value::Map(_) => match v.get(name) {
            Some(field) => T::de(field).map_err(|e| de_error(format!("field `{name}`: {}", e.msg))),
            None => Ok(T::default()),
        },
        other => Err(de_error(format!(
            "expected map for struct, got {}",
            other.type_name()
        ))),
    }
}

/// Deserialize element `i` of a sequence value (tuple structs/variants).
pub fn de_elem<T: Deserialize>(v: &Value, i: usize) -> Result<T, DeError> {
    match v {
        Value::Seq(items) => match items.get(i) {
            Some(item) => T::de(item),
            None => Err(de_error(format!("missing tuple element {i}"))),
        },
        other => Err(de_error(format!(
            "expected sequence, got {}",
            other.type_name()
        ))),
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! ser_de_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn ser(&self) -> Value { Value::UInt(*self as u64) }
        }
        impl Deserialize for $t {
            fn de(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::UInt(u) => <$t>::try_from(*u)
                        .map_err(|_| de_error("integer out of range")),
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| de_error("integer out of range")),
                    Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 => Ok(*f as $t),
                    other => Err(de_error(format!(
                        "expected unsigned integer, got {}", other.type_name()
                    ))),
                }
            }
        }
    )*};
}
ser_de_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_de_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn ser(&self) -> Value {
                let x = *self as i64;
                if x < 0 { Value::Int(x) } else { Value::UInt(x as u64) }
            }
        }
        impl Deserialize for $t {
            fn de(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| de_error("integer out of range")),
                    Value::UInt(u) => <$t>::try_from(*u)
                        .map_err(|_| de_error("integer out of range")),
                    Value::Float(f) if f.fract() == 0.0 => Ok(*f as $t),
                    other => Err(de_error(format!(
                        "expected integer, got {}", other.type_name()
                    ))),
                }
            }
        }
    )*};
}
ser_de_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn ser(&self) -> Value {
        Value::Float(*self)
    }
}

/// Written as the shortest decimal that reads back as this `f32`, as real
/// serde_json does, not as the up to 17 digits of its `f64` widening.
/// Reading parses an `f64` and narrows it; for the rare value where that
/// double rounding lands on a neighbour, the exact widening is written.
impl Serialize for f32 {
    fn ser(&self) -> Value {
        let short: f64 = self.to_string().parse().expect("a formatted f32 parses");
        let exact = (short as f32).to_bits() == self.to_bits();
        Value::Float(if exact { short } else { *self as f64 })
    }
}

macro_rules! ser_de_float {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn de(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    // Real serde_json writes non-finite floats as null.
                    Value::Null => Ok(<$t>::NAN),
                    other => Err(de_error(format!(
                        "expected float, got {}", other.type_name()
                    ))),
                }
            }
        }
    )*};
}
ser_de_float!(f32, f64);

impl Serialize for bool {
    fn ser(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(de_error(format!(
                "expected bool, got {}",
                other.type_name()
            ))),
        }
    }
}

impl Serialize for String {
    fn ser(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(de_error(format!(
                "expected string, got {}",
                other.type_name()
            ))),
        }
    }
}

impl Serialize for str {
    fn ser(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for &'static str {
    /// Real serde borrows from the input; this shim's `Value` tree is
    /// transient, so the string is leaked instead. Only reachable for types
    /// that embed `&'static str` (compiled-in tables that are serialized for
    /// reporting but never read back in practice).
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            other => Err(de_error(format!(
                "expected string, got {}",
                other.type_name()
            ))),
        }
    }
}

impl Serialize for char {
    fn ser(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(de_error(format!(
                "expected char, got {}",
                other.type_name()
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Container impls
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn ser(&self) -> Value {
        (**self).ser()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn ser(&self) -> Value {
        (**self).ser()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn de(v: &Value) -> Result<Self, DeError> {
        T::de(v).map(Box::new)
    }
}

/// Transparent, like real serde's `rc` feature: the pointee is written in
/// place, and every deserialized `Arc` is a fresh, unshared allocation.
impl<T: Serialize> Serialize for Arc<T> {
    fn ser(&self) -> Value {
        (**self).ser()
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn de(v: &Value) -> Result<Self, DeError> {
        T::de(v).map(Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn ser(&self) -> Value {
        match self {
            Some(x) => x.ser(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::de(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn ser(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::ser).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) => items.iter().map(T::de).collect(),
            other => Err(de_error(format!(
                "expected sequence, got {}",
                other.type_name()
            ))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn ser(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::ser).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn ser(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::ser).collect())
    }
}

impl<T: Deserialize + Default + Copy, const N: usize> Deserialize for [T; N] {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) if items.len() == N => {
                let mut out = [T::default(); N];
                for (slot, item) in out.iter_mut().zip(items) {
                    *slot = T::de(item)?;
                }
                Ok(out)
            }
            other => Err(de_error(format!(
                "expected sequence of {N}, got {}",
                other.type_name()
            ))),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn ser(&self) -> Value {
        Value::Seq(vec![self.0.ser(), self.1.ser()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn de(v: &Value) -> Result<Self, DeError> {
        Ok((de_elem(v, 0)?, de_elem(v, 1)?))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn ser(&self) -> Value {
        Value::Seq(vec![self.0.ser(), self.1.ser(), self.2.ser()])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn de(v: &Value) -> Result<Self, DeError> {
        Ok((de_elem(v, 0)?, de_elem(v, 1)?, de_elem(v, 2)?))
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn ser(&self) -> Value {
        Value::Map(self.iter().map(|(k, v)| (k.clone(), v.ser())).collect())
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, val)| Ok((k.clone(), V::de(val)?)))
                .collect(),
            Value::Null => Ok(BTreeMap::new()),
            other => Err(de_error(format!("expected map, got {}", other.type_name()))),
        }
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn ser(&self) -> Value {
        // Sort for deterministic output.
        let mut entries: Vec<(String, Value)> =
            self.iter().map(|(k, v)| (k.clone(), v.ser())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, val)| Ok((k.clone(), V::de(val)?)))
                .collect(),
            Value::Null => Ok(HashMap::new()),
            other => Err(de_error(format!("expected map, got {}", other.type_name()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u64::de(&42u64.ser()).unwrap(), 42);
        assert_eq!(i64::de(&(-7i64).ser()).unwrap(), -7);
        assert_eq!(f32::de(&1.5f32.ser()).unwrap(), 1.5);
        assert!(bool::de(&true.ser()).unwrap());
        assert_eq!(String::de(&"hi".to_string().ser()).unwrap(), "hi");
    }

    #[test]
    fn f32_writes_its_shortest_digits_and_reads_back_exactly() {
        assert_eq!(0.1f32.ser(), Value::Float(0.1));
        // Shortest digits "7.038531e-26" read through `f64` would narrow to
        // a neighbour, so this one keeps its exact widening.
        let double_rounded = f32::from_bits(0x15ae_43fd);
        assert_eq!(double_rounded.ser(), Value::Float(double_rounded as f64));
        for x in [
            0.1f32,
            -0.0,
            1.0e-45,
            f32::MAX,
            0.012_345_679,
            double_rounded,
        ] {
            assert_eq!(f32::de(&x.ser()).unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![1usize, 2, 3];
        assert_eq!(Vec::<usize>::de(&v.ser()).unwrap(), v);
        let o: Option<u32> = None;
        assert_eq!(Option::<u32>::de(&o.ser()).unwrap(), None);
        let t = (3u32, "x".to_string());
        assert_eq!(<(u32, String)>::de(&t.ser()).unwrap(), t);
        let a = [1usize, 2, 3];
        assert_eq!(<[usize; 3]>::de(&a.ser()).unwrap(), a);
        let shared = Arc::new(vec![4u32, 5]);
        assert_eq!(shared.ser(), vec![4u32, 5].ser(), "an Arc is transparent");
        assert_eq!(Arc::<Vec<u32>>::de(&shared.ser()).unwrap(), shared);
    }

    #[test]
    fn missing_field_is_null_for_option() {
        let m = Value::Map(vec![]);
        let x: Option<u32> = de_field(&m, "absent").unwrap();
        assert_eq!(x, None);
        assert!(de_field::<u32>(&m, "absent").is_err());
    }
}
