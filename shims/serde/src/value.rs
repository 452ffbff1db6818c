//! The JSON-shaped value tree shared by the `serde` and `serde_json` shims.

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; see [`Number`].
    Number(Number),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Map),
}

/// A JSON number, kept in its narrowest faithful representation so integers
/// round-trip without a float detour.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// A negative (or any signed) integer.
    I64(i64),
    /// A non-negative integer too large for `i64`, or any unsigned source.
    U64(u64),
    /// A float.
    F64(f64),
}

impl Number {
    /// Numeric value as `f64` (lossy for 64-bit integers beyond 2^53).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::I64(v) => v as f64,
            Number::U64(v) => v as f64,
            Number::F64(v) => v,
        }
    }

    /// Value as `i64` when exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::I64(v) => Some(v),
            Number::U64(v) => i64::try_from(v).ok(),
            Number::F64(v) if v.fract() == 0.0 && v >= i64::MIN as f64 && v <= i64::MAX as f64 => {
                Some(v as i64)
            }
            Number::F64(_) => None,
        }
    }

    /// Value as `u64` when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::I64(v) => u64::try_from(v).ok(),
            Number::U64(v) => Some(v),
            Number::F64(v) if v.fract() == 0.0 && v >= 0.0 && v <= u64::MAX as f64 => {
                Some(v as u64)
            }
            Number::F64(_) => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        // Numeric equality across representations, so `1` == `1.0`.
        match (self.as_i64(), other.as_i64()) {
            (Some(a), Some(b)) => return a == b,
            (None, None) => {}
            _ => {
                // One side integral, other not; fall through to f64 compare,
                // which is exact for every value this workspace produces.
            }
        }
        self.as_f64() == other.as_f64()
    }
}

/// An insertion-ordered string-keyed map.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// A map of `entries` whose keys the caller knows to be distinct (the
    /// keys of a `BTreeMap`, say), skipping [`Map::insert`]'s scan of every
    /// earlier key — which makes building an `n`-key map quadratic.
    pub fn from_distinct(entries: Vec<(String, Value)>) -> Self {
        Self { entries }
    }

    /// Inserts a key, replacing any existing entry with the same key.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Looks a key up.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Entries in insertion order.
    pub fn entries(&self) -> &[(String, Value)] {
        &self.entries
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut m = Map::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

static NULL: Value = Value::Null;

impl Value {
    /// Borrow as `&str` when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Integer value when this is an exactly-integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// Unsigned value when this is an exactly-integral, non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// Boolean value when this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow as an array when this is one.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as an object when this is one.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Mutably borrow as an object when this is one.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Short name of the value's JSON type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// `value["key"]`, yielding `Null` for missing keys or non-objects, like
    /// `serde_json`.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    /// `value[i]`, yielding `Null` out of bounds or for non-arrays.
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_insertion_order_and_replaces() {
        let mut m = Map::new();
        m.insert("b".into(), Value::Bool(true));
        m.insert("a".into(), Value::Null);
        m.insert("b".into(), Value::Bool(false));
        let keys: Vec<_> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["b", "a"]);
        assert_eq!(m.get("b"), Some(&Value::Bool(false)));
    }

    #[test]
    fn cross_representation_number_equality() {
        assert_eq!(
            Value::Number(Number::I64(3)),
            Value::Number(Number::F64(3.0))
        );
        assert_eq!(Value::Number(Number::U64(7)), Value::Number(Number::I64(7)));
        assert_ne!(
            Value::Number(Number::F64(3.5)),
            Value::Number(Number::I64(3))
        );
    }

    #[test]
    fn indexing_missing_yields_null() {
        let mut m = Map::new();
        m.insert("x".into(), Value::Number(Number::I64(1)));
        let v = Value::Object(m);
        assert_eq!(v["x"].as_i64(), Some(1));
        assert!(v["missing"].is_null());
        assert!(v["x"]["deeper"].is_null());
    }
}
