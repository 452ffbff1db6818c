//! Offline stand-in for `serde_json` (see `shims/README.md`).
//!
//! Text layer over the `serde` shim's [`Value`] tree: a recursive-descent
//! parser, compact and pretty printers, and the [`json!`] literal macro in
//! the simplified form this workspace uses (object/array literals whose
//! values are plain Rust expressions).

mod parse;
mod print;

pub use serde::value::{Map, Number, Value};

/// Error for malformed JSON text or a tree/type mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.message())
    }
}

/// Serializes a value to compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(print::compact(&value.to_value()))
}

/// Serializes a value to human-readable, 2-space-indented JSON text.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(print::pretty(&value.to_value()))
}

/// Serializes a value to compact JSON bytes.
pub fn to_vec<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Renders any serializable value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Parses JSON text into a typed value.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let tree = parse::parse(s)?;
    Ok(T::from_value(&tree)?)
}

/// Parses JSON bytes (UTF-8) into a typed value.
pub fn from_slice<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

/// Rebuilds a typed value from a [`Value`] tree.
pub fn from_value<T: serde::Deserialize>(v: Value) -> Result<T, Error> {
    Ok(T::from_value(&v)?)
}

/// Builds a [`Value`] from a JSON-shaped literal.
///
/// Supported forms: `null`, `true`, `false`, `[expr, ...]`,
/// `{ "key": expr, ... }` and any serializable Rust expression. Unlike
/// upstream serde_json, object/array *literals nested inside value
/// expressions* are not supported — bind them to a variable first.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$elem) ),* ])
    };
    ({ $($key:tt : $val:expr),* $(,)? }) => {{
        let mut m = $crate::Map::new();
        $( m.insert(::std::string::String::from($key), $crate::to_value(&$val)); )*
        $crate::Value::Object(m)
    }};
    ($other:expr) => { $crate::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_compact() {
        let v: Value =
            from_str(r#"{"a": [1, -2, 3.5], "b": null, "c": "x\ny", "d": true}"#).expect("parses");
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).expect("reparses");
        assert_eq!(v, back);
        assert_eq!(v["a"][1].as_i64(), Some(-2));
        assert_eq!(v["c"].as_str(), Some("x\ny"));
    }

    #[test]
    fn json_macro_shapes() {
        let xs = vec![1u32, 2];
        let v = json!({ "name": "run", "n": 3, "xs": xs, "flag": true });
        assert_eq!(v["name"].as_str(), Some("run"));
        assert_eq!(v["n"].as_u64(), Some(3));
        assert_eq!(v["xs"][1].as_u64(), Some(2));
        assert_eq!(v["flag"].as_bool(), Some(true));
    }

    #[test]
    fn typed_round_trip() {
        let xs: Vec<(usize, f64)> = vec![(4, 0.25)];
        let text = to_string(&xs).unwrap();
        assert_eq!(text, "[[4,0.25]]");
        let back: Vec<(usize, f64)> = from_str(&text).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn pretty_output_is_indented_and_reparses() {
        let b = json!([true, json!(null)]);
        let v = json!({ "a": 1, "b": b });
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains("\n  \"a\": 1"));
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parse_errors_are_errors_not_panics() {
        assert!(from_str::<Value>("{unquoted: 1}").is_err());
        assert!(from_str::<Value>("[1, 2,]").is_err());
        assert!(from_str::<Value>("").is_err());
        assert!(from_str::<u32>("-5").is_err());
    }

    #[test]
    fn unicode_escapes() {
        let v: Value = from_str(r#""éA 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("éA 😀"));
    }
    #[test]
    fn a_large_btreemap_serialises_without_rescanning_and_parsed_duplicates_stay_last_wins() {
        // Length and FNV-1a digest of the text recorded when every key still
        // went through `Map::insert`'s scan of the earlier ones (3.4 s in a
        // release build; a 137 308-series metric snapshot took 28 s).
        let map: std::collections::BTreeMap<String, f64> = (0..50_000u32)
            .map(|i| (format!("series{{src=\"{i}\"}}"), f64::from(i) * 0.5))
            .collect();
        let text = to_string(&map).unwrap();
        let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((text.len(), digest), (1_566_671, 0x9a19_c1c5_021c_5265));
        // The parser's input is untrusted, so it keeps the scan.
        let v: Value = from_str(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap();
        assert_eq!(to_string(&v).unwrap(), r#"{"a":3,"b":2}"#);
    }
}
