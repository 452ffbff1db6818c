//! `Serialize` implementations for std types.

use crate::value::{Map, Number, Value};
use crate::Serialize;
use std::collections::BTreeMap;

// ---------------------------------------------------------------- primitives

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::I64(*self as i64))
            }
        }
    )*};
}

impl_signed!(i32, i64);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::U64(*self as u64))
            }
        }
    )*};
}

impl_unsigned!(u8, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        if self.is_finite() {
            Value::Number(Number::F64(*self))
        } else {
            // JSON has no NaN/Inf; serde_json errors, we degrade to null.
            Value::Null
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        (*self as f64).to_value()
    }
}

// ------------------------------------------------------------------- strings

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

// ---------------------------------------------------------------- containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_tuple {
    ($len:literal, $(($t:ident, $idx:tt)),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
    };
}

impl_tuple!(2, (A, 0), (B, 1));

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        let entries = self.iter().map(|(k, v)| (k.clone(), v.to_value()));
        Value::Object(Map::from_distinct(entries.collect()))
    }
}

// Value serializes to itself so heterogeneous trees can be embedded in
// derived structs and `json!` expressions.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for Map {
    fn to_value(&self) -> Value {
        Value::Object(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A reader recovers a written value from its tree with the named
    // accessors, so a round trip is `to_value` followed by those.

    #[test]
    fn option_round_trip() {
        assert_eq!(Some(5u32).to_value(), Value::Number(Number::U64(5)));
        assert_eq!(Some(5u32).to_value().as_u64(), Some(5));
        assert!(None::<u32>.to_value().is_null());
    }

    #[test]
    fn vec_of_tuples_round_trip() {
        let xs: Vec<(usize, f64)> = vec![(1, 0.5), (2, 1.5)];
        let tree = xs.to_value();
        let back: Vec<(usize, f64)> = tree
            .as_array()
            .expect("an array")
            .iter()
            .map(|p| {
                (
                    p[0].as_u64().expect("an index") as usize,
                    p[1].as_f64().expect("a float"),
                )
            })
            .collect();
        assert_eq!(back, xs);
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(f64::NAN.to_value(), Value::Null);
        assert_eq!(f32::INFINITY.to_value(), Value::Null);
        assert_eq!((-0.5f64).to_value(), Value::Number(Number::F64(-0.5)));
    }
}
