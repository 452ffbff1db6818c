//! `Serialize`/`Deserialize` implementations for std types.

use crate::value::{Map, Number, Value};
use crate::{Deserialize, Error, Serialize};
use std::collections::{BTreeMap, HashMap};

// ---------------------------------------------------------------- primitives

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool()
            .ok_or_else(|| Error::custom(format!("expected bool, got {}", v.type_name())))
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::I64(*self as i64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_i64()
                    .ok_or_else(|| Error::custom(format!(
                        "expected integer, got {}", v.type_name())))?;
                <$t>::try_from(n).map_err(|_| Error::custom(format!(
                    "integer {n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::U64(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| Error::custom(format!(
                        "expected unsigned integer, got {}", v.type_name())))?;
                <$t>::try_from(n).map_err(|_| Error::custom(format!(
                    "integer {n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

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

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .ok_or_else(|| Error::custom(format!("expected number, got {}", v.type_name())))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        (*self as f64).to_value()
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|x| x as f32)
    }
}

// ------------------------------------------------------------------- strings

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::custom(format!("expected string, got {}", v.type_name())))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for char {
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

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
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

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_value(v).map(Some)
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

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_value(v)?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| Error::custom(format!("expected array of length {N}, got {n}")))
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom(format!("expected array, got {}", v.type_name())))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

macro_rules! impl_tuple {
    ($len:literal, $(($t:ident, $idx:tt)),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let a = v.as_array().ok_or_else(|| Error::custom(format!(
                    "expected array, got {}", v.type_name())))?;
                if a.len() != $len {
                    return Err(Error::custom(format!(
                        "expected tuple of length {}, got {}", $len, a.len())));
                }
                Ok(($($t::from_value(&a[$idx])?,)+))
            }
        }
    };
}

impl_tuple!(1, (A, 0));
impl_tuple!(2, (A, 0), (B, 1));
impl_tuple!(3, (A, 0), (B, 1), (C, 2));
impl_tuple!(4, (A, 0), (B, 1), (C, 2), (D, 3));

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort for deterministic output; HashMap iteration order is random.
        let mut keys: Vec<_> = self.keys().collect();
        keys.sort();
        Value::Object(
            keys.into_iter()
                .map(|k| (k.clone(), self[k].to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::custom(format!("expected object, got {}", v.type_name())))?;
        obj.iter()
            .map(|(k, x)| Ok((k.clone(), V::from_value(x)?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        let entries = self.iter().map(|(k, v)| (k.clone(), v.to_value()));
        Value::Object(Map::from_distinct(entries.collect()))
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::custom(format!("expected object, got {}", v.type_name())))?;
        obj.iter()
            .map(|(k, x)| Ok((k.clone(), V::from_value(x)?)))
            .collect()
    }
}

// Value serializes to itself so heterogeneous trees can be embedded in
// derived structs and `json!` expressions.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
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

    #[test]
    fn option_round_trip() {
        let some: Option<u32> = Some(5);
        let none: Option<u32> = None;
        assert_eq!(Option::<u32>::from_value(&some.to_value()).unwrap(), some);
        assert_eq!(Option::<u32>::from_value(&none.to_value()).unwrap(), none);
    }

    #[test]
    fn vec_of_tuples_round_trip() {
        let xs: Vec<(usize, f64)> = vec![(1, 0.5), (2, 1.5)];
        let back = Vec::<(usize, f64)>::from_value(&xs.to_value()).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn out_of_range_integer_errors() {
        let v = Value::Number(Number::I64(300));
        assert!(u8::from_value(&v).is_err());
        let neg = Value::Number(Number::I64(-1));
        assert!(usize::from_value(&neg).is_err());
    }
}
