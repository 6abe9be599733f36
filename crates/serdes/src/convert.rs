//! `ToJson` / `FromJson`: the trait pair replacing serde derives.
//!
//! Impls for std types mirror `serde_json`'s defaults exactly —
//! integers as numbers, `Option` as `null`-or-value, tuples and
//! sequences as arrays, integer-keyed maps as objects with decimal
//! string keys — so dumps written by the old serde build parse
//! unchanged.
//!
//! Each trait has two paths. The tree path (`to_json`/`from_json`)
//! goes through a [`Json`] value; the direct path
//! (`write_json`/`read_json`) goes straight between text and the Rust
//! value. The direct methods default to the tree path, and the macros,
//! the std impls here and the workspace's hot hand-written impls
//! override them.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use crate::parse::Reader;
use crate::value::{write_compact, write_escaped, write_i64, write_u64, Json};

/// Conversion into JSON.
pub trait ToJson {
    /// Builds the JSON representation of `self`.
    fn to_json(&self) -> Json;

    /// Appends the compact JSON text of `self` to `out`. An override
    /// must write exactly the bytes of this default, which prints
    /// [`to_json`](Self::to_json).
    fn write_json(&self, out: &mut String) {
        write_compact(&self.to_json(), out);
    }
}

/// Conversion out of JSON.
pub trait FromJson: Sized {
    /// Reconstructs a value, reporting a path-annotated error on shape
    /// mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;

    /// Reads a value straight from the text at the cursor. An override
    /// may refuse (`None`) anything it does not expect, but whatever it
    /// accepts must equal what [`from_json`](Self::from_json) makes of
    /// the same text. The default parses the value into a tree and
    /// converts it, refusing on any error.
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        Self::from_json(&r.value()?).ok()
    }
}

/// A deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong, innermost context first.
    pub message: String,
}

impl JsonError {
    /// An error stating that `what` was expected but `got` was found.
    pub fn expected(what: &str, got: &Json) -> Self {
        JsonError {
            message: format!("expected {what}, got {}", got.kind()),
        }
    }

    /// A free-form error.
    pub fn msg(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
        }
    }

    /// Wraps the error with an outer context (struct field, element
    /// index, map key).
    pub fn in_context(self, ctx: &str) -> Self {
        JsonError {
            message: format!("{ctx}: {}", self.message),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for JsonError {}

impl From<crate::parse::ParseError> for JsonError {
    fn from(e: crate::parse::ParseError) -> Self {
        JsonError {
            message: e.to_string(),
        }
    }
}

/// Reads a struct field from the entries of an object. A missing field
/// deserializes as `null` (so `Option` fields tolerate omission, as
/// serde's `default` would), and any inner error is annotated with the
/// `Type.field` path.
pub fn field<T: FromJson>(obj: &[(String, Json)], key: &str, ty: &str) -> Result<T, JsonError> {
    let v = obj.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    match v {
        Some(v) => T::from_json(v).map_err(|e| e.in_context(&format!("{ty}.{key}"))),
        None => T::from_json(&Json::Null)
            .map_err(|_| JsonError::msg(format!("{ty}: missing field `{key}`"))),
    }
}

// ---- primitives ------------------------------------------------------

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::expected("bool", v))
    }
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        r.bool()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::expected("string", v))
    }
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        r.str().map(String::from)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

macro_rules! impl_json_uint {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
            #[inline]
            fn write_json(&self, out: &mut String) {
                write_u64(*self as u64, out);
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let raw = v
                    .as_u64()
                    .ok_or_else(|| JsonError::expected("unsigned integer", v))?;
                <$ty>::try_from(raw).map_err(|_| {
                    JsonError::msg(format!(
                        "integer {raw} out of range for {}",
                        stringify!($ty)
                    ))
                })
            }
            #[inline]
            fn read_json(r: &mut Reader<'_>) -> Option<Self> {
                <$ty>::try_from(r.u64()?).ok()
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                let v = *self as i64;
                if v >= 0 {
                    Json::U64(v as u64)
                } else {
                    Json::I64(v)
                }
            }
            #[inline]
            fn write_json(&self, out: &mut String) {
                write_i64(*self as i64, out);
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let raw = v
                    .as_i64()
                    .ok_or_else(|| JsonError::expected("integer", v))?;
                <$ty>::try_from(raw).map_err(|_| {
                    JsonError::msg(format!(
                        "integer {raw} out of range for {}",
                        stringify!($ty)
                    ))
                })
            }
            #[inline]
            fn read_json(r: &mut Reader<'_>) -> Option<Self> {
                <$ty>::try_from(r.i64()?).ok()
            }
        }
    )*};
}

impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::expected("number", v))
    }
}

// ---- containers ------------------------------------------------------

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        if r.null() {
            Some(None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

/// Writes the elements of a sequence as a JSON array.
fn write_seq<'a, T: ToJson + 'a>(items: impl IntoIterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = v.as_arr().ok_or_else(|| JsonError::expected("array", v))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.in_context(&format!("[{i}]"))))
            .collect()
    }
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        let mut items = Vec::new();
        r.array(|r| {
            items.push(T::read_json(r)?);
            Some(())
        })?;
        Some(items)
    }
}

impl<T: ToJson> ToJson for VecDeque<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<T: FromJson> FromJson for VecDeque<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Vec::<T>::from_json(v).map(VecDeque::from)
    }
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        Vec::<T>::read_json(r).map(VecDeque::from)
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
    fn write_json(&self, out: &mut String) {
        (*self).write_json(out);
    }
}

/// A shared value is written and read as the value itself.
impl<T: ToJson> ToJson for Rc<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: FromJson> FromJson for Rc<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        T::from_json(v).map(Rc::new)
    }
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        T::read_json(r).map(Rc::new)
    }
}

/// Reads a JSON array of exactly `N` elements, the `i`th with
/// `each(i, ..)`.
fn read_tuple<const N: usize>(
    r: &mut Reader<'_>,
    mut each: impl FnMut(usize, &mut Reader<'_>) -> Option<()>,
) -> Option<()> {
    let mut n = 0;
    r.array(|r| {
        if n == N {
            return None;
        }
        each(n, r)?;
        n += 1;
        Some(())
    })?;
    (n == N).then_some(())
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([a, b]) => Ok((
                A::from_json(a).map_err(|e| e.in_context("[0]"))?,
                B::from_json(b).map_err(|e| e.in_context("[1]"))?,
            )),
            _ => Err(JsonError::expected("2-element array", v)),
        }
    }
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        let (mut a, mut b) = (None, None);
        read_tuple::<2>(r, |i, r| {
            match i {
                0 => a = Some(A::read_json(r)?),
                _ => b = Some(B::read_json(r)?),
            }
            Some(())
        })?;
        Some((a?, b?))
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(',');
        self.2.write_json(out);
        out.push(']');
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([a, b, c]) => Ok((
                A::from_json(a).map_err(|e| e.in_context("[0]"))?,
                B::from_json(b).map_err(|e| e.in_context("[1]"))?,
                C::from_json(c).map_err(|e| e.in_context("[2]"))?,
            )),
            _ => Err(JsonError::expected("3-element array", v)),
        }
    }
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        let (mut a, mut b, mut c) = (None, None, None);
        read_tuple::<3>(r, |i, r| {
            match i {
                0 => a = Some(A::read_json(r)?),
                1 => b = Some(B::read_json(r)?),
                _ => c = Some(C::read_json(r)?),
            }
            Some(())
        })?;
        Some((a?, b?, c?))
    }
}

/// Map keys, which JSON forces to be strings. Integer keys use their
/// decimal representation (serde_json's behavior for integer-keyed
/// maps).
pub trait JsonKey: Ord + Sized {
    /// The key as an object-member name.
    fn to_key(&self) -> String;
    /// Parses an object-member name back into the key.
    fn from_key(s: &str) -> Result<Self, JsonError>;
}

macro_rules! impl_json_key_uint {
    ($($ty:ty),*) => {$(
        impl JsonKey for $ty {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(s: &str) -> Result<Self, JsonError> {
                s.parse().map_err(|_| {
                    JsonError::msg(format!(
                        "invalid {} map key: {s:?}",
                        stringify!($ty)
                    ))
                })
            }
        }
    )*};
}

impl_json_key_uint!(u8, u16, u32, u64, usize);

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(s: &str) -> Result<Self, JsonError> {
        Ok(s.to_owned())
    }
}

impl<K: JsonKey, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_json()))
                .collect(),
        )
    }
    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&k.to_key(), out);
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
    }
}

impl<K: JsonKey, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let entries = v.as_obj().ok_or_else(|| JsonError::expected("object", v))?;
        entries
            .iter()
            .map(|(k, val)| {
                Ok((
                    K::from_key(k)?,
                    V::from_json(val).map_err(|e| e.in_context(&format!("[{k:?}]")))?,
                ))
            })
            .collect()
    }
    /// Refuses a repeated key, which the tree path resolves by keeping
    /// the last value.
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        let mut map = BTreeMap::new();
        r.object(|r, k| {
            let key = K::from_key(k).ok()?;
            let value = V::read_json(r)?;
            map.insert(key, value).is_none().then_some(())
        })?;
        Some(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        assert_eq!(u64::from_json(&u64::MAX.to_json()).unwrap(), u64::MAX);
        assert_eq!(u8::from_json(&Json::U64(255)).unwrap(), 255);
        assert!(u8::from_json(&Json::U64(256)).is_err());
        assert_eq!(i64::from_json(&Json::I64(-5)).unwrap(), -5);
        assert_eq!(i64::from_json(&Json::U64(5)).unwrap(), 5);
        assert!(bool::from_json(&Json::U64(1)).is_err());
        assert_eq!(String::from_json(&Json::Str("x".into())).unwrap(), "x");
    }

    #[test]
    fn negative_i64_to_json_is_negative_number() {
        assert_eq!((-3i64).to_json(), Json::I64(-3));
        assert_eq!(3i64.to_json(), Json::U64(3));
    }

    #[test]
    fn option_uses_null() {
        assert_eq!(Option::<u64>::None.to_json(), Json::Null);
        assert_eq!(Some(4u64).to_json(), Json::U64(4));
        assert_eq!(Option::<u64>::from_json(&Json::Null).unwrap(), None);
        assert_eq!(Option::<u64>::from_json(&Json::U64(4)).unwrap(), Some(4));
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u64, 2, 3];
        assert_eq!(Vec::<u64>::from_json(&v.to_json()).unwrap(), v);
        let d: VecDeque<u8> = VecDeque::from(vec![9, 8]);
        assert_eq!(VecDeque::<u8>::from_json(&d.to_json()).unwrap(), d);
        let t = (1u64, "a".to_string(), -2i64);
        assert_eq!(<(u64, String, i64)>::from_json(&t.to_json()).unwrap(), t);
    }

    #[test]
    fn integer_keyed_maps_use_decimal_string_keys() {
        let mut m = BTreeMap::new();
        m.insert(4096u64, vec![1u8, 2]);
        let j = m.to_json();
        assert_eq!(j.to_string_compact(), r#"{"4096":[1,2]}"#);
        assert_eq!(BTreeMap::<u64, Vec<u8>>::from_json(&j).unwrap(), m);
    }

    #[test]
    fn errors_carry_paths() {
        let j = crate::parse::parse(r#"{"a": [1, "x"]}"#).unwrap();
        let e = field::<Vec<u64>>(j.as_obj().unwrap(), "a", "T").unwrap_err();
        assert!(e.message.contains("T.a"), "{}", e.message);
        assert!(e.message.contains("[1]"), "{}", e.message);
    }
}
