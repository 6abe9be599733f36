//! # mvm-json — std-only JSON serialization for the RES workspace
//!
//! A minimal replacement for the `serde`/`serde_json` pair, written
//! against this repo's actual needs so the workspace builds with **zero
//! registry dependencies**. It provides:
//!
//! * [`Json`] — an exact-integer JSON value tree,
//! * [`parse`] / [`to_string`] / [`to_string_pretty`] — a strict parser
//!   and `serde_json`-layout printers,
//! * [`ToJson`] / [`FromJson`] — the conversion trait pair,
//! * [`json_struct!`], [`json_newtype!`], [`json_enum!`] — declarative
//!   macros that stand in for `#[derive(Serialize, Deserialize)]`.
//!
//! # Two paths, one result
//!
//! [`to_string`] and [`from_str`] move typed values straight between
//! text and Rust values ([`ToJson::write_json`], [`FromJson::read_json`]
//! over a [`Reader`]); no [`Json`] tree is built for the types the
//! macros cover, the std containers and integers, or the hand-written
//! impls that override both methods. The tree path
//! ([`ToJson::to_json`], [`parse`] + [`FromJson::from_json`]) stays the
//! definition of the format:
//!
//! * the direct writer must print the bytes the tree printer prints;
//! * the direct reader may refuse anything it does not expect (a
//!   repeated or unknown key, a number it cannot read as the target
//!   type, a failed check), and on any refusal [`from_str`] decodes the
//!   text again through the tree path and returns that result. So a
//!   value it accepts, and every error message and byte offset, is
//!   exactly what the tree path gives.
//!
//! [`to_string_pretty`] always prints the tree.
//!
//! # Wire-format compatibility
//!
//! The representation matches serde's defaults, so dumps produced by
//! the pre-hermetic build parse unchanged and the golden fixtures in
//! `tests/fixtures/` stay valid:
//!
//! | Rust shape            | JSON |
//! |-----------------------|------|
//! | struct                | object, fields in declaration order |
//! | newtype struct        | the inner value |
//! | unit enum variant     | `"Variant"` |
//! | newtype enum variant  | `{"Variant": inner}` |
//! | struct enum variant   | `{"Variant": {..}}` |
//! | `Option<T>`           | `null` or the value |
//! | `Vec<T>` / tuples     | array |
//! | `BTreeMap<u64, V>`    | object with decimal string keys |
//!
//! # Example
//!
//! ```
//! use mvm_json::{json_enum, json_struct, FromJson, ToJson};
//!
//! #[derive(Debug, Clone, PartialEq)]
//! enum Shape {
//!     Point,
//!     Circle { radius: u64 },
//! }
//! json_enum!(Shape { Point, Circle { radius: u64 } });
//!
//! #[derive(Debug, Clone, PartialEq)]
//! struct Scene {
//!     name: String,
//!     shapes: Vec<Shape>,
//! }
//! json_struct!(Scene { name, shapes });
//!
//! let scene = Scene {
//!     name: "s".into(),
//!     shapes: vec![Shape::Point, Shape::Circle { radius: 3 }],
//! };
//! let text = mvm_json::to_string(&scene);
//! assert_eq!(
//!     text,
//!     r#"{"name":"s","shapes":["Point",{"Circle":{"radius":3}}]}"#
//! );
//! assert_eq!(mvm_json::from_str::<Scene>(&text).unwrap(), scene);
//! ```

mod convert;
mod parse;
mod value;

pub use convert::{field, FromJson, JsonError, JsonKey, ToJson};
pub use parse::{parse, ParseError, Reader};
pub use value::{write_u64, Json};

/// Serializes a value to compact JSON, through
/// [`ToJson::write_json`].
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Serializes a value to pretty-printed JSON (2-space indent).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

/// Parses JSON text into a value: directly through
/// [`FromJson::read_json`], or, when that refuses, through [`parse`] and
/// [`FromJson::from_json`], whose result (value or error) is returned.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    let mut r = Reader::new(text);
    if let Some(v) = T::read_json(&mut r) {
        if r.at_end() {
            return Ok(v);
        }
    }
    T::from_json(&parse(text)?)
}

/// Implements [`ToJson`]/[`FromJson`] for a braced struct, serializing
/// the listed fields in order as a JSON object. The macro must be
/// invoked where the fields are visible (typically the defining
/// module), mirroring what a derive would see.
///
/// A trailing `check path::to::f` names a
/// `fn(&Self) -> Result<(), JsonError>` that both decode paths run on
/// the decoded value, refusing it with that error.
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident),+ $(,)? } $(check $check:path)?) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    $(
                        (
                            stringify!($field).to_string(),
                            $crate::ToJson::to_json(&self.$field),
                        ),
                    )+
                ])
            }
            fn write_json(&self, out: &mut String) {
                $crate::json_struct!(@write out, $($field = &self.$field),+);
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                let obj = v
                    .as_obj()
                    .ok_or_else(|| $crate::JsonError::expected(stringify!($ty), v))?;
                let value = $ty {
                    $($field: $crate::field(obj, stringify!($field), stringify!($ty))?,)+
                };
                $($check(&value)?;)?
                Ok(value)
            }
            fn read_json(r: &mut $crate::Reader<'_>) -> Option<Self> {
                let value = $crate::json_struct!(@read r, { $ty }, $($field),+)?;
                $($check(&value).ok()?;)?
                Some(value)
            }
        }
    };

    // Writes `{"a":..,"b":..}` from `name = &value` pairs. Field names
    // are identifiers, so they need no escaping.
    (@write $out:ident, $first:ident = $fv:expr $(, $rest:ident = $rv:expr)*) => {
        $out.push_str(concat!("{\"", stringify!($first), "\":"));
        $crate::ToJson::write_json($fv, $out);
        $(
            $out.push_str(concat!(",\"", stringify!($rest), "\":"));
            $crate::ToJson::write_json($rv, $out);
        )*
        $out.push('}');
    };

    // Reads an object into the struct literal `$ctor { fields }`: an
    // `Option<Self>` expression. A repeated or unknown key refuses; a
    // missing field reads as `null`, as `field` does.
    (@read $r:ident, { $($ctor:tt)+ }, $($field:ident),+) => {{
        $(let mut $field = None;)+
        $r.object(|r, key| match key {
            $(stringify!($field) if $field.is_none() => {
                $field = Some($crate::FromJson::read_json(r)?);
                Some(())
            })+
            _ => None,
        })?;
        Some($($ctor)+ {
            $($field: match $field {
                Some(v) => v,
                None => $crate::FromJson::from_json(&$crate::Json::Null).ok()?,
            },)+
        })
    }};
}

/// Implements [`ToJson`]/[`FromJson`] for a single-field tuple struct
/// as the bare inner value (serde's newtype representation).
#[macro_export]
macro_rules! json_newtype {
    ($ty:ident) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::ToJson::to_json(&self.0)
            }
            fn write_json(&self, out: &mut String) {
                $crate::ToJson::write_json(&self.0, out);
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                Ok($ty($crate::FromJson::from_json(v).map_err(
                    |e: $crate::JsonError| e.in_context(stringify!($ty)),
                )?))
            }
            fn read_json(r: &mut $crate::Reader<'_>) -> Option<Self> {
                Some($ty($crate::FromJson::read_json(r)?))
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for an enum using serde's
/// externally-tagged representation. Unit, newtype (single payload
/// type), and struct variants may be mixed freely:
///
/// ```
/// use mvm_json::json_enum;
///
/// #[derive(Debug, Clone, PartialEq)]
/// enum E {
///     Unit,
///     Newtype(u64),
///     Struct { a: u64, b: Option<u8> },
/// }
/// json_enum!(E {
///     Unit,
///     Newtype(u64),
///     Struct { a: u64, b: Option<u8> },
/// });
///
/// assert_eq!(mvm_json::to_string(&E::Unit), r#""Unit""#);
/// assert_eq!(mvm_json::to_string(&E::Newtype(7)), r#"{"Newtype":7}"#);
/// assert_eq!(
///     mvm_json::to_string(&E::Struct { a: 1, b: None }),
///     r#"{"Struct":{"a":1,"b":null}}"#
/// );
/// ```
#[macro_export]
macro_rules! json_enum {
    ($ty:ident {
        $( $variant:ident
            $( ( $payload:ty ) )?
            $( { $($f:ident : $fty:ty),+ $(,)? } )?
        ),+ $(,)?
    }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $(
                    $crate::json_enum!(
                        @to self, $ty, $variant
                        $( ( $payload ) )?
                        $( { $($f),+ } )?
                    );
                )+
                unreachable!(
                    "json_enum! for {} does not list every variant",
                    stringify!($ty)
                )
            }
            fn write_json(&self, out: &mut String) {
                $(
                    $crate::json_enum!(
                        @write self, out, $ty, $variant
                        $( ( $payload ) )?
                        $( { $($f),+ } )?
                    );
                )+
                unreachable!(
                    "json_enum! for {} does not list every variant",
                    stringify!($ty)
                )
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                $(
                    $crate::json_enum!(
                        @from v, $ty, $variant
                        $( ( $payload ) )?
                        $( { $($f : $fty),+ } )?
                    );
                )+
                Err($crate::JsonError::msg(format!(
                    "expected a {} variant, got {}",
                    stringify!($ty),
                    v.to_string_compact()
                )))
            }
            /// A unit variant is a string; any other variant is an
            /// object of exactly one member.
            fn read_json(r: &mut $crate::Reader<'_>) -> Option<Self> {
                if r.peek() == Some(b'"') {
                    let name = r.str()?;
                    $(
                        $crate::json_enum!(
                            @read_unit name, $ty, $variant
                            $( ( $payload ) )?
                            $( { $($f),+ } )?
                        );
                    )+
                    return None;
                }
                let mut out = None;
                r.object(|r, name| {
                    if out.is_some() {
                        return None;
                    }
                    $(
                        $crate::json_enum!(
                            @read_tagged r, name, out, $ty, $variant
                            $( ( $payload ) )?
                            $( { $($f),+ } )?
                        );
                    )+
                    None
                })?;
                out
            }
        }
    };

    // -- serialization arms (statement position) --
    (@to $self_:ident, $ty:ident, $variant:ident) => {
        if let $ty::$variant = $self_ {
            return $crate::Json::Str(stringify!($variant).to_string());
        }
    };
    (@to $self_:ident, $ty:ident, $variant:ident ( $payload:ty )) => {
        if let $ty::$variant(inner) = $self_ {
            return $crate::Json::Obj(vec![(
                stringify!($variant).to_string(),
                $crate::ToJson::to_json(inner),
            )]);
        }
    };
    (@to $self_:ident, $ty:ident, $variant:ident { $($f:ident),+ }) => {
        if let $ty::$variant { $($f),+ } = $self_ {
            return $crate::Json::Obj(vec![(
                stringify!($variant).to_string(),
                $crate::Json::Obj(vec![
                    $(
                        (
                            stringify!($f).to_string(),
                            $crate::ToJson::to_json($f),
                        ),
                    )+
                ]),
            )]);
        }
    };

    // -- direct writing arms (statement position) --
    (@write $self_:ident, $out:ident, $ty:ident, $variant:ident) => {
        if let $ty::$variant = $self_ {
            $out.push_str(concat!("\"", stringify!($variant), "\""));
            return;
        }
    };
    (@write $self_:ident, $out:ident, $ty:ident, $variant:ident ( $payload:ty )) => {
        if let $ty::$variant(inner) = $self_ {
            $out.push_str(concat!("{\"", stringify!($variant), "\":"));
            $crate::ToJson::write_json(inner, $out);
            $out.push('}');
            return;
        }
    };
    (@write $self_:ident, $out:ident, $ty:ident, $variant:ident { $($f:ident),+ }) => {
        if let $ty::$variant { $($f),+ } = $self_ {
            $out.push_str(concat!("{\"", stringify!($variant), "\":"));
            $crate::json_struct!(@write $out, $($f = $f),+);
            $out.push('}');
            return;
        }
    };

    // -- direct reading arms (statement position) --
    (@read_unit $name:ident, $ty:ident, $variant:ident) => {
        if $name == stringify!($variant) {
            return Some($ty::$variant);
        }
    };
    (@read_unit $name:ident, $ty:ident, $variant:ident ( $payload:ty )) => {};
    (@read_unit $name:ident, $ty:ident, $variant:ident { $($f:ident),+ }) => {};
    (@read_tagged $r:ident, $name:ident, $out:ident, $ty:ident, $variant:ident) => {};
    (@read_tagged $r:ident, $name:ident, $out:ident, $ty:ident, $variant:ident ( $payload:ty )) => {
        if $name == stringify!($variant) {
            $out = Some($ty::$variant(<$payload as $crate::FromJson>::read_json($r)?));
            return Some(());
        }
    };
    (@read_tagged $r:ident, $name:ident, $out:ident, $ty:ident, $variant:ident { $($f:ident),+ }) => {
        if $name == stringify!($variant) {
            $out = Some($crate::json_struct!(@read $r, { $ty::$variant }, $($f),+)?);
            return Some(());
        }
    };

    // -- deserialization arms (statement position) --
    (@from $v:ident, $ty:ident, $variant:ident) => {
        if $v.as_str() == Some(stringify!($variant)) {
            return Ok($ty::$variant);
        }
    };
    (@from $v:ident, $ty:ident, $variant:ident ( $payload:ty )) => {
        if let Some(inner) = $v.variant_payload(stringify!($variant)) {
            return Ok($ty::$variant(
                <$payload as $crate::FromJson>::from_json(inner).map_err(
                    |e| e.in_context(stringify!($variant)),
                )?,
            ));
        }
    };
    (@from $v:ident, $ty:ident, $variant:ident { $($f:ident : $fty:ty),+ }) => {
        if let Some(payload) = $v.variant_payload(stringify!($variant)) {
            let obj = payload.as_obj().ok_or_else(|| {
                $crate::JsonError::expected(stringify!($variant), payload)
            })?;
            return Ok($ty::$variant {
                $(
                    $f: $crate::field::<$fty>(
                        obj,
                        stringify!($f),
                        stringify!($variant),
                    )?,
                )+
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Id(u32);
    json_newtype!(Id);

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Nop,
        Push(u64),
        Load { id: Id, offset: i64 },
        Pair((u64, u64)),
    }
    json_enum!(Op {
        Nop,
        Push(u64),
        Load { id: Id, offset: i64 },
        Pair((u64, u64)),
    });

    #[derive(Debug, Clone, PartialEq)]
    struct Prog {
        name: String,
        ops: Vec<Op>,
        limit: Option<u64>,
    }
    json_struct!(Prog { name, ops, limit });

    fn sample() -> Prog {
        Prog {
            name: "p".into(),
            ops: vec![
                Op::Nop,
                Op::Push(u64::MAX),
                Op::Load {
                    id: Id(3),
                    offset: -8,
                },
                Op::Pair((1, 2)),
            ],
            limit: None,
        }
    }

    #[test]
    fn serde_compatible_wire_format() {
        assert_eq!(
            to_string(&sample()),
            r#"{"name":"p","ops":["Nop",{"Push":18446744073709551615},{"Load":{"id":3,"offset":-8}},{"Pair":[1,2]}],"limit":null}"#
        );
    }

    #[test]
    fn round_trip_compact_and_pretty() {
        let p = sample();
        assert_eq!(from_str::<Prog>(&to_string(&p)).unwrap(), p);
        assert_eq!(from_str::<Prog>(&to_string_pretty(&p)).unwrap(), p);
    }

    #[test]
    fn newtype_is_transparent() {
        assert_eq!(to_string(&Id(9)), "9");
        assert_eq!(from_str::<Id>("9").unwrap(), Id(9));
    }

    #[test]
    fn unknown_variant_is_an_error() {
        assert!(from_str::<Op>(r#""Halt""#).is_err());
        assert!(from_str::<Op>(r#"{"Pop":1}"#).is_err());
    }

    #[test]
    fn missing_field_is_an_error_but_missing_option_is_none() {
        let e = from_str::<Prog>(r#"{"name":"p","limit":null}"#).unwrap_err();
        assert!(e.message.contains("ops"), "{}", e.message);
        let p = from_str::<Prog>(r#"{"name":"p","ops":[]}"#).unwrap();
        assert_eq!(p.limit, None);
    }

    #[test]
    fn type_mismatch_reports_path() {
        let e = from_str::<Prog>(r#"{"name":"p","ops":[{"Push":"x"}],"limit":null}"#).unwrap_err();
        assert!(e.message.contains("Push"), "{}", e.message);
    }
}
