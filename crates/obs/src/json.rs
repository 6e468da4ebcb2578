//! The workspace's one JSON emitter, and a validator for its output.
//!
//! The exporters build flat objects with the [`Obj`] builder (keys are
//! always compile-time identifiers and are not escaped; values are).
//! Snapshot structs declared through [`json_struct!`](crate::json_struct)
//! get a [`ToJson`] impl that walks their own field list, so a field added
//! to the struct cannot be forgotten by the exporter. Output is compact;
//! non-finite floats render as `0`.

use std::convert::Infallible;

/// Escape a string for inclusion inside JSON double quotes.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON number (non-finite values become 0).
pub(crate) fn num_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Incremental JSON object builder.
pub(crate) struct Obj {
    buf: String,
    first: bool,
}

impl Obj {
    pub(crate) fn new() -> Self {
        Obj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        self.buf.push_str(k);
        self.buf.push_str("\":");
    }

    pub(crate) fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
        self
    }

    pub(crate) fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    pub(crate) fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.buf.push_str(&num_f64(v));
        self
    }

    pub(crate) fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Insert pre-rendered JSON (a nested object or array) under `k`.
    pub(crate) fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    pub(crate) fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Join pre-rendered JSON values into an array.
pub(crate) fn array(items: &[String]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(item);
    }
    out.push(']');
    out
}

/// A value that renders itself as compact JSON.
pub trait ToJson {
    /// The JSON text of `self`.
    fn to_json(&self) -> String;
}

macro_rules! to_json_via {
    ($($ty:ty => |$v:ident| $render:expr),* $(,)?) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> String {
                let $v = self;
                $render
            }
        }
    )*};
}

to_json_via! {
    u32 => |v| v.to_string(),
    u64 => |v| v.to_string(),
    f64 => |v| num_f64(*v),
    bool => |v| v.to_string(),
    String => |v| format!("\"{}\"", escape(v)),
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> String {
        array(&self.iter().map(ToJson::to_json).collect::<Vec<_>>())
    }
}

/// Render `fields` as one object, in order. [`json_struct!`](crate::json_struct)
/// expands to a call of this.
pub fn object(fields: &[(&str, &dyn ToJson)]) -> String {
    fields
        .iter()
        .fold(Obj::new(), |o, (k, v)| o.raw(k, &v.to_json()))
        .finish()
}

/// Render `value` as compact JSON. It cannot fail; the `Result` is kept
/// for callers written against the fallible serializer this replaced.
pub fn to_json<T: ToJson + ?Sized>(value: &T) -> Result<String, Infallible> {
    Ok(value.to_json())
}

/// Declare a struct and its [`ToJson`] impl from one field list: every
/// field becomes a key, in declaration order.
///
/// ```
/// lmpi_obs::json_struct! {
///     /// Doc comments and derives pass through.
///     #[derive(Default)]
///     pub struct S {
///         pub n: u64,
///         pub name: String,
///     }
/// }
/// let json = lmpi_obs::to_json(&S { n: 7, name: "x".into() }).unwrap();
/// assert_eq!(json, r#"{"n":7,"name":"x"}"#);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
    }) => {
        $(#[$meta])* $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty),*
        }

        impl $crate::ToJson for $name {
            fn to_json(&self) -> String {
                $crate::json_object(&[$((stringify!($field), &self.$field)),*])
            }
        }
    };
}

/// A minimal recursive-descent JSON validity checker: `Ok(())` iff `s`
/// is one complete JSON value. Used by tests and artifact generators to
/// assert that exporter output parses (the workspace has no JSON parser
/// dependency to lean on). Not a general parser — it validates without
/// building a value tree.
pub fn validate(s: &str) -> Result<(), String> {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl<'a> P<'a> {
        fn ws(&mut self) {
            while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            }
        }
        fn peek(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }
        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", c as char, self.i))
            }
        }
        fn value(&mut self) -> Result<(), String> {
            self.ws();
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.arr(),
                Some(b'"') => self.string(),
                Some(b't') => self.lit("true"),
                Some(b'f') => self.lit("false"),
                Some(b'n') => self.lit("null"),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                other => Err(format!("unexpected {other:?} at byte {}", self.i)),
            }
        }
        fn lit(&mut self, s: &str) -> Result<(), String> {
            if self.b[self.i..].starts_with(s.as_bytes()) {
                self.i += s.len();
                Ok(())
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }
        fn number(&mut self) -> Result<(), String> {
            let start = self.i;
            if self.peek() == Some(b'-') {
                self.i += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                self.i += 1;
            }
            if self.i == start {
                Err(format!("empty number at byte {start}"))
            } else {
                Ok(())
            }
        }
        fn string(&mut self) -> Result<(), String> {
            self.eat(b'"')?;
            while let Some(c) = self.peek() {
                self.i += 1;
                match c {
                    b'"' => return Ok(()),
                    b'\\' => {
                        self.i += 1; // skip escaped char (\uXXXX hex digits pass the loop)
                    }
                    _ => {}
                }
            }
            Err("unterminated string".into())
        }
        fn arr(&mut self) -> Result<(), String> {
            self.eat(b'[')?;
            self.ws();
            if self.peek() == Some(b']') {
                self.i += 1;
                return Ok(());
            }
            loop {
                self.value()?;
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("bad array at byte {}", self.i)),
                }
            }
        }
        fn object(&mut self) -> Result<(), String> {
            self.eat(b'{')?;
            self.ws();
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Ok(());
            }
            loop {
                self.ws();
                self.string()?;
                self.ws();
                self.eat(b':')?;
                self.value()?;
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("bad object at byte {}", self.i)),
                }
            }
        }
    }
    let mut p = P {
        b: s.as_bytes(),
        i: 0,
    };
    p.value()?;
    p.ws();
    if p.i == s.len() {
        Ok(())
    } else {
        Err(format!("trailing garbage at byte {}", p.i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn builds_objects_and_arrays() {
        let o = Obj::new()
            .str("name", "x\"y")
            .u64("n", 7)
            .f64("t", 1.5)
            .bool("ok", true)
            .raw("inner", "{}")
            .finish();
        assert_eq!(o, r#"{"name":"x\"y","n":7,"t":1.5,"ok":true,"inner":{}}"#);
        let a = array(&[o.clone(), "3".into()]);
        validate(&a).unwrap();
        validate(&o).unwrap();
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate("{").is_err());
        assert!(validate("[1,]").is_err());
        assert!(validate(r#"{"a" 1}"#).is_err());
        assert!(validate("[1,2] x").is_err());
        assert!(validate(r#"{"a":1}"#).is_ok());
        assert!(validate("[]").is_ok());
        assert!(validate("-1.5e3").is_ok());
    }

    #[test]
    fn non_finite_numbers_become_zero() {
        assert_eq!(num_f64(f64::NAN), "0");
        assert_eq!(num_f64(f64::INFINITY), "0");
        assert_eq!(num_f64(2.25), "2.25");
    }
}
