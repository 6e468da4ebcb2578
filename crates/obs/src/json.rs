//! The workspace's one JSON emitter and its one JSON reader.
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

/// Declare a struct of `u64` tallies from one field list: the struct and
/// its [`ToJson`] impl (as [`json_struct!`](crate::json_struct)), plus
/// `merged()`, the field-by-field sum of two tallies.
///
/// ```
/// lmpi_obs::counter_struct! {
///     #[derive(Default)]
///     pub struct C {
///         /// Frames sent.
///         pub sent: u64,
///     }
/// }
/// let c = C { sent: 2 }.merged(C { sent: 3 });
/// assert_eq!(lmpi_obs::to_json(&c).unwrap(), r#"{"sent":5}"#);
/// ```
#[macro_export]
macro_rules! counter_struct {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: u64),* $(,)?
    }) => {
        $crate::json_struct! {
            $(#[$meta])* $vis struct $name {
                $($(#[$fmeta])* $fvis $field: u64),*
            }
        }

        impl $name {
            /// The field-by-field sum of `self` and `other`.
            pub fn merged(self, other: Self) -> Self {
                $name { $($field: self.$field + other.$field),* }
            }
        }
    };
}

/// A parsed JSON value. A number keeps its source text, so an integer
/// reads back exactly ([`Json::as_u64`]) whatever its size.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as written.
    Number(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object's members, in document order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object; `None` for a missing key or a value
    /// that is not an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The contents of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A number written as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(text) => text.parse().ok(),
            _ => None,
        }
    }
}

/// Parse `s` as one complete JSON value (surrounding whitespace allowed).
/// Errors name the byte offset of the first malformed construct.
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser { s, i: 0 };
    let value = p.value()?;
    p.ws();
    if p.i == s.len() {
        Ok(value)
    } else {
        Err(format!("trailing garbage at byte {}", p.i))
    }
}

/// `Ok(())` iff `s` is one complete JSON value: [`parse`], with the value
/// discarded. Tests and artifact generators use it to assert that
/// exporter output parses.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

/// Recursive-descent reader over `s`, at byte `i`.
struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(b'{') => self
                .items(b'{', b'}', |p| {
                    let key = p.string()?;
                    p.ws();
                    p.eat(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Object),
            Some(b'[') => self.items(b'[', b']', Self::value).map(Json::Array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(char::from),
                self.i
            )),
        }
    }

    /// The comma-separated items between `open` and `close`.
    fn items<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.eat(open)?;
        let mut out = Vec::new();
        self.ws();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(out);
        }
        loop {
            self.ws();
            out.push(item(self)?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(c) if c == close => {
                    self.i += 1;
                    return Ok(out);
                }
                _ => {
                    return Err(format!(
                        "expected ',' or '{}' at byte {}",
                        close as char, self.i
                    ))
                }
            }
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || b"+-.eE".contains(&c)) {
            self.i += 1;
        }
        let text = &self.s[start..self.i];
        match text.parse::<f64>() {
            Ok(_) => Ok(Json::Number(text.to_string())),
            Err(_) => Err(format!("bad number {text:?} at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        // Start of the run of plain characters not yet copied to `out`
        // (every cut is at an ASCII quote or backslash, a char boundary).
        let mut run = self.i;
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.s[run..self.i]);
                    let at = self.i;
                    self.i += 2;
                    out.push(match self.s.as_bytes().get(at + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(format!("bad escape at byte {at}")),
                    });
                    run = self.i;
                }
                Some(_) => self.i += 1,
            }
        }
    }

    /// The character of a `\u` escape whose hex digits start at `i`,
    /// joining a UTF-16 surrogate pair written as two escapes.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.s[self.i..].starts_with("\\u") {
            self.i += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(format!("unpaired surrogate before byte {}", self.i));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| format!("invalid code point {code:#x}"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .s
            .get(self.i..self.i + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        let code = digits.and_then(|h| u32::from_str_radix(h, 16).ok());
        let at = self.i;
        self.i += 4;
        code.ok_or_else(|| format!("bad \\u escape at byte {at}"))
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
    fn parse_builds_the_value_tree_and_unescapes_strings() {
        let v = parse(
            r#" {"n": 18446744073709551615, "x": -1.5e3, "s": "a\"b\u00e9\ud83d\ude00",
                          "a": [true, null, {}], "e": []} "#,
        )
        .unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(v.get("x"), Some(&Json::Number("-1.5e3".into())));
        assert_eq!(v.get("x").and_then(Json::as_u64), None);
        assert_eq!(
            v.get("s").and_then(Json::as_str),
            Some("a\"b\u{e9}\u{1f600}")
        );
        assert_eq!(
            v.get("a").and_then(Json::as_array),
            Some(&[Json::Bool(true), Json::Null, Json::Object(vec![])][..])
        );
        assert_eq!(v.get("e").and_then(Json::as_array), Some(&[][..]));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);
        for bad in [r#""\q""#, r#""\u12""#, r#""\ud800\u0041""#, "1.2.3", "tru"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn non_finite_numbers_become_zero() {
        assert_eq!(num_f64(f64::NAN), "0");
        assert_eq!(num_f64(f64::INFINITY), "0");
        assert_eq!(num_f64(2.25), "2.25");
    }
}
