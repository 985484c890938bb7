//! A minimal, dependency-free JSON value, parser, and writer.
//!
//! The workspace serializes traces and reports as line-delimited JSON.
//! Doing it here — rather than through an external crate — keeps the
//! workspace fully buildable offline and keeps serialization
//! deterministic: objects preserve insertion order (no hash-map
//! iteration), and integers round-trip exactly through [`Num::U`]/[`Num::I`]
//! instead of being squeezed through `f64`.
//!
//! [`Cursor`] is the one JSON grammar in the workspace. [`Value::parse`]
//! builds a tree over it; hot readers (the trace decoder) pull fields off
//! it directly into their own buffers. [`write_escaped`] is the one
//! string escaper, shared by [`Value`]'s `Display` and direct writers.

use std::fmt;

/// A JSON number, kept in its exact lexical class.
///
/// Byte counters and seeds are `u64`; routing them through `f64` would
/// silently lose precision above 2^53 and corrupt the paper's WAN-byte
/// accounting. Integers therefore stay integers end to end.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Num {
    /// A non-negative integer.
    U(u64),
    /// A negative integer.
    I(i64),
    /// A number with a fraction or exponent.
    F(f64),
}

impl Num {
    /// The value as `u64`, if non-negative integral and below 2^64.
    // The cast is guarded: v is non-negative, integral, and < 2^64.
    #[allow(clippy::cast_possible_truncation)]
    pub fn as_u64(self) -> Option<u64> {
        /// 2^64, the first integral `f64` that no `u64` holds.
        const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
        match self {
            Num::U(v) => Some(v),
            Num::I(v) => u64::try_from(v).ok(),
            Num::F(v) if v >= 0.0 && v.fract() == 0.0 && v < TWO_POW_64 => Some(v as u64),
            Num::F(_) => None,
        }
    }

    /// The value as `f64` (lossy for large integers).
    pub fn as_f64(self) -> f64 {
        match self {
            Num::U(v) => v as f64,
            Num::I(v) => v as f64,
            Num::F(v) => v,
        }
    }
}

/// A parsed JSON value.
///
/// Objects are ordered key/value vectors: serialization is reproducible
/// and never depends on hash-map iteration order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Num),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Wrap a `u64`.
    pub fn u64(v: u64) -> Value {
        Value::Number(Num::U(v))
    }

    /// Wrap an `f64`.
    pub fn f64(v: f64) -> Value {
        Value::Number(Num::F(v))
    }

    /// Wrap a string slice.
    pub fn str(s: &str) -> Value {
        Value::String(s.to_string())
    }

    /// True iff this is an object.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as `usize`, if it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as `u32`, if it fits.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|v| u32::try_from(v).ok())
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parse one JSON document from `input`.
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the failure.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut cur = Cursor::new(input.as_bytes());
        let v = Value::build(&mut cur)?;
        cur.end()?;
        Ok(v)
    }

    /// Build the value at the cursor into a tree.
    fn build(cur: &mut Cursor<'_>) -> Result<Value, String> {
        Ok(match cur.kind()? {
            Kind::Null => {
                cur.literal(b"null")?;
                Value::Null
            }
            Kind::Bool => Value::Bool(cur.bool()?),
            Kind::Number => Value::Number(cur.number()?),
            Kind::String => {
                let mut s = String::new();
                cur.string_into(&mut s)?;
                Value::String(s)
            }
            Kind::Array => {
                let mut items = Vec::new();
                let mut more = cur.begin_array()?;
                while more {
                    items.push(Value::build(cur)?);
                    more = cur.next_element()?;
                }
                Value::Array(items)
            }
            Kind::Object => {
                let mut fields = Vec::new();
                let mut more = cur.begin_object()?;
                while more {
                    let mut key = String::new();
                    cur.key_into(&mut key)?;
                    fields.push((key, Value::build(cur)?));
                    more = cur.next_member()?;
                }
                Value::Object(fields)
            }
        })
    }
}

impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// Member access; missing keys and non-objects yield [`Value::Null`].
    fn index(&self, key: &str) -> &Value {
        const NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

/// Write `s` as a JSON string literal: quoted, with `"`, `\` and
/// control characters escaped and everything else verbatim. The one
/// escaper behind [`Value`]'s `Display` and every direct JSON writer, so
/// both emit the same bytes.
///
/// # Errors
///
/// Whatever `out` returns; writing into a `String` cannot fail.
pub fn write_escaped<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut rest = s;
    while let Some(at) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        let (plain, tail) = rest.split_at(at);
        out.write_str(plain)?;
        let mut chars = tail.chars();
        match chars.next() {
            Some('"') => out.write_str("\\\"")?,
            Some('\\') => out.write_str("\\\\")?,
            Some('\n') => out.write_str("\\n")?,
            Some('\r') => out.write_str("\\r")?,
            Some('\t') => out.write_str("\\t")?,
            Some(c) => write!(out, "\\u{:04x}", u32::from(c))?,
            None => {}
        }
        rest = chars.as_str();
    }
    out.write_str(rest)?;
    out.write_char('"')
}

impl fmt::Display for Value {
    /// Compact serialization (no whitespace), `serde_json`-compatible.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(Num::U(v)) => write!(f, "{v}"),
            Value::Number(Num::I(v)) => write!(f, "{v}"),
            Value::Number(Num::F(v)) => {
                if v.is_finite() {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    // JSON has no Inf/NaN; mirror serde_json's `null`.
                    f.write_str("null")
                }
            }
            Value::String(s) => write_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Deepest array/object nesting a [`Cursor`] accepts. Deeper input is
/// an error rather than a stack overflow in the recursive tree builder.
pub const MAX_DEPTH: usize = 128;

/// The kind of the next JSON value, told from its first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Null,
    Bool,
    Number,
    String,
    Array,
    Object,
}

/// A pull cursor over one JSON document: the workspace's JSON grammar.
///
/// The caller drives it value by value: [`Cursor::u64_literal`] and
/// [`Cursor::string_into`] read scalars;
/// [`Cursor::begin_array`]/[`Cursor::next_element`] and
/// [`Cursor::begin_object`]/[`Cursor::key_into`]/[`Cursor::next_member`]
/// walk containers; [`Cursor::skip_value`] validates and skips anything
/// unwanted; [`Cursor::end`] rejects trailing content. [`Value::parse`]
/// builds its tree over the same reads. Every read skips leading
/// whitespace first. Errors are messages carrying the byte offset of
/// the failure. The cursor never panics on any input.
///
/// ```
/// use byc_types::json::Cursor;
///
/// let mut cur = Cursor::new(br#"{"n": 7, "tags": ["a"]}"#);
/// let mut key = String::new();
/// let mut n = None;
/// let mut more = cur.begin_object()?;
/// while more {
///     cur.key_into(&mut key)?;
///     match key.as_str() {
///         "n" => n = Some(cur.u64_literal()?),
///         _ => cur.skip_value()?,
///     }
///     more = cur.next_member()?;
/// }
/// cur.end()?;
/// assert_eq!(n, Some(7));
/// # Ok::<(), String>(())
/// ```
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

// The per-token reads are `#[inline]`: the trace decoder calls them from
// another crate once per token, where they would otherwise stay
// out-of-line calls.
impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            depth: 0,
        }
    }

    /// Byte offset of the next unread byte.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The next byte, without skipping whitespace or consuming it.
    #[inline]
    fn at(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Skip whitespace, then consume `b` or fail.
    #[inline]
    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.at() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    /// Skip whitespace and require that nothing else follows.
    ///
    /// # Errors
    ///
    /// Trailing content after the document.
    #[inline]
    pub fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing content at byte {}", self.pos))
        }
    }

    /// The kind of the next value, without consuming it.
    #[inline]
    fn kind(&mut self) -> Result<Kind, String> {
        self.skip_ws();
        match self.at() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::String),
            Some(b'[') => Ok(Kind::Array),
            Some(b'{') => Ok(Kind::Object),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    #[inline]
    fn literal(&mut self, word: &[u8]) -> Result<(), String> {
        self.skip_ws();
        match self.bytes.get(self.pos..) {
            Some(rest) if rest.starts_with(word) => {
                self.pos += word.len();
                Ok(())
            }
            _ => Err(format!("invalid literal at byte {}", self.pos)),
        }
    }

    /// Read `true` or `false`.
    fn bool(&mut self) -> Result<bool, String> {
        self.skip_ws();
        if self.at() == Some(b't') {
            self.literal(b"true").map(|()| true)
        } else {
            self.literal(b"false").map(|()| false)
        }
    }

    /// Read a number, keeping its lexical class: an integer literal is
    /// [`Num::U`] when it fits a `u64` and [`Num::I`] when it fits an
    /// `i64`; anything else is [`Num::F`].
    #[inline]
    fn number(&mut self) -> Result<Num, String> {
        self.skip_ws();
        let start = self.pos;
        let negative = match self.at() {
            Some(b'-') => true,
            Some(b'0'..=b'9') => false,
            _ => return Err(format!("expected a number at byte {start}")),
        };
        if negative {
            self.pos += 1;
        }
        // Leading digits accumulate on the fly, so the common integer
        // needs no second pass: 19 digits cannot overflow a u64.
        let digits_at = self.pos;
        let mut acc = 0u64;
        while let Some(&b) = self.bytes.get(self.pos).filter(|b| b.is_ascii_digit()) {
            acc = acc.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            self.pos += 1;
        }
        let digits = self.pos - digits_at;
        // The rest of the token: any digit, sign, point or exponent.
        let mut fractional = false;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.bytes.get(self.pos) {
            fractional = true;
            self.pos += 1;
        }
        if !negative && !fractional && (1..=19).contains(&digits) {
            return Ok(Num::U(acc));
        }
        let token = self.bytes.get(start..self.pos).unwrap_or_default();
        let text = std::str::from_utf8(token).map_err(|_| format!("bad number at byte {start}"))?;
        if !fractional {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Num::U(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Num::I(v));
            }
        }
        text.parse::<f64>()
            .map(Num::F)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    /// Read an integer literal as `u64`: a number with no fraction or
    /// exponent whose value is in `u64` range.
    ///
    /// # Errors
    ///
    /// A non-number, a fraction or exponent (even an integral one such as
    /// `5.0` or `1e3`), or a value outside `0..2^64`.
    #[inline]
    pub fn u64_literal(&mut self) -> Result<u64, String> {
        let at = self.pos;
        match self.number()? {
            Num::U(v) => Ok(v),
            Num::I(v) => u64::try_from(v).map_err(|_| format!("negative integer at byte {at}")),
            Num::F(_) => Err(format!("expected an integer literal at byte {at}")),
        }
    }

    /// Read a string into `out`, replacing its contents (and reusing its
    /// capacity). Escapes are decoded; a `\u` escape that names no
    /// scalar value (an unpaired surrogate) decodes to U+FFFD.
    ///
    /// # Errors
    ///
    /// A non-string, a bad escape, a raw control byte, invalid UTF-8, or
    /// a missing closing quote.
    #[inline]
    pub fn string_into(&mut self, out: &mut String) -> Result<(), String> {
        out.clear();
        self.scan_string(Some(out))
    }

    /// Read (`out` = `Some`) or validate and skip (`None`) a string.
    #[inline]
    fn scan_string(&mut self, mut out: Option<&mut String>) -> Result<(), String> {
        self.eat(b'"')?;
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            let rest = self.bytes.get(start..).unwrap_or_default();
            let plain = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            self.pos += plain;
            if plain > 0 {
                let run = rest.get(..plain).unwrap_or_default();
                let chunk = std::str::from_utf8(run)
                    .map_err(|e| format!("invalid UTF-8 at byte {}", start + e.valid_up_to()))?;
                if let Some(out) = out.as_deref_mut() {
                    out.push_str(chunk);
                }
            }
            match self.at() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    if let Some(out) = out.as_deref_mut() {
                        out.push(c);
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    /// Decode one escape; the cursor sits just past its backslash.
    fn escape(&mut self) -> Result<char, String> {
        let esc = self
            .at()
            .ok_or_else(|| format!("dangling escape at byte {}", self.pos))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{0008}',
            b'f' => '\u{000c}',
            b'u' => {
                let code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    // A high surrogate combines with a following low one;
                    // anything else leaves it unpaired.
                    let paired = self
                        .bytes
                        .get(self.pos..)
                        .is_some_and(|rest| rest.starts_with(b"\\u"));
                    let mut ahead = self.clone();
                    ahead.pos += 2;
                    match paired.then(|| ahead.hex4()).transpose()? {
                        Some(lo @ 0xDC00..=0xDFFF) => {
                            *self = ahead;
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(combined).unwrap_or('\u{FFFD}')
                        }
                        _ => '\u{FFFD}',
                    }
                } else {
                    char::from_u32(code).unwrap_or('\u{FFFD}')
                }
            }
            _ => {
                return Err(format!(
                    "unknown escape {:?} at byte {}",
                    esc as char,
                    self.pos - 1
                ))
            }
        })
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| format!("short \\u escape at byte {}", self.pos))?;
        let code = std::str::from_utf8(hex)
            .ok()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    #[inline]
    fn enter(&mut self, b: u8) -> Result<bool, String> {
        self.eat(b)?;
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos - 1
            ));
        }
        self.depth += 1;
        let close = if b == b'[' { b']' } else { b'}' };
        self.skip_ws();
        if self.at() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            Ok(false)
        } else {
            Ok(true)
        }
    }

    #[inline]
    fn after_item(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.at() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            _ => Err(format!(
                "expected ',' or {:?} at byte {}",
                close as char, self.pos
            )),
        }
    }

    /// Enter an array. `true` when an element follows, `false` when the
    /// array was empty (and is already closed).
    ///
    /// # Errors
    ///
    /// A non-array, or nesting deeper than [`MAX_DEPTH`].
    #[inline]
    pub fn begin_array(&mut self) -> Result<bool, String> {
        self.enter(b'[')
    }

    /// After an element: `true` when another follows, `false` when the
    /// array closed.
    ///
    /// # Errors
    ///
    /// Anything but `,` or `]`.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, String> {
        self.after_item(b']')
    }

    /// Enter an object. `true` when a member follows, `false` when the
    /// object was empty (and is already closed).
    ///
    /// # Errors
    ///
    /// A non-object, or nesting deeper than [`MAX_DEPTH`].
    #[inline]
    pub fn begin_object(&mut self) -> Result<bool, String> {
        self.enter(b'{')
    }

    /// Read a member's key into `key` (replacing its contents) and the
    /// `:` after it; the member's value comes next.
    ///
    /// # Errors
    ///
    /// A bad key string or a missing `:`.
    #[inline]
    pub fn key_into(&mut self, key: &mut String) -> Result<(), String> {
        self.string_into(key)?;
        self.eat(b':')
    }

    /// After a member's value: `true` when another member follows,
    /// `false` when the object closed.
    ///
    /// # Errors
    ///
    /// Anything but `,` or `}`.
    #[inline]
    pub fn next_member(&mut self) -> Result<bool, String> {
        self.after_item(b'}')
    }

    /// Validate and skip the next value, containers included.
    ///
    /// # Errors
    ///
    /// Whatever reading the value would report.
    pub fn skip_value(&mut self) -> Result<(), String> {
        match self.kind()? {
            Kind::Null => self.literal(b"null"),
            Kind::Bool => self.bool().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::String => self.scan_string(None),
            Kind::Array => {
                let mut more = self.begin_array()?;
                while more {
                    self.skip_value()?;
                    more = self.next_element()?;
                }
                Ok(())
            }
            Kind::Object => {
                let mut more = self.begin_object()?;
                while more {
                    self.scan_string(None)?;
                    self.eat(b':')?;
                    self.skip_value()?;
                    more = self.next_member()?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::u64(42));
        assert_eq!(Value::parse("-7").unwrap(), Value::Number(Num::I(-7)));
        assert_eq!(Value::parse("2.5").unwrap(), Value::f64(2.5));
        assert_eq!(Value::parse("\"hi\"").unwrap(), Value::str("hi"));
    }

    #[test]
    fn large_u64_roundtrips_exactly() {
        let v = u64::MAX - 1;
        let parsed = Value::parse(&v.to_string()).unwrap();
        assert_eq!(parsed.as_u64(), Some(v));
        assert_eq!(parsed.to_string(), v.to_string());
    }

    #[test]
    fn arrays_and_objects_roundtrip() {
        let text = "{\"a\":[1,2,3],\"b\":{\"c\":\"x\"},\"d\":null}";
        let v = Value::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert!(v.is_object());
        assert_eq!(v["a"].as_array().unwrap().len(), 3);
        assert_eq!(v["b"]["c"], "x");
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = Value::Object(vec![
            ("z".into(), Value::u64(1)),
            ("a".into(), Value::u64(2)),
        ]);
        assert_eq!(v.to_string(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line1\nline2\t\"quoted\" \\slash";
        let v = Value::String(original.to_string());
        let text = v.to_string();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn unicode_escape_decodes() {
        assert_eq!(Value::parse("\"\\u0041\"").unwrap(), "A");
        // Surrogate pair for U+1F600.
        assert_eq!(
            Value::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{1F600}")
        );
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("nope").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v["a"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn accessor_conversions() {
        let v = Value::parse("{\"n\":7,\"f\":1.5,\"s\":\"x\"}").unwrap();
        assert_eq!(v["n"].as_u32(), Some(7));
        assert_eq!(v["n"].as_usize(), Some(7));
        assert_eq!(v["f"].as_f64(), Some(1.5));
        assert_eq!(v["f"].as_u64(), None);
        assert_eq!(v["s"].as_str(), Some("x"));
        assert_eq!(v["s"].as_u64(), None);
    }

    #[test]
    fn as_u64_rejects_two_pow_64() {
        assert_eq!(Num::F(18_446_744_073_709_551_616.0).as_u64(), None);
        assert_eq!(Value::parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(
            Num::F(18_446_744_073_709_549_568.0).as_u64(),
            Some(18_446_744_073_709_549_568)
        );
    }

    #[test]
    fn unpaired_surrogates_decode_to_replacement() {
        // A high surrogate followed by a non-surrogate escape keeps the
        // second escape (the pair arithmetic used to underflow here).
        assert_eq!(Value::parse(r#""\ud800\u0041""#).unwrap(), "\u{FFFD}A");
        assert_eq!(
            Value::parse(r#""\ud800\ud800\udc00""#).unwrap(),
            "\u{FFFD}\u{10000}"
        );
        assert_eq!(Value::parse(r#""\ud800x""#).unwrap(), "\u{FFFD}x");
        assert_eq!(Value::parse(r#""\udc00""#).unwrap(), "\u{FFFD}");
        assert_eq!(Value::parse(r#""\ud800😀""#).unwrap(), "\u{FFFD}\u{1F600}");
        assert!(Value::parse(r#""\ud800\u00""#).is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(1 << 20);
        assert!(Value::parse(&deep).is_err());
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Value::parse(&over).is_err());
        assert!(Cursor::new(deep.as_bytes()).skip_value().is_err());
    }

    #[test]
    fn cursor_reads_fields_and_skips_the_rest() {
        let text = r#" { "s" : "a\"b" , "skip" : {"x":[1,{"y":null}],"z":"é"},
            "n":18446744073709551615, "list":[1, 2 ,3], "b": true } "#;
        let mut cur = Cursor::new(text.as_bytes());
        let (mut key, mut s, mut n, mut list, mut b) =
            (String::new(), String::new(), 0, vec![], false);
        let mut more = cur.begin_object().unwrap();
        while more {
            cur.key_into(&mut key).unwrap();
            match key.as_str() {
                "s" => cur.string_into(&mut s).unwrap(),
                "n" => n = cur.u64_literal().unwrap(),
                "b" => b = cur.bool().unwrap(),
                "list" => {
                    let mut item = cur.begin_array().unwrap();
                    while item {
                        list.push(cur.u64_literal().unwrap());
                        item = cur.next_element().unwrap();
                    }
                }
                _ => cur.skip_value().unwrap(),
            }
            more = cur.next_member().unwrap();
        }
        cur.end().unwrap();
        assert_eq!(
            (s.as_str(), n, list, b),
            ("a\"b", u64::MAX, vec![1, 2, 3], true)
        );
    }

    #[test]
    fn u64_literal_takes_integer_literals_only() {
        let read = |text: &str| Cursor::new(text.as_bytes()).u64_literal();
        assert_eq!(read("42"), Ok(42));
        assert_eq!(read("007"), Ok(7));
        assert_eq!(read("-0"), Ok(0));
        for bad in [
            "5.0",
            "1e3",
            "9007199254740993.0",
            "-1",
            "18446744073709551616",
            "\"1\"",
            "",
        ] {
            assert!(read(bad).is_err(), "{bad}");
        }
        // The tree builder keeps the full number language.
        assert_eq!(Value::parse("1e3").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn string_into_replaces_and_skip_value_validates() {
        let mut out = String::from("stale");
        Cursor::new(br#""fresh""#).string_into(&mut out).unwrap();
        assert_eq!(out, "fresh");
        for bad in [
            &b"\"\xff\""[..],
            b"\"a\\q\"",
            b"[1,]",
            b"{\"a\" 1}",
            b"nul",
            b"\"\x01\"",
        ] {
            assert!(Cursor::new(bad).skip_value().is_err(), "{bad:?}");
            if let Ok(text) = std::str::from_utf8(bad) {
                assert!(Value::parse(text).is_err(), "{text}");
            }
        }
    }

    #[test]
    fn escaper_matches_a_per_char_reference() {
        let reference = |s: &str| {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        };
        let all_ascii: String = (0u8..0x80).map(char::from).collect();
        for s in [all_ascii.as_str(), "", "plain", "é😀\u{2028}\"\\\u{7f}"] {
            let mut out = String::new();
            write_escaped(&mut out, s).unwrap();
            assert_eq!(out, reference(s));
            assert_eq!(Value::parse(&out).unwrap().as_str(), Some(s));
        }
    }
}
