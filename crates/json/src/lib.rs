//! Dependency-free JSON for the workspace's configuration surface.
//!
//! The repository builds offline, so instead of serde this crate provides
//! the little that the configuration files of the paper's Figure 6 need —
//! and does it with the robustness the rest of the workspace is built
//! around:
//!
//! * [`Json::parse`] — a strict JSON parser whose [`ParseError`] carries
//!   the **line and column** of the offending byte,
//! * [`FromJson`] / [`ToJson`] — decode/encode traits whose
//!   [`DecodeError`] carries the **field path** (`system.machines`,
//!   `gc.algorithm.Dgc.density`, …) so an invalid config names the exact
//!   field that broke,
//! * serde-compatible conventions: externally-tagged enums
//!   (`{"Dgc": {"density": 0.01}}`), unit variants as strings
//!   (`"EfSignSgd"`), so the shipped example configs keep working.

use std::fmt;

pub mod durable;
mod lane64;
pub use lane64::{lane64, Lane64};

/// 64-bit FNV-1a: a stable, dependency-free hash for canonical JSON
/// bytes. Unlike `DefaultHasher` it is identical across processes and
/// releases, so hashes can be logged, compared, persisted (checkpoint
/// checksums), and tested deterministically. A single-byte substitution
/// in an equal-length input always changes the hash: every round
/// `h = (h ^ b) * p` is a bijection in `h` for fixed `b` (odd `p`), so
/// a divergence introduced at any position can never cancel.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a 64 hash over `bytes`:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`, so a large input
/// can be hashed in pieces without being assembled in memory.
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like serde_json's default).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A decode failure with the path of the field that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError {
    /// Dotted field path from the document root (empty at the root).
    pub path: String,
    /// What went wrong.
    pub message: String,
}

impl DecodeError {
    /// A fresh error at the current position.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            path: String::new(),
            message: message.into(),
        }
    }

    /// Returns the error with `segment` prepended to the field path —
    /// callers bubble context up as decoding unwinds.
    #[must_use]
    pub fn at(mut self, segment: &str) -> Self {
        if self.path.is_empty() {
            self.path = segment.to_string();
        } else {
            self.path = format!("{segment}.{}", self.path);
        }
        self
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.message)
        } else {
            write!(f, "field `{}`: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decoding a Rust value out of a [`Json`] tree.
pub trait FromJson: Sized {
    /// Decodes `v`, reporting failures with field-path context.
    fn from_json(v: &Json) -> Result<Self, DecodeError>;
}

/// Encoding a Rust value into a [`Json`] tree.
pub trait ToJson {
    /// Encodes `self`.
    fn to_json(&self) -> Json;
}

// ---------------------------------------------------------------------
// Value accessors.

impl Json {
    /// A short name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Decodes required object field `key`, attaching it to error paths.
    pub fn req<T: FromJson>(&self, key: &str) -> Result<T, DecodeError> {
        match self {
            Json::Obj(_) => match self.get(key) {
                Some(v) => T::from_json(v).map_err(|e| e.at(key)),
                None => Err(DecodeError::new("missing required field").at(key)),
            },
            other => Err(DecodeError::new(format!(
                "expected object, found {}",
                other.type_name()
            ))),
        }
    }

    /// Decodes optional object field `key` (`None` when absent or null).
    pub fn opt<T: FromJson>(&self, key: &str) -> Result<Option<T>, DecodeError> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => T::from_json(v).map(Some).map_err(|e| e.at(key)),
        }
    }

    /// The object's key list (empty for non-objects) — used to report
    /// unknown enum variants precisely.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

// ---------------------------------------------------------------------
// Base FromJson / ToJson impls.

macro_rules! impl_json_float {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, DecodeError> {
                match v {
                    Json::Num(n) => Ok(*n as $t),
                    other => Err(DecodeError::new(format!(
                        "expected number, found {}", other.type_name()
                    ))),
                }
            }
        }
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}

impl_json_float!(f64, f32);

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, DecodeError> {
                match v {
                    Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= <$t>::MAX as f64 => {
                        Ok(*n as $t)
                    }
                    Json::Num(n) => Err(DecodeError::new(format!(
                        "expected non-negative integer, found {n}"
                    ))),
                    other => Err(DecodeError::new(format!(
                        "expected integer, found {}", other.type_name()
                    ))),
                }
            }
        }
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}

impl_json_uint!(usize, u64, u32, u16, u8);

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(DecodeError::new(format!(
                "expected boolean, found {}",
                other.type_name()
            ))),
        }
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(DecodeError::new(format!(
                "expected string, found {}",
                other.type_name()
            ))),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        match v {
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| T::from_json(item).map_err(|e| e.at(&format!("[{i}]"))))
                .collect(),
            other => Err(DecodeError::new(format!(
                "expected array, found {}",
                other.type_name()
            ))),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

// ---------------------------------------------------------------------
// Parsing.

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!(
                "expected '{}', found {}",
                b as char,
                self.describe_current()
            )))
        }
    }

    fn describe_current(&self) -> String {
        match self.peek() {
            Some(b) if b.is_ascii_graphic() => format!("'{}'", b as char),
            Some(b) => format!("byte 0x{b:02x}"),
            None => "end of input".to_string(),
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error(format!(
                "expected a JSON value, found {}",
                self.describe_current()
            ))),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.error(format!("duplicate key \"{key}\"")));
            }
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(pairs)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.error(format!(
                        "expected ',' or '}}', found {}",
                        self.describe_current()
                    )));
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.error(format!(
                        "expected ',' or ']', found {}",
                        self.describe_current()
                    )));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = self.hex4()?;
                        // Surrogate pairs.
                        let ch = if (0xD800..0xDC00).contains(&code) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.error("unpaired surrogate"));
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.error("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(c)
                        } else {
                            char::from_u32(code)
                        };
                        match ch {
                            Some(c) => out.push(c),
                            None => return Err(self.error("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.error("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => {
                    return Err(self.error("raw control character in string"))
                }
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-for-byte.
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.error("invalid UTF-8 byte")),
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.error("truncated UTF-8 sequence"));
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.error("invalid UTF-8 sequence")),
                    }
                    self.pos = end;
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.error("invalid \\u escape")),
            };
            code = code * 16 + d;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error(format!("invalid number \"{text}\"")))
    }
}

impl Json {
    /// Parses a JSON document. The whole input must be one value (trailing
    /// whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error(format!(
                "trailing characters after JSON value ({})",
                p.describe_current()
            )));
        }
        Ok(v)
    }

    /// Parses and decodes in one step.
    pub fn decode<T: FromJson>(text: &str) -> Result<T, DecodeError> {
        let v = Json::parse(text).map_err(|e| DecodeError::new(e.to_string()))?;
        T::from_json(&v)
    }

    /// Encodes a value to a compact JSON string.
    pub fn encode<T: ToJson>(value: &T) -> String {
        value.to_json().render()
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// A canonical deep copy: object keys sorted (recursively), values
    /// otherwise untouched. Two semantically identical documents whose
    /// objects merely list keys in different orders canonicalize to equal
    /// trees — and therefore to byte-identical [`Json::render`] output,
    /// which is what cache keys should be derived from.
    #[must_use]
    pub fn canonical(&self) -> Json {
        match self {
            Json::Arr(items) => Json::Arr(items.iter().map(Json::canonical).collect()),
            Json::Obj(pairs) => {
                let mut sorted: Vec<(String, Json)> = pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.canonical()))
                    .collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Obj(sorted)
            }
            other => other.clone(),
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_close) = match indent {
            Some(w) => (
                "\n",
                " ".repeat(w * (depth + 1)),
                " ".repeat(w * depth),
            ),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    // `{}` on f64 is shortest-round-trip in Rust.
                    out.push_str(&format!("{n}"));
                } else {
                    // JSON has no Inf/NaN; null matches serde_json.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
}

/// Helpers for hand-written externally-tagged enum impls.
pub mod enums {
    use super::{DecodeError, Json};

    /// Decodes an externally-tagged enum value: either a bare string (unit
    /// variant) or a single-key object (struct variant). Returns the
    /// variant name and its payload (`Json::Null` for unit variants).
    pub fn variant(v: &Json) -> Result<(&str, &Json), DecodeError> {
        const UNIT_PAYLOAD: &Json = &Json::Null;
        match v {
            Json::Str(name) => Ok((name.as_str(), UNIT_PAYLOAD)),
            Json::Obj(pairs) if pairs.len() == 1 => {
                Ok((pairs[0].0.as_str(), &pairs[0].1))
            }
            Json::Obj(_) => Err(DecodeError::new(
                "expected an enum (single-key object or string)",
            )),
            other => Err(DecodeError::new(format!(
                "expected an enum (string or single-key object), found {}",
                other.type_name()
            ))),
        }
    }

    /// The standard "unknown variant" error.
    pub fn unknown(name: &str, expected: &[&str]) -> DecodeError {
        DecodeError::new(format!(
            "unknown variant \"{name}\", expected one of: {}",
            expected.join(", ")
        ))
    }

    /// Encodes a struct variant: `{"Name": payload}`.
    pub fn tagged(name: &str, payload: Json) -> Json {
        Json::Obj(vec![(name.to_string(), payload)])
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a fieldless enum using serde's
/// convention: each variant encodes as its name as a bare string.
#[macro_export]
macro_rules! impl_json_unit_enum {
    ($ty:ty { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                match self {
                    $(<$ty>::$variant => $crate::Json::Str(stringify!($variant).to_string()),)+
                }
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::DecodeError> {
                let (name, _) = $crate::enums::variant(v)?;
                match name {
                    $(stringify!($variant) => Ok(<$ty>::$variant),)+
                    other => Err($crate::enums::unknown(
                        other,
                        &[$(stringify!($variant)),+],
                    )),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Fabric {
        NvLink,
        Pcie,
    }
    crate::impl_json_unit_enum!(Fabric { NvLink, Pcie });

    #[test]
    fn unit_enum_macro_round_trips() {
        let v = Fabric::NvLink.to_json();
        assert_eq!(v, Json::Str("NvLink".into()));
        assert_eq!(Fabric::from_json(&v).unwrap(), Fabric::NvLink);
        let err = Fabric::from_json(&Json::Str("Ethernet".into())).unwrap_err();
        assert!(err.message.contains("NvLink"), "{err}");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e3").unwrap(), Json::Num(-2500.0));
        assert_eq!(
            Json::parse("\"a\\nb\\u00e9\"").unwrap(),
            Json::Str("a\nbé".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": false}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Str("x".into())));
        match v.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items[0], Json::Num(1.0));
                assert_eq!(items[1].get("b"), Some(&Json::Bool(false)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_carry_positions() {
        let err = Json::parse("{\n  \"a\": 1,\n  \"b\": tru\n}").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("true"), "{err}");
    }

    #[test]
    fn duplicate_keys_rejected() {
        let err = Json::parse(r#"{"a": 1, "a": 2}"#).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{} x").is_err());
    }

    #[test]
    fn round_trips_through_render() {
        let text = r#"{"name":"bert","sizes":[1,2.5,3e8],"flag":true,"none":null}"#;
        let v = Json::parse(text).unwrap();
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(v, back);
        let pretty = Json::parse(&v.pretty()).unwrap();
        assert_eq!(v, pretty);
    }

    #[test]
    fn float_rendering_round_trips_exactly() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 123456789.123456] {
            let rendered = Json::Num(x).render();
            assert_eq!(rendered.parse::<f64>().unwrap(), x, "{rendered}");
        }
    }

    #[test]
    fn canonical_sorts_keys_recursively() {
        let a = Json::parse(r#"{"b": {"y": 1, "x": [ {"q": 2, "p": 3} ]}, "a": true}"#).unwrap();
        let b = Json::parse(r#"{"a": true, "b": {"x": [ {"p": 3, "q": 2} ], "y": 1}}"#).unwrap();
        assert_ne!(a.render(), b.render(), "inputs differ in key order");
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical().render(), b.canonical().render());
        // Arrays keep their order — position is semantic in JSON.
        let arr = Json::parse("[2, 1]").unwrap();
        assert_eq!(arr.canonical().render(), "[2,1]");
    }

    #[test]
    fn decode_paths_name_the_field() {
        let v = Json::parse(r#"{"outer": {"count": "three"}}"#).unwrap();
        #[derive(Debug)]
        struct Outer;
        impl FromJson for Outer {
            fn from_json(v: &Json) -> Result<Self, DecodeError> {
                let inner: &Json = v.get("outer").unwrap();
                let _: usize = inner.req("count")?;
                Ok(Outer)
            }
        }
        let err = Outer::from_json(&v).map_err(|e| e.at("outer")).unwrap_err();
        assert_eq!(err.path, "outer.count");
        assert!(err.message.contains("integer"), "{err}");
    }

    #[test]
    fn missing_required_field_is_reported() {
        let v = Json::parse(r#"{}"#).unwrap();
        let err = v.req::<usize>("machines").unwrap_err();
        assert_eq!(err.path, "machines");
        assert!(err.message.contains("missing"), "{err}");
    }

    #[test]
    fn enum_helpers_handle_both_forms() {
        let unit = Json::parse("\"EfSignSgd\"").unwrap();
        let (name, payload) = enums::variant(&unit).unwrap();
        assert_eq!(name, "EfSignSgd");
        assert_eq!(payload, &Json::Null);

        let tagged = Json::parse(r#"{"Dgc": {"density": 0.01}}"#).unwrap();
        let (name, payload) = enums::variant(&tagged).unwrap();
        assert_eq!(name, "Dgc");
        assert_eq!(payload.req::<f64>("density").unwrap(), 0.01);
    }

    #[test]
    fn option_and_vec_decode() {
        let v = Json::parse(r#"{"xs": [1, 2, 3]}"#).unwrap();
        let xs: Vec<usize> = v.req("xs").unwrap();
        assert_eq!(xs, vec![1, 2, 3]);
        let missing: Option<f64> = v.opt("absent").unwrap();
        assert!(missing.is_none());
    }

    #[test]
    fn fnv1a64_extends_piecewise() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let text = b"espresso checkpoint";
        for split in 0..=text.len() {
            let (a, b) = text.split_at(split);
            assert_eq!(fnv1a64_extend(fnv1a64(a), b), fnv1a64(text));
        }
    }
}
