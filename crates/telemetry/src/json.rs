//! Std-only JSON (no serde in this workspace): the writer helpers
//! [`escape`] and [`fmt_f64`], and the strict reader [`parse`]. Every crate
//! reads and escapes its committed artifacts — goldens, `SLO.json`, bench
//! logs, lint JSONL, Chrome traces, loadgen reports — through this module.

/// Deepest array/object nesting [`parse`] accepts. The workspace's own
/// documents nest at most four levels; the cap keeps a user-supplied file
/// (e.g. `gsu-bench profile --trace`) from exhausting the stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token so integers above 2^53 and floats
    /// both convert without loss (see [`Value::as_u64`], [`Value::as_f64`]).
    Number(String),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members in document order (an ordered list, not a map,
    /// so iterating one is deterministic).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The first member named `key`, when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Object(members) = self else {
            return None;
        };
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Member `key` converted by `as_t` (e.g. [`Value::as_f64`]), or an
    /// error naming the key when it is missing or of another type.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        as_t: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        let value = self.get(key).and_then(as_t);
        value.ok_or_else(|| format!("missing or mistyped field {key:?}"))
    }

    /// The elements, when `self` is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string, when `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when `self` is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number through `str::parse::<f64>` — bit-identical to parsing
    /// the token directly, so values written by [`fmt_f64`] round-trip.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as an exact `u64`: `None` for fractions, exponents,
    /// negatives and values above `u64::MAX`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

/// Parses one complete JSON document (RFC 8259), rejecting trailing
/// content and nesting deeper than [`MAX_DEPTH`].
///
/// # Errors
///
/// Describes the first malformation with its byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.error("trailing content"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, b: u8, what: &str) -> Result<(), String> {
        self.skip_ws();
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.error(what))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        let depth = depth + 1;
        match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.elements(depth, b']', |p| {
                    items.push(p.value(depth)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.elements(depth, b'}', |p| {
                    let key = p.string()?;
                    p.consume(b':', "expected `:`")?;
                    members.push((key, p.value(depth)?));
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => Err(self.error("expected a value")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("expected a value"))
        }
    }

    /// Reads a `,`-separated array or object body at nesting `depth`, from
    /// its opening bracket through `close`, one `element` call per entry.
    fn elements(
        &mut self,
        depth: usize,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if depth > MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            element(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.error(&format!("expected `,` or `{}`", close as char)));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"', "expected a string")?;
        let mut out = String::new();
        loop {
            // Stops only at ASCII bytes, so both slice ends are char
            // boundaries.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escaped_char()?);
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Decodes the escape after a backslash, `\uXXXX` surrogate pairs
    /// included.
    fn escaped_char(&mut self) -> Result<char, String> {
        let simple = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let high = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&high) {
                    if !self.text[self.pos..].starts_with("\\u") {
                        return Err(self.error("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.error("unpaired surrogate"));
                    }
                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    high
                };
                return char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"));
            }
            _ => return Err(self.error("bad escape")),
        };
        self.pos += 1;
        Ok(simple)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.text.get(self.pos..self.pos + 4);
        let code = digits.filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()));
        let code = code.and_then(|d| u32::from_str_radix(d, 16).ok());
        self.pos += 4;
        code.ok_or_else(|| self.error("bad \\u escape"))
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, kept raw.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        let int_ok = self.eat(b'0') || (matches!(self.peek(), Some(b'1'..=b'9')) && self.digits());
        let frac_ok = !self.eat(b'.') || self.digits();
        let exp_ok = !(self.eat(b'e') || self.eat(b'E')) || {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            self.digits()
        };
        if int_ok && frac_ok && exp_ok {
            Ok(Value::Number(self.text[start..self.pos].to_string()))
        } else {
            Err(self.error("bad number"))
        }
    }
}

/// Escapes `s` for embedding inside a JSON string literal (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Formats an `f64` as a JSON number. Non-finite values have no JSON
/// representation and render as `null`.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // Rust's `{}` prints the shortest representation that round-trips,
        // and prints integral values without a trailing ".0" — both are
        // valid JSON numbers.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\n\t\r"), "x\\n\\t\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn formats_numbers() {
        assert_eq!(fmt_f64(11.0), "11");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn accepts_every_value_kind() {
        let doc = r#" {"a": [1, -2.5e3, true, null, "\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00"],
                       "o": {}} "#;
        let v = parse(doc).unwrap();
        let a = v.field("a", Value::as_array).unwrap();
        assert_eq!((a[0].as_u64(), a[0].as_f64()), (Some(1), Some(1.0)));
        assert_eq!((a[1].as_u64(), a[1].as_f64()), (None, Some(-2500.0)));
        assert_eq!((a[2].as_bool(), &a[3]), (Some(true), &Value::Null));
        assert_eq!(a[4].as_str(), Some("\"\\/\u{8}\u{c}\n\r\t\u{e9}\u{1f600}"));
        assert_eq!(v.get("o"), Some(&Value::Object(Vec::new())));
        assert!(v.field("a", Value::as_str).unwrap_err().contains("\"a\""));
    }

    #[test]
    fn rejects_malformed_documents() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let cases = [
            ("", "unexpected end of input"),
            ("\"abc", "unterminated string"),
            (r#""a\qb""#, "bad escape"),
            (r#""\u12G4""#, "bad \\u escape"),
            (r#""\ud800""#, "unpaired surrogate"),
            ("\"a\u{1}b\"", "control character in string"),
            ("[1,]", "expected a value"),
            (r#"{"a":1,}"#, "expected a string"),
            (r#"{"a" 1}"#, "expected `:`"),
            ("[1 2]", "expected `,` or `]`"),
            ("{} x", "trailing content"),
            ("01", "trailing content"),
            ("1.", "bad number"),
            ("-", "bad number"),
            ("1e+", "bad number"),
            (".5", "expected a value"),
            ("tru", "expected a value"),
            ("NaN", "expected a value"),
            (&nested(MAX_DEPTH + 1), "nesting deeper than 64"),
        ];
        for (doc, why) in cases {
            let err = parse(doc).expect_err(doc);
            assert!(err.contains(why), "{doc:?}: {err}");
        }
    }

    #[test]
    fn numbers_convert_exactly() {
        let big = (1u64 << 53) + 1;
        assert_eq!(parse(&big.to_string()).unwrap().as_u64(), Some(big));
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        let tokens = "0 -0 0.30000000000000004 2.2250738585072014e-308 4.9e-324 1E-7 \
                      1.7976931348615157e308 9007199254740993 123456789012345678901234567890";
        for tok in tokens.split_whitespace() {
            let parsed = parse(tok).unwrap().as_f64().map(f64::to_bits);
            assert_eq!(parsed, tok.parse().ok().map(f64::to_bits), "{tok}");
        }
    }

    proptest! {
        #[test]
        fn escape_round_trips_arbitrary_strings(
            codes in collection::vec((0u32..0x11_0000, 0usize..3), 0..24)
        ) {
            // Fold two thirds of the draws into ASCII and the two-byte range
            // so quotes, backslashes and control characters turn up often.
            let s: String = codes
                .into_iter()
                .filter_map(|(c, width)| char::from_u32([c % 0x80, c % 0x800, c][width]))
                .collect();
            prop_assert_eq!(parse(&format!("\"{}\"", escape(&s))), Ok(Value::Str(s.clone())));
        }
    }
}
