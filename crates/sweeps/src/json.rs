//! A minimal JSON value, writer and scanner.
//!
//! The workspace is offline (no `serde_json`; the vendored `serde` is a
//! marker-trait stand-in), so the sweep subsystem carries its own small JSON
//! implementation.  Design constraints, in order:
//!
//! 1. **Exact round-trips.**  Specs are hash-addressed and exports must be
//!    byte-identical across resumes, so numbers keep their type: unsigned and
//!    signed integers are preserved as integers, and floats are written with
//!    Rust's shortest round-trip formatting (`{:?}`) and re-parsed to the
//!    identical bits.  The writer prints integral floats and short decimals
//!    itself, byte for byte what `{:?}` prints (see `write_f64` for why),
//!    and hands every other float to `{:?}`.
//! 2. **Stable output.**  Objects preserve insertion order; writers always
//!    emit the same bytes for the same value, which is what makes spec
//!    hashing and byte-identical resume possible.
//! 3. **One grammar.**  A `Scanner` holds the whole grammar: whitespace,
//!    literals, strings with their escapes, numbers, and containers nested at
//!    most [`MAX_DEPTH`] deep.  [`parse`] builds a [`Json`] tree with it; the
//!    cell-record codec reads records field by field with the same scanner
//!    and never builds a tree; it reads the members of its own objects in
//!    the order it writes them (`Scanner::fields`) and takes any other
//!    order too.  The writers (`write_str`, `write_f64`) likewise serve both
//!    the tree and the codec, so a record written either way has the same
//!    bytes.
//! 4. **Small surface.**  Only what the sweep store needs: no comments, no
//!    trailing commas, UTF-8 strings with the standard escapes.

use std::borrow::Cow;
use std::fmt::{self, Write};

/// The deepest container nesting the scanner accepts.  The crate writes at
/// most 9 levels (a JSON export: document, cell list, cell, record,
/// metrics, aggregate, sketch list, sketch, marker array; a shard line is
/// the last 6); the limit keeps a corrupt or hostile document from
/// exhausting the stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer without fraction or exponent.
    UInt(u64),
    /// A negative integer without fraction or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved on write.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn object(pairs: Vec<(String, Json)>) -> Self {
        Json::Object(pairs)
    }

    /// Looks up a key in an object (`None` for non-objects/missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (integral floats included) when exactly
    /// representable.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Int(v) => u64::try_from(v).ok(),
            Json::Float(v) if v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53) => Some(v as u64),
            _ => None,
        }
    }

    /// The value as `f64` for any numeric variant.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(v) => Some(v as f64),
            Json::Int(v) => Some(v as f64),
            Json::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `&str` for strings.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn write<W: Write + ?Sized>(&self, out: &mut W) {
        match self {
            Json::Null => push(out, "null"),
            Json::Bool(true) => push(out, "true"),
            Json::Bool(false) => push(out, "false"),
            Json::UInt(v) => write_u64(out, *v),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => {
                push(out, "[");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        push(out, ",");
                    }
                    item.write(out);
                }
                push(out, "]");
            }
            Json::Object(pairs) => {
                push(out, "{");
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        push(out, ",");
                    }
                    write_str(out, key);
                    push(out, ":");
                    value.write(out);
                }
                push(out, "}");
            }
        }
    }
}

impl fmt::Display for Json {
    /// The canonical single-line serialization (`value.to_string()` is the
    /// byte-stable form used for hashing and the shard store).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f);
        Ok(())
    }
}

/// Appends raw text.  Every sink in this crate (`String`, a hasher, a
/// `Formatter` writing into a `String`) is infallible.
pub(crate) fn push<W: Write + ?Sized>(out: &mut W, text: &str) {
    let _ = out.write_str(text);
}

/// Writes `s` as a JSON string: quoted, with `"`, `\` and control
/// characters escaped and everything else (all of UTF-8) verbatim.
pub(crate) fn write_str<W: Write + ?Sized>(out: &mut W, s: &str) {
    push(out, "\"");
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Escaped bytes are ASCII, so `run..i` never splits a character.
        push(out, &s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            push(out, escape);
        }
        run = i + 1;
    }
    push(out, &s[run..]);
    push(out, "\"");
}

/// Writes a float in Rust's shortest round-trip form (`{:?}`).  That form
/// always holds a `.` or an exponent, so the scanner reads it back as a
/// float, never as an integer.  JSON has no non-finite literals: they are
/// written as `null`, which keeps the document well-formed (sweeps never
/// emit non-finite metrics, so this is a guard, not a code path).
///
/// Two kinds of value skip the float formatter, and each prints what `{:?}`
/// prints:
///
/// * Integral values below 1e16 — most of a record: counts, ranks, marker
///   positions.  `{:?}` prints them in decimal notation with every integer
///   digit (an integer that small is the only value its digits round to, so
///   no shorter digit string exists) and `.0`, which is what the integer
///   path writes.
/// * Short decimals: a non-integral `v` with 1e-4 ≤ |v| < 2^47
///   ([`SHORT_DECIMAL_END`]), where `{:?}` prints positionally, whose
///   shortest form fits the digits [`short_decimal`] tries.  It writes
///   `m / 10^d` for the fewest fraction digits `d` that read back as `|v|`;
///   the proof that this is the string `{:?}` prints is on
///   [`short_decimal`].
pub(crate) fn write_f64<W: Write + ?Sized>(out: &mut W, value: f64) {
    // The token, built at the end of `buffer`: at most a sign, 16 integer
    // digits and `.0`, or a sign and 21 characters of a short decimal.
    let mut buffer = [b'0'; 24];
    let end = buffer.len();
    let mut start = if value.fract() == 0.0 && value.abs() < 1e16 {
        buffer[end - 2..].copy_from_slice(b".0");
        fill_digits(&mut buffer[..end - 2], value.abs() as u64)
    } else if let Some((digits, fraction)) = short_decimal(value.abs()) {
        // At least one integer digit: `0.05` is `5` padded to three digits.
        let point = end - fraction - 1;
        let first = fill_digits(&mut buffer, digits).min(point);
        buffer.copy_within(first..=point, first - 1);
        buffer[point] = b'.';
        first - 1
    } else if value.is_finite() {
        let _ = write!(out, "{value:?}");
        return;
    } else {
        push(out, "null");
        return;
    };
    if value.is_sign_negative() {
        start -= 1;
        buffer[start] = b'-';
    }
    push_ascii(out, &buffer[start..]);
}

/// The end of [`short_decimal`]'s range: `2^47`, the first magnitude with
/// fewer than one fraction digit to try.
const SHORT_DECIMAL_END: f64 = 140_737_488_355_328.0;

/// A non-integral `a` as `m / 10^d` with the fewest fraction digits `d`,
/// when `1e-4 ≤ a < 2^47` (where `{:?}` prints positionally) and some
/// decimal of at most `D` fraction digits reads back as `a`; `None`
/// otherwise.  `D` is the largest count with `10^D ≤ 2^(50−e)`, where
/// `2^e ≤ a < 2^(e+1)`: 15 digits for `a` in [1, 2), 19 at the bottom of
/// the range, 1 below [`SHORT_DECIMAL_END`].  From there on `D` would be 0
/// and no non-integral value passes the test, so the range ends there.
///
/// Why this is the decimal `{:?}` prints.  `{:?}` prints the shortest
/// decimal that reads back as `a` (the nearest one on a tie in length).
/// The reals that read back as `a` form an interval `I` at most
/// `ulp(a) = 2^(e−52)` wide, and `ulp(a) · 10^D ≤ 1/4`.
///
/// 1. `I` holds at most one multiple of `10^−D`, since they lie `10^−D`
///    apart: so at most one decimal of at most `D` fraction digits reads
///    back as `a`, and no tie arises.
/// 2. If that decimal `c = m′ / 10^D` exists, the test finds it.  The real
///    `a · 10^D` lies within `1/8` of `m′`, and its computed product `p` is
///    no farther from it than the double `m′` is, so `p` is within `1/4` of
///    `m′` and rounding it gives `m′`.  `m′ ≤ 2^51` and `10^D` (`D ≤ 19`)
///    are exact doubles, so `m′ / 10^D` is correctly rounded: it equals `a`
///    exactly because `c` reads back as `a`.  Conversely an `m` that passes
///    the test is a decimal in `I`, so by (1) it is `m′`.
/// 3. Dropping `c`'s trailing zero digits gives the fewest fraction digits
///    `d`: a decimal with fewer that reads back as `a` is also a multiple of
///    `10^−D` in `I`, hence `c`.  All of `I` lies between the same powers of
///    ten (a power of ten in `I` has one digit and wins outright), so the
///    fewest fraction digits are the fewest digits: the shortest decimal.
/// 4. `d ≥ 1`, so `{:?}` prints `m / 10^d` with no `.0` appended: no
///    integer reads back as a non-integral `a`, whose fractional part is a
///    non-zero multiple of `ulp(a)`.
fn short_decimal(a: f64) -> Option<(u64, usize)> {
    const POW10: [f64; 20] = [
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
        1e17, 1e18, 1e19,
    ];
    if !(1e-4..SHORT_DECIMAL_END).contains(&a) {
        return None;
    }
    // `a ≥ 1e-4` is normal, so its biased exponent is `e + 1023`.
    let e = ((a.to_bits() >> 52) & 0x7FF) as i64 - 1023;
    // ⌊(50 − e) · log₁₀ 2⌋, with log₁₀ 2 rounded down to 78913 / 2¹⁸:
    // between 1 (e = 46) and 19 (e = −14).
    let max_digits = (((50 - e) * 78_913) >> 18) as usize;
    let scale = POW10[max_digits];
    // Round half up.  The sum is exact below 2^51; at the top of the range
    // a rounded sum can only miss `m′`, which then fails the test.
    let m = (a * scale + 0.5).trunc();
    if m / scale != a {
        return None;
    }
    let (mut m, mut d) = (m as u64, max_digits);
    for (zeros, pow) in [(8, 100_000_000), (4, 10_000), (2, 100), (1, 10)] {
        while d > zeros && m.is_multiple_of(pow) {
            m /= pow;
            d -= zeros;
        }
    }
    Some((m, d))
}

/// `"00"`, `"01"`, …, `"99"`: the digits of each value below 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `value`'s decimal digits into the end of `buffer`, two per step,
/// and returns the index of the first.
fn fill_digits(buffer: &mut [u8], mut value: u64) -> usize {
    let mut start = buffer.len();
    while value >= 100 {
        let pair = (value % 100) as usize * 2;
        value /= 100;
        start -= 2;
        buffer[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if value >= 10 {
        let pair = value as usize * 2;
        start -= 2;
        buffer[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        buffer[start] = b'0' + value as u8;
    }
    start
}

/// Writes a number token built in a byte buffer (digits, `.`, `-`) one
/// character at a time: for a token this short, cheaper than checking the
/// bytes as UTF-8 to write them as one `&str`.
fn push_ascii<W: Write + ?Sized>(out: &mut W, token: &[u8]) {
    for &byte in token {
        let _ = out.write_char(char::from(byte));
    }
}

/// Writes an unsigned integer in decimal.
pub(crate) fn write_u64<W: Write + ?Sized>(out: &mut W, value: u64) {
    let mut buffer = [b'0'; 20];
    let start = fill_digits(&mut buffer, value);
    push_ascii(out, &buffer[start..]);
}

/// Parses a JSON document; the whole input must be one value (surrounding
/// whitespace allowed).
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error, or of
/// the container that nests deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, String> {
    let mut scanner = Scanner::new(input);
    scanner.skip_ws();
    let value = scanner.value()?;
    scanner.finish()?;
    Ok(value)
}

/// A cursor over JSON text that reads one token or container at a time.
///
/// [`parse`] and the record codec both read through it, so they accept
/// exactly the same documents.  Container readers ([`Scanner::object`],
/// [`Scanner::array`]) hand each member to a callback positioned at its
/// value; the callback reads that value with any reader here, which is how
/// a typed reader fills a struct field by field without building a tree.
pub(crate) struct Scanner<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Scanner<'a> {
    /// A scanner at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    /// Skips JSON whitespace.
    pub(crate) fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    /// Requires the end of the input, after optional whitespace.
    pub(crate) fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Reads any value as a [`Json`] tree.
    pub(crate) fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|s| {
                    items.push(s.value()?);
                    Ok(())
                })?;
                Ok(Json::Array(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.object(|s, key| {
                    pairs.push((key.into_owned(), s.value()?));
                    Ok(())
                })?;
                Ok(Json::Object(pairs))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte `{}` at {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Reads and discards any value (an unknown field).
    pub(crate) fn skip_value(&mut self) -> Result<(), String> {
        self.value().map(drop)
    }

    /// Opens one container level, failing past [`MAX_DEPTH`].
    fn enter(&mut self, open: u8) -> Result<(), String> {
        self.expect(open)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "containers nest deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.skip_ws();
        Ok(())
    }

    /// After an element: consumes `,` (more follow, returns `false`) or the
    /// closing byte (returns `true`).
    fn next_or_close(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(false)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(true)
            }
            _ => Err(format!(
                "expected `,` or `{}` at byte {}",
                char::from(close),
                self.pos
            )),
        }
    }

    /// Reads an array, calling `item` once per element with the scanner at
    /// the element's first byte.
    pub(crate) fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.enter(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            item(self)?;
            if self.next_or_close(b']')? {
                return Ok(());
            }
        }
    }

    /// Reads an object, calling `member` once per member with its key and
    /// the scanner at the first byte of its value.  Keys are passed in
    /// document order; duplicates are the caller's to detect.
    pub(crate) fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.members(|s| {
            let key = s.key()?;
            member(s, key)
        })
    }

    /// Reads an object whose writer emits the members `keys` in that
    /// order, calling `member` once per member with the index of its key in
    /// `keys` (`keys.len()` for any other key) and the scanner at the first
    /// byte of its value.  Keys are passed in document order; duplicates
    /// are the caller's to detect.
    ///
    /// While the members come in `keys` order, each key is matched in
    /// place as the bytes `"key"`, without reading it as a string or
    /// looking it up.  From the first member out of place on (a key
    /// reordered, repeated, unknown or spelled with escapes) every key is
    /// read as [`Self::object`] reads it and looked up in `keys`.  Both
    /// paths consume the same bytes and hand the same index to the same
    /// `member`, so they accept the same documents with the same errors.
    pub(crate) fn fields(
        &mut self,
        keys: &[&str],
        mut member: impl FnMut(&mut Self, usize) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut next = Some(0);
        self.members(|s| {
            let field = match next {
                Some(i) if keys.get(i).is_some_and(|key| s.eat_quoted(key)) => {
                    s.skip_ws();
                    s.expect(b':')?;
                    s.skip_ws();
                    next = Some(i + 1);
                    i
                }
                _ => {
                    next = None;
                    let key = s.key()?;
                    keys.iter().position(|k| *k == key).unwrap_or(keys.len())
                }
            };
            member(s, field)
        })
    }

    /// The loop behind [`Self::object`] and [`Self::fields`]: `member`
    /// reads one member, key and value.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.enter(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            member(self)?;
            if self.next_or_close(b'}')? {
                return Ok(());
            }
        }
    }

    /// Reads a member's key and the `:` after it.
    fn key(&mut self) -> Result<Cow<'a, str>, String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// Consumes `"key"` when the input holds exactly those bytes here.
    fn eat_quoted(&mut self, key: &str) -> bool {
        let (rest, len) = (&self.bytes()[self.pos..], key.len());
        let found = rest.len() > len + 1
            && rest[0] == b'"'
            && rest[len + 1] == b'"'
            && rest[1..=len] == *key.as_bytes();
        if found {
            self.pos += len + 2;
        }
        found
    }

    /// Reads a string.  An escape-free string borrows from the input.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            // Fast-forward over the plain (unescaped, ASCII-or-UTF-8) run.
            while let Some(&b) = self.bytes().get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The run ends at an ASCII byte (or the end), so it is whole
            // characters of the `&str` input.
            let run = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut text) => {
                            text.push_str(run);
                            Cow::Owned(text)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    let text = owned.get_or_insert_with(String::new);
                    text.push_str(run);
                    text.push(c);
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    /// Decodes the escape after a `\`.
    fn escape(&mut self) -> Result<char, String> {
        let escape = self
            .peek()
            .ok_or_else(|| "unterminated escape".to_string())?;
        self.pos += 1;
        Ok(match escape {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'u' => {
                let code = self.hex4()?;
                // A high surrogate must be followed by an escaped low
                // surrogate; any other code point in D800-DFFF is an error
                // (`char::from_u32` rejects a lone low surrogate).
                let c = if (0xD800..0xDC00).contains(&code) {
                    if self.bytes()[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let low = self.hex4()?;
                        if (0xDC00..0xE000).contains(&low) {
                            char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                        } else {
                            None
                        }
                    } else {
                        None
                    }
                } else {
                    char::from_u32(code)
                };
                c.ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?
            }
            other => return Err(format!("unknown escape `\\{}`", char::from(other))),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let mut code = 0;
        for &digit in digits {
            let nibble = char::from(digit)
                .to_digit(16)
                .ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?;
            code = code * 16 + nibble;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Reads a number: `UInt`/`Int` when it has no fraction or exponent and
    /// fits in 64 bits, `Float` otherwise.
    ///
    /// One pass: the scan that finds the token's end also takes its sign,
    /// its digits as an integer `m` (exact up to 19 digits, which never
    /// overflow a `u64`) and the digit count before the `.`.  It reads the
    /// integer digits, then a `.` and the fraction digits, each in a tight
    /// loop.  A token that goes on after them (a second `.`, an exponent, a
    /// sign) is not plain: the scan runs on to its end.  That settles the
    /// tokens a store holds without a second look at the text:
    ///
    /// * `-?digits`, at most 19 digits: `m` itself, negated for `Int` (`-0`
    ///   is `Int(0)`, and `m = 2⁶³` negates to `i64::MIN`);
    /// * `-?digits.digits`, at most 19 digits, `m ≤ 2⁵³`: `m / 10^f` for `f`
    ///   fraction digits, negated when signed (`-0.0` stays -0.0).  Both
    ///   operands are exact doubles (powers of ten are exact up to 10²²), so
    ///   the one division is correctly rounded: the value `str::parse`
    ///   returns (Clinger's fast path).
    ///
    /// Everything else — exponents, more than 19 digits, a larger mantissa,
    /// an integer outside 64 bits, malformed tokens — goes to `str::parse`,
    /// which also decides what is an error.
    pub(crate) fn number(&mut self) -> Result<Json, String> {
        self.read_number().map(Json::from)
    }

    /// Reads a number as `f64` (any numeric form, as [`Json::as_f64`]).
    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        Ok(match self.read_number()? {
            Number::UInt(v) => v as f64,
            Number::Int(v) => v as f64,
            Number::Float(v) => v,
        })
    }

    /// Reads a number as `u64` (integral floats included, as
    /// [`Json::as_u64`]).
    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        let start = self.pos;
        Json::from(self.read_number()?)
            .as_u64()
            .ok_or_else(|| format!("expected an unsigned integer at byte {start}"))
    }

    /// The one number reader behind [`Self::number`], [`Self::f64`] and
    /// [`Self::u64`].  Inlined into each, so the typed readers never build
    /// a [`Json`] value.
    #[inline(always)]
    fn read_number(&mut self) -> Result<Number, String> {
        const POW10: [f64; 19] = [
            1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
            1e16, 1e17, 1e18,
        ];
        let start = self.pos;
        let bytes = self.bytes();
        let negative = match bytes.get(start) {
            Some(b'-') => true,
            Some(b'0'..=b'9') => false,
            _ => return Err(format!("expected a number at byte {start}")),
        };
        // Reads the digits from `at` on into `mantissa` (wrapping past 19
        // digits, where it is not used) and returns where they end.
        let digits_from = |mut at: usize, mantissa: &mut u64| {
            while let Some(&b @ b'0'..=b'9') = bytes.get(at) {
                *mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
                at += 1;
            }
            at
        };
        let first = start + usize::from(negative);
        let mut mantissa = 0u64;
        let int_end = digits_from(first, &mut mantissa);
        // `point`: digits before the `.`; `plain`: digits and at most one `.`.
        let (mut end, point) = if bytes.get(int_end) == Some(&b'.') {
            (
                digits_from(int_end + 1, &mut mantissa),
                Some(int_end - first),
            )
        } else {
            (int_end, None)
        };
        let plain = !matches!(bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        let digits = end - first - usize::from(point.is_some());
        if plain && digits <= 19 {
            self.pos = end;
            match point {
                None if !negative => return Ok(Number::UInt(mantissa)),
                None if digits > 0 && mantissa <= 1 << 63 => {
                    return Ok(Number::Int((mantissa as i64).wrapping_neg()));
                }
                Some(int) if int > 0 && int < digits && mantissa <= 1 << 53 => {
                    let value = mantissa as f64 / POW10[digits - int];
                    return Ok(Number::Float(if negative { -value } else { value }));
                }
                _ => {}
            }
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(end) {
            end += 1;
        }
        self.pos = end;
        let text = &self.text[start..end];
        if plain && point.is_none() {
            // Past 19 digits an integer may still fit in 64 bits.
            let int = if negative {
                text.parse().map(Number::Int)
            } else {
                text.parse().map(Number::UInt)
            };
            if let Ok(int) = int {
                return Ok(int);
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

/// A number token's value: the numeric [`Json`] variants alone.
#[derive(Clone, Copy)]
enum Number {
    UInt(u64),
    Int(i64),
    Float(f64),
}

impl From<Number> for Json {
    fn from(number: Number) -> Self {
        match number {
            Number::UInt(v) => Json::UInt(v),
            Number::Int(v) => Json::Int(v),
            Number::Float(v) => Json::Float(v),
        }
    }
}

/// Fills one field of a record being read: a key seen twice is an error.
pub(crate) fn put<T>(slot: &mut Option<T>, key: &str, value: T) -> Result<(), String> {
    if slot.replace(value).is_some() {
        return Err(format!("duplicate key `{key}`"));
    }
    Ok(())
}

/// A field every record must have.
pub(crate) fn required<T>(slot: Option<T>, key: &str) -> Result<T, String> {
    slot.ok_or_else(|| format!("missing `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(text: &str) {
        let value = parse(text).expect("parses");
        assert_eq!(value.to_string(), text, "canonical round trip");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip("null");
        round_trip("true");
        round_trip("false");
        round_trip("0");
        round_trip("18446744073709551615"); // u64::MAX survives exactly
        round_trip("-42");
        round_trip("0.25");
        round_trip("1e20");
        round_trip("\"hello\"");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, 1.0 / 3.0, 2.5e-17, f64::MAX, -0.0, 123456.789] {
            let text = Json::Float(v).to_string();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via `{text}`");
        }
    }

    /// The fast paths of `write_f64` and `number` against `{:?}` and
    /// `str::parse`, on edge values and random ones spread over every
    /// magnitude.
    #[test]
    fn number_fast_paths_match_the_general_ones() {
        use rand::{Rng, SeedableRng};

        let check = |v: f64| {
            let mut text = String::new();
            write_f64(&mut text, v);
            assert_eq!(text, format!("{v:?}"), "write {v:e}");
            let back = Scanner::new(&text).f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "read `{text}`");
        };
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            9_007_199_254_740_992.0,
            9_007_199_254_740_994.0,
            9_999_999_999_999_998.0,
            1e16,
            1e15,
            123_456_789_012_345.6,
            0.1,
            1e-4,
            9.999_999_999_999_999e-5,
            5e-324,
            f64::MAX,
        ] {
            check(v);
            check(-v);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for _ in 0..100_000 {
            let scale = 10f64.powi(rng.gen_range(-30..30));
            let v = rng.gen_range(-1.0..1.0) * scale;
            check(v);
            check(v.trunc());
            check(f64::from_bits(
                rng.gen::<u64>() & !(0x7FF << 52) | (rng.gen_range(0..2046u64) << 52),
            ));
        }
        // Decimal spellings the writer never produces still read exactly.
        for _ in 0..50_000 {
            let int_digits = rng.gen_range(0..10);
            let int: u64 = rng.gen_range(0..10u64.pow(int_digits));
            let frac_len = rng.gen_range(1..12usize);
            let frac: String = (0..frac_len)
                .map(|_| char::from(b'0' + rng.gen_range(0..10u8)))
                .collect();
            let text = format!("{int}.{frac}");
            let parsed = Scanner::new(&text).f64().unwrap();
            assert_eq!(
                parsed.to_bits(),
                text.parse::<f64>().unwrap().to_bits(),
                "{text}"
            );
        }
    }

    /// `write_f64` against `{:?}` on decimals `m / 10^d` at every fraction
    /// digit count the short-decimal path takes (1 to 19), at the edges of
    /// its range and their neighbours, and at ±0.0.  The random values of
    /// `number_fast_paths_match_the_general_ones` run through the same
    /// check there.
    #[test]
    fn short_decimals_print_as_debug() {
        use rand::{Rng, SeedableRng};

        let check = |v: f64| {
            for v in [v, -v] {
                let mut text = String::new();
                write_f64(&mut text, v);
                assert_eq!(text, format!("{v:?}"), "write {v:e}");
            }
        };
        // Per fraction digit count: decimals written by the short path.
        let mut taken = [0u32; 20];
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        for i in 0..400_000u32 {
            let d = 1 + i % 19;
            // Half with a random digit count, half from 1e-4 up.
            let m = if i % 2 == 0 {
                let len = rng.gen_range(1..=16);
                rng.gen_range(1..10u64.pow(len))
            } else {
                rng.gen_range(10u64.pow(d.saturating_sub(4))..10u64.pow((d + 5).min(16)))
            };
            let v = m as f64 / 10f64.powi(d as i32);
            check(v);
            if v.fract() == 0.0 {
                continue;
            }
            if let Some((digits, fraction)) = short_decimal(v) {
                taken[fraction] += 1;
                // The path's digits are those of `{:?}`.
                let shown = format!("{v:?}").replace('.', "");
                assert_eq!(digits.to_string(), shown.trim_start_matches('0'), "{v:e}");
            }
        }
        for (d, &count) in taken.iter().enumerate().skip(1) {
            assert!(count >= 100, "{d} fraction digits taken {count} times");
        }
        assert_eq!(taken[0], 0, "a short decimal has a fraction digit");

        // The path's range edges (1e-4 and 2^47), the integer path's (1e16),
        // every binade (where the digit budget changes) and their
        // neighbours.
        assert_eq!(SHORT_DECIMAL_END, 2f64.powi(47));
        let mut edges = vec![0.0, 1e-4, SHORT_DECIMAL_END, 1e16, 0.1, 0.5, 1.5];
        edges.extend((-14..=53).map(|e| 2f64.powi(e)));
        for edge in edges {
            for v in [edge, edge.next_up(), edge.next_down()] {
                check(v);
                check(v + 0.5);
            }
        }
        assert!(short_decimal(1e-4).is_some());
        assert!(short_decimal(1e-4f64.next_down()).is_none());
        assert!(short_decimal(SHORT_DECIMAL_END - 0.5).is_some());
        assert!(short_decimal(SHORT_DECIMAL_END + 0.5).is_none());
    }

    /// The two-pass number reader the one-pass `Scanner::number` replaced:
    /// scan the token, then re-read it as an integer, as `-?digits.digits`
    /// with an exact division, or with `str::parse`.  Returns the result and
    /// the end position.
    fn two_pass_number(text: &str, start: usize) -> (Result<Json, String>, usize) {
        fn exact_decimal(text: &str) -> Option<f64> {
            const POW10: [f64; 23] = [
                1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14,
                1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
            ];
            let (negative, body) = match text.strip_prefix('-') {
                Some(body) => (true, body),
                None => (false, text),
            };
            let (int, frac) = body.split_once('.')?;
            if int.is_empty() || frac.is_empty() || int.len() + frac.len() > 19 {
                return None;
            }
            let mut mantissa = 0u64;
            for digit in int.bytes().chain(frac.bytes()) {
                if !digit.is_ascii_digit() {
                    return None;
                }
                mantissa = mantissa * 10 + u64::from(digit - b'0');
            }
            if mantissa > 1 << 53 {
                return None;
            }
            let value = mantissa as f64 / POW10[frac.len()];
            Some(if negative { -value } else { value })
        }
        let bytes = text.as_bytes();
        if !matches!(bytes.get(start), Some(b'-' | b'0'..=b'9')) {
            return (Err(format!("expected a number at byte {start}")), start);
        }
        let mut pos = start + 1;
        let mut is_float = false;
        while let Some(&b) = bytes.get(pos) {
            match b {
                b'0'..=b'9' => pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    pos += 1;
                }
                _ => break,
            }
        }
        let token = &text[start..pos];
        if !is_float {
            if token.starts_with('-') {
                if let Ok(v) = token.parse::<i64>() {
                    return (Ok(Json::Int(v)), pos);
                }
            } else if let Ok(v) = token.parse::<u64>() {
                return (Ok(Json::UInt(v)), pos);
            }
        }
        let value = exact_decimal(token)
            .map_or_else(|| token.parse::<f64>(), Ok)
            .map(Json::Float)
            .map_err(|_| format!("invalid number `{token}` at byte {start}"));
        (value, pos)
    }

    /// A number's variant and exact bits (`Json`'s `==` equates 0.0 and
    /// -0.0).
    fn bits(value: &Result<Json, String>) -> Result<(u8, u64), String> {
        match value {
            Ok(Json::UInt(v)) => Ok((0, *v)),
            Ok(Json::Int(v)) => Ok((1, *v as u64)),
            Ok(Json::Float(v)) => Ok((2, v.to_bits())),
            Ok(other) => panic!("a number reader returned {other:?}"),
            Err(err) => Err(err.clone()),
        }
    }

    /// `number`, `f64` and `u64` on `text` from byte `start` return what the
    /// two-pass reader (and `f64`/`u64` over it) returns, bit for bit, and
    /// end where it ends.
    fn check_against_two_pass(text: &str, start: usize) {
        let (expected, end) = two_pass_number(text, start);
        let scanner = || Scanner {
            pos: start,
            ..Scanner::new(text)
        };
        let mut s = scanner();
        assert_eq!(bits(&s.number()), bits(&expected), "number `{text}`");
        assert_eq!(s.pos, end, "number end `{text}`");

        let mut s = scanner();
        let expected_f64 = expected.clone().and_then(|v| {
            v.as_f64()
                .ok_or_else(|| format!("expected a float at byte {start}"))
        });
        assert_eq!(
            s.f64().map(f64::to_bits),
            expected_f64.map(f64::to_bits),
            "f64 `{text}`"
        );
        assert_eq!(s.pos, end, "f64 end `{text}`");

        let mut s = scanner();
        let expected_u64 = expected.and_then(|v| {
            v.as_u64()
                .ok_or_else(|| format!("expected an unsigned integer at byte {start}"))
        });
        assert_eq!(s.u64(), expected_u64, "u64 `{text}`");
        assert_eq!(s.pos, end, "u64 end `{text}`");
    }

    /// The one-pass reader against the two-pass one, on the edge cases and
    /// on random strings over the number alphabet.
    #[test]
    fn one_pass_numbers_match_the_two_pass_reader() {
        use rand::{Rng, SeedableRng};

        for text in [
            "0",
            "-0",
            "-0.0",
            "0.0",
            "-",
            "01",
            "-01",
            "00.5",
            "1.",
            "-.5",
            ".5",
            "1.5.2",
            "1-2",
            "1e5",
            "1E+5",
            "1.e5",
            "1e",
            "--1",
            "9007199254740992",
            "9007199254740993",
            "900719925474099.2",
            "900719925474099.3",
            "0.9007199254740993",
            "9007199254740993.0",
            "1234567890.123456789",
            "-1234567890.123456789",
            "0.0000000000000000001",
            "9999999999999999999",
            "-9999999999999999999",
            "-9223372036854775807",
            "-9223372036854775808",
            "-9223372036854775809",
            "18446744073709551615",
            "18446744073709551616",
            "12345678901234567890",
            "00000000000000000001",
            "-00000000000000000001",
            "x",
            "",
        ] {
            check_against_two_pass(text, 0);
            check_against_two_pass(&format!("[{text},1]"), 1);
        }
        const ALPHABET: &[u8] = b"0123456789.eE+-";
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        for _ in 0..200_000 {
            let len = rng.gen_range(1..=24);
            let mut text: String = (0..len)
                .map(|_| char::from(ALPHABET[rng.gen_range(0..ALPHABET.len())]))
                .collect();
            if rng.gen_range(0..4) == 0 {
                text.push(',');
            }
            check_against_two_pass(&text, 0);
        }
        // Well-formed decimals around the 19-digit and 2^53 limits.
        for _ in 0..100_000 {
            let sign = if rng.gen() { "-" } else { "" };
            let digits: String = (0..rng.gen_range(1..=22))
                .map(|_| char::from(b'0' + rng.gen_range(0..10u8)))
                .collect();
            let point = rng.gen_range(0..=digits.len());
            let text = if point == digits.len() {
                format!("{sign}{digits}")
            } else {
                format!("{sign}{}.{}", &digits[..point], &digits[point..])
            };
            check_against_two_pass(&text, 0);
        }
    }

    #[test]
    fn containers_preserve_order() {
        round_trip("[1,2.5,\"x\",[],{}]");
        round_trip("{\"zebra\":1,\"alpha\":{\"b\":[true,null]}}");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "line\nbreak \"quoted\" back\\slash \t tab \u{1F980} control\u{0001}";
        let text = Json::Str(original.to_string()).to_string();
        assert_eq!(parse(&text).unwrap().as_str().unwrap(), original);
        // Surrogate pairs decode.
        assert_eq!(
            parse("\"\\ud83e\\udd80\"").unwrap().as_str().unwrap(),
            "\u{1F980}"
        );
    }

    #[test]
    fn malformed_surrogates_are_rejected() {
        for bad in [
            // A high surrogate followed by an escape outside DC00-DFFF.
            "\"\\ud83e\\u0041\"",
            "\"\\ud83e\\ud83e\"",
            "\"\\ud83e\\ue000\"",
            // A high surrogate with no low surrogate after it.
            "\"\\ud83e\"",
            "\"\\ud83eA\"",
            // A lone low surrogate.
            "\"\\udd80\"",
            "\"\\udfff\"",
            // Not four hex digits.
            "\"\\u+041\"",
            "\"\\u00g1\"",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should fail");
        }
        // The pair bounds themselves decode.
        assert_eq!(
            parse("\"\\ud800\\udc00\\udbff\\udfff\"").unwrap().as_str(),
            Some("\u{10000}\u{10FFFF}")
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = "[".repeat(1_000_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nest deeper"), "{err}");
        let deep_objects = "{\"a\":".repeat(1_000_000);
        assert!(parse(&deep_objects).unwrap_err().contains("nest deeper"));
        // Up to the limit is fine; one more level is not.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let past_limit = format!("[{at_limit}]");
        assert!(parse(&past_limit).is_err());
    }

    #[test]
    fn syntax_errors_are_reported() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "01x",
            "[1 2]",
            "{1:2}",
            "nullx",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn accessors_see_through_variants() {
        let doc = parse("{\"n\":1000,\"eps\":0.2,\"name\":\"e01\",\"axes\":[1,2]}").unwrap();
        assert_eq!(doc.get("n").unwrap().as_u64(), Some(1000));
        assert_eq!(doc.get("n").unwrap().as_f64(), Some(1000.0));
        assert_eq!(doc.get("eps").unwrap().as_f64(), Some(0.2));
        assert_eq!(doc.get("name").unwrap().as_str(), Some("e01"));
        assert_eq!(doc.get("axes").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Float(3.0).as_u64(), Some(3));
        assert_eq!(Json::Float(3.5).as_u64(), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
    }
}
