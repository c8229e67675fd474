//! The workspace's one line-JSON (JSONL) codec. Every wire line —
//! ledger events, shard files and their trailer, the serve protocol —
//! is built by [`Row`] (`"k":v`) and read back by [`Obj`], which also
//! accepts whitespace around `:` and `,` (older builds wrote `"k": v`)
//! and never panics: bad text, a missing, mistyped or duplicate key is
//! a [`JsonError`]. [`JsonlFile`] appends rows, flushing each line so
//! readers (and crash post-mortems) always see whole records. Nothing
//! here knows about simulator types.

use std::borrow::Cow;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Escapes a string for inclusion in a JSON string literal.
pub fn esc(s: &str) -> String {
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

/// One JSON object, built left to right. Keys are written in call order;
/// the caller is responsible for not repeating them.
#[derive(Debug)]
pub struct Row {
    buf: String,
}

impl Row {
    /// Starts an empty object.
    pub fn new() -> Self {
        Row { buf: String::from("{") }
    }

    /// Appends an unsigned integer field.
    pub fn u(self, k: &str, v: u64) -> Self {
        self.raw(k, &v.to_string())
    }

    /// Appends a float field (`null` for non-finite values, which JSON
    /// cannot represent).
    pub fn f(self, k: &str, v: f64) -> Self {
        self.raw(k, &if v.is_finite() { v.to_string() } else { "null".into() })
    }

    /// Appends a string field.
    pub fn s(self, k: &str, v: &str) -> Self {
        self.raw(k, &format!("\"{}\"", esc(v)))
    }

    /// Appends a boolean field.
    pub fn b(self, k: &str, v: bool) -> Self {
        self.raw(k, if v { "true" } else { "false" })
    }

    /// Appends a pre-serialized JSON value verbatim (arrays, nested
    /// objects).
    pub fn raw(mut self, k: &str, json: &str) -> Self {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push_str(&format!("\"{}\":{json}", esc(k)));
        self
    }

    /// Closes the object and returns the JSON text (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for Row {
    fn default() -> Self {
        Self::new()
    }
}

/// Serializes a string slice as a JSON array of strings (for [`Row::raw`]).
pub fn str_array(items: &[&str]) -> String {
    let mut out = String::from("[");
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&esc(s));
        out.push('"');
    }
    out.push(']');
    out
}

/// Why an [`Obj`] did not decode, or a field is not what was asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Not one flat JSON object.
    Syntax {
        /// Byte offset of the problem.
        at: usize,
        /// What was expected there.
        want: &'static str,
    },
    /// A required key is absent.
    Missing(String),
    /// A key holds another type, or a number outside the wanted range.
    Type {
        /// The key.
        key: String,
        /// What the caller asked for.
        want: &'static str,
    },
    /// A key appears twice.
    Duplicate(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { at, want } => write!(f, "bad JSON at byte {at}: expected {want}"),
            JsonError::Missing(key) => write!(f, "missing field {key:?}"),
            JsonError::Type { key, want } => write!(f, "field {key:?} is not {want}"),
            JsonError::Duplicate(key) => write!(f, "duplicate field {key:?}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Lets parsers that report `String` errors use `?` directly.
impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

/// Maps [`JsonError::Missing`] to `Ok(None)`, for optional fields; a
/// present field of the wrong type stays an error.
pub fn optional<T>(r: Result<T, JsonError>) -> Result<Option<T>, JsonError> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(JsonError::Missing(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// One flat JSON object, tokenized once — the reader paired with
/// [`Row`]. Its accessors mirror `Row`'s writers (`s`, `u`, `f`, `b`)
/// and return [`JsonError::Missing`] or [`JsonError::Type`].
///
/// ```
/// let line = sfetch_obs::Row::new().s("ev", "done").u("cycles", 7).finish();
/// let obj = sfetch_obs::Obj::parse(&line).unwrap();
/// assert_eq!((obj.s("ev"), obj.u::<u64>("cycles")), (Ok("done"), Ok(7)));
/// ```
#[derive(Debug, Clone)]
pub struct Obj<'a> {
    /// `(key, value, quoted)`: strings unescaped, other values as their
    /// raw token (`12`, `-1.5`, `true`, `null`), typed on access.
    fields: Vec<(Cow<'a, str>, Cow<'a, str>, bool)>,
}

impl<'a> Obj<'a> {
    /// Tokenizes one flat object; whitespace may surround every token.
    ///
    /// # Errors
    ///
    /// [`JsonError::Syntax`] on anything but one flat object (nested
    /// values included), [`JsonError::Duplicate`] on a repeated key.
    pub fn parse(text: &'a str) -> Result<Self, JsonError> {
        let mut p = Parser { s: text, i: 0 };
        let mut fields: Vec<(Cow<'a, str>, Cow<'a, str>, bool)> = Vec::new();
        p.expect(b'{', "'{'")?;
        if !p.eat(b'}') {
            loop {
                let key = p.string()?;
                if fields.iter().any(|(k, ..)| *k == key) {
                    return Err(JsonError::Duplicate(key.into_owned()));
                }
                p.expect(b':', "':'")?;
                p.ws();
                let quoted = p.rest().first() == Some(&b'"');
                let value = if quoted { p.string()? } else { Cow::Borrowed(p.token()?) };
                fields.push((key, value, quoted));
                if !p.eat(b',') {
                    p.expect(b'}', "',' or '}'")?;
                    break;
                }
            }
        }
        p.ws();
        if p.i != text.len() {
            return Err(p.err("end of line"));
        }
        Ok(Obj { fields })
    }

    fn typed<'s, T>(
        &'s self,
        key: &str,
        want: &'static str,
        conv: impl FnOnce(&'s str, bool) -> Option<T>,
    ) -> Result<T, JsonError> {
        let field = self.fields.iter().find(|(k, ..)| k == key);
        let (_, v, quoted) = field.ok_or_else(|| JsonError::Missing(key.to_owned()))?;
        conv(v, *quoted).ok_or_else(|| JsonError::Type { key: key.to_owned(), want })
    }

    /// A string field, unescaped.
    pub fn s(&self, key: &str) -> Result<&str, JsonError> {
        self.typed(key, "a string", |v, quoted| quoted.then_some(v))
    }

    /// An unsigned integer field, checked into `T` (`u64`, `usize`, …).
    pub fn u<T: TryFrom<u64>>(&self, key: &str) -> Result<T, JsonError> {
        self.typed(key, "an unsigned integer in range", |v, quoted| {
            T::try_from(v.parse::<u64>().ok().filter(|_| !quoted)?).ok()
        })
    }

    /// A finite float field (not `null`, which [`Row::f`] writes for
    /// non-finite values, nor a literal that overflows to infinity).
    pub fn f(&self, key: &str) -> Result<f64, JsonError> {
        self.typed(key, "a finite number", |v, quoted| {
            v.parse().ok().filter(|x: &f64| !quoted && x.is_finite())
        })
    }

    /// A boolean field.
    pub fn b(&self, key: &str) -> Result<bool, JsonError> {
        self.typed(key, "a boolean", |v, quoted| match (v, quoted) {
            ("true", false) => Some(true),
            ("false", false) => Some(false),
            _ => None,
        })
    }
}

/// [`Obj::parse`]'s cursor. It only steps over ASCII bytes or to the
/// position of one, so `i` always sits on a char boundary.
struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, want: &'static str) -> JsonError {
        JsonError::Syntax { at: self.i, want }
    }

    fn rest(&self) -> &'a [u8] {
        &self.s.as_bytes()[self.i..]
    }

    fn ws(&mut self) {
        while matches!(self.rest().first(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Skips whitespace, then consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.rest().first() == Some(&b);
        self.i += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8, want: &'static str) -> Result<(), JsonError> {
        self.eat(b).then_some(()).ok_or_else(|| self.err(want))
    }

    /// An unquoted scalar (number, `true`, `false`, `null`) as raw text.
    fn token(&mut self) -> Result<&'a str, JsonError> {
        let scalar = |b: &&u8| b.is_ascii_alphanumeric() || b"+-.".contains(b);
        let n = self.rest().iter().take_while(scalar).count();
        if n == 0 {
            return Err(self.err("a flat value"));
        }
        self.i += n;
        Ok(&self.s[self.i - n..self.i])
    }

    /// A string literal; borrowed unless it contains escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"', "a string")?;
        let mut owned: Option<String> = None;
        loop {
            let rest = self.rest();
            let n = rest.iter().position(|&b| b == b'"' || b == b'\\');
            let n = n.ok_or_else(|| self.err("a closing '\"'"))?;
            let run = &self.s[self.i..self.i + n];
            self.i += n + 1;
            if rest[n] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(o) => Cow::Owned(o + run),
                });
            }
            let c = self.escape()?;
            let o = owned.get_or_insert_with(String::new);
            o.push_str(run);
            o.push(c);
        }
    }

    /// One escape sequence, its backslash consumed: every escape
    /// [`esc`] writes, plus `\/`, `\b` and `\f`.
    fn escape(&mut self) -> Result<char, JsonError> {
        let b = *self.rest().first().ok_or_else(|| self.err("an escape"))?;
        self.i += 1;
        Ok(match b {
            b'"' | b'\\' | b'/' => char::from(b),
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hex = self.s.get(self.i..self.i + 4);
                let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                let c = hex.and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?));
                let c = c.ok_or_else(|| self.err("four hex digits of a scalar value"))?;
                self.i += 4;
                c
            }
            _ => return Err(self.err("a valid escape")),
        })
    }
}

/// An append-only JSONL file: one [`Row`] per line, flushed per line.
#[derive(Debug)]
pub struct JsonlFile {
    path: PathBuf,
    w: BufWriter<File>,
}

impl JsonlFile {
    /// Creates (truncating) a JSONL file, creating parent directories.
    pub fn create(path: &Path) -> io::Result<Self> {
        Self::open(path, false)
    }

    /// Opens a JSONL file for appending (creating it and its parent
    /// directories if absent).
    pub fn append(path: &Path) -> io::Result<Self> {
        Self::open(path, true)
    }

    fn open(path: &Path, append: bool) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = OpenOptions::new();
        let f = f.create(true).append(append).write(true).truncate(!append).open(path)?;
        Ok(JsonlFile { path: path.to_path_buf(), w: BufWriter::new(f) })
    }

    /// Writes one finished row as a line and flushes it.
    pub fn write_row(&mut self, row: Row) -> io::Result<()> {
        self.write_line(&row.finish())
    }

    /// Writes an already-serialized line (no trailing newline) and
    /// flushes it — for callers that need the text as well (size
    /// accounting, mirroring to a second sink).
    pub fn write_line(&mut self, line: &str) -> io::Result<()> {
        self.w.write_all(line.as_bytes())?;
        self.w.write_all(b"\n")?;
        self.w.flush()
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_builds_valid_json() {
        let r = Row::new()
            .s("event", "lease \"x\"\n")
            .u("cell", 3)
            .f("ipc", 2.5)
            .b("ok", true)
            .f("bad", f64::NAN)
            .raw("cols", &str_array(&["a", "b"]));
        assert_eq!(
            r.finish(),
            "{\"event\":\"lease \\\"x\\\"\\n\",\"cell\":3,\"ipc\":2.5,\"ok\":true,\
             \"bad\":null,\"cols\":[\"a\",\"b\"]}"
        );
    }

    #[test]
    fn obj_reads_what_row_writes() {
        let text = "a \"b\"\\ \n\r\t\u{1b} é";
        let line = Row::new().s("s", text).u("u", u64::MAX).f("f", -1.5).b("b", false).finish();
        let obj = Obj::parse(&line).expect("row parses");
        assert_eq!(obj.s("s"), Ok(text));
        assert_eq!(obj.u::<u64>("u"), Ok(u64::MAX));
        assert_eq!(obj.f("f"), Ok(-1.5));
        assert_eq!(obj.b("b"), Ok(false));
        // Standard escapes other writers use decode too.
        let obj = Obj::parse(r#"{"s":"\/\b\f\u00e9"}"#).expect("escapes");
        assert_eq!(obj.s("s"), Ok("/\u{8}\u{c}é"));
    }

    #[test]
    fn obj_rejects_with_typed_errors() {
        let obj = Obj::parse(" {\"n\" : 300 , \"s\":\"x\", \"z\": null}\n").expect("spaced");
        let narrow = JsonError::Type { key: "n".into(), want: "an unsigned integer in range" };
        assert_eq!(obj.u::<u8>("n"), Err(narrow));
        assert!(matches!(obj.u::<u64>("s"), Err(JsonError::Type { .. })));
        assert!(matches!(obj.f("z"), Err(JsonError::Type { .. })));
        let odd = Obj::parse("{\"f\":1e999,\"g\":-,\"h\":1.5.2,\"i\":-1,\"j\":tru}").expect("tokens");
        assert!(matches!(odd.b("j"), Err(JsonError::Type { .. })), "tru is not a boolean");
        for key in ["f", "g", "h"] {
            assert!(matches!(odd.f(key), Err(JsonError::Type { .. })), "{key} is not a float");
        }
        assert!(matches!(odd.u::<u64>("i"), Err(JsonError::Type { .. })), "negative is not a u64");
        assert_eq!(obj.b("gone"), Err(JsonError::Missing("gone".into())));
        assert_eq!(optional(obj.s("gone")), Ok(None));
        assert!(optional(obj.b("s")).is_err(), "present but mistyped stays an error");
        assert_eq!(
            Obj::parse("{\"a\":1,\"a\":2}").err(),
            Some(JsonError::Duplicate("a".into()))
        );
        for bad in [
            "", "{", "{\"a\":1", "{\"a\":1}x", "{\"a\":[1]}", "{\"a\":{}}", "{\"a\":1,}",
            "{\"a\":\"\\q\"}", "{\"a\":\"\\u12\"}",
            "{\"a\":\"\\ud800\"}", "{a:1}", "{\"a\" 1}", "[]",
        ] {
            assert!(matches!(Obj::parse(bad), Err(JsonError::Syntax { .. })), "{bad:?}");
        }
    }

    #[test]
    fn jsonl_file_appends_lines() {
        let dir = std::env::temp_dir().join(format!("sfetch-obs-jsonl-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        {
            let mut f = JsonlFile::create(&path).unwrap();
            f.write_row(Row::new().u("a", 1)).unwrap();
        }
        {
            let mut f = JsonlFile::append(&path).unwrap();
            f.write_row(Row::new().u("a", 2)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"a\":2}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
