//! A tiny hand-rolled JSON layer: the byte-level [`Sink`] every export
//! writes through, the streaming [`JsonWriter`] on top of it, which owns
//! the layout and the escaper, and [`WriteJson`], a value that writes
//! itself into one: the [`Json`] value tree, and the metric documents,
//! which are never built as a tree. [`JsonDoc`] renders any of them as a
//! whole document. Nothing on the per-record path goes through `core::fmt`.
//!
//! Lives in `osiris-trace` so the Chrome `trace_event` exporter and the
//! `reproduce`/bench emitters share one implementation; the workspace
//! builds fully offline with no serialization dependencies.
//! (`osiris-bench` re-exports [`Json`] — it used to live there.)

use std::io::{self, Write};

/// The one run of spaces padding and indentation are cut from.
const SPACES: &str = "                                                                ";

/// Where an export's text goes, in whole UTF-8 pieces: a `String` (an
/// in-memory export, which then needs no UTF-8 check) or an `io::Write`
/// behind the writer. The provided methods are the exports' only number
/// formatting.
pub trait Sink {
    /// Appends `text`.
    fn put(&mut self, text: &str);

    /// Appends `bytes`, which are all ASCII.
    fn put_ascii(&mut self, bytes: &[u8]);

    /// Appends `v` in decimal: `{}`.
    fn put_u64(&mut self, v: u64) {
        self.put_ascii(Digits::new(v).as_bytes());
    }

    /// Appends `v` in decimal, `-` first when negative: `{}`.
    fn put_i64(&mut self, v: i64) {
        if v < 0 {
            self.put("-");
        }
        self.put_u64(v.unsigned_abs());
    }

    /// Appends `v` as 16 lowercase hex digits: `{:016x}`.
    fn put_hex16(&mut self, v: u64) {
        let mut buf = [0u8; 16];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = b"0123456789abcdef"[(v >> (60 - 4 * i)) as usize & 0xf];
        }
        self.put_ascii(&buf);
    }

    /// Appends `v` in decimal, then spaces up to `width`: `{:<width}`.
    fn put_u64_padded(&mut self, v: u64, width: usize) {
        let digits = Digits::new(v);
        self.put_ascii(digits.as_bytes());
        self.pad(digits.as_bytes().len(), width);
    }

    /// Spaces from column `at` up to `width` (none past it).
    fn pad(&mut self, at: usize, width: usize) {
        let mut n = width.saturating_sub(at);
        while n > 0 {
            let run = n.min(SPACES.len());
            self.put(&SPACES[..run]);
            n -= run;
        }
    }
}

impl Sink for String {
    #[inline]
    fn put(&mut self, text: &str) {
        self.push_str(text);
    }

    /// Char by char: an ASCII byte is its own UTF-8, so nothing is checked
    /// or copied twice.
    #[inline]
    fn put_ascii(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.is_ascii());
        self.extend(bytes.iter().map(|&b| char::from(b)));
    }
}

/// An `io::Write` as a [`Sink`]: the first error is kept, nothing is
/// written after it, and [`into_inner`](Self::into_inner) returns it.
pub(crate) struct IoSink<W> {
    out: W,
    result: io::Result<()>,
}

impl<W: Write> IoSink<W> {
    /// A sink over `out`, which should be buffered: text arrives in pieces.
    pub(crate) fn new(out: W) -> Self {
        IoSink {
            out,
            result: Ok(()),
        }
    }

    /// The writer, or the first error it reported.
    pub(crate) fn into_inner(self) -> io::Result<W> {
        self.result.map(|()| self.out)
    }

    fn write(&mut self, bytes: &[u8]) {
        if self.result.is_ok() {
            self.result = self.out.write_all(bytes);
        }
    }
}

impl<W: Write> Sink for IoSink<W> {
    fn put(&mut self, text: &str) {
        self.write(text.as_bytes());
    }

    fn put_ascii(&mut self, bytes: &[u8]) {
        self.write(bytes);
    }
}

/// `00`, `01`, … `99`: two decimal digits per division.
const PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// The decimal digits of a `u64`, on the stack.
struct Digits {
    buf: [u8; 20],
    at: usize,
}

impl Digits {
    fn new(mut v: u64) -> Digits {
        let mut d = Digits {
            buf: [0; 20],
            at: 20,
        };
        loop {
            let pair = 2 * (v % 100) as usize;
            d.at -= 2;
            d.buf[d.at..d.at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
            v /= 100;
            if v == 0 {
                break;
            }
        }
        // The leading pair's zero, unless it is the only digit.
        if d.buf[d.at] == b'0' && d.at < 19 {
            d.at += 1;
        }
        d
    }

    fn as_bytes(&self) -> &[u8] {
        &self.buf[self.at..]
    }
}

/// Writes one JSON document, member by member, with two-space indentation:
/// the layout `reproduce` commits to disk. A large export goes straight
/// into its sink through this instead of being built as a [`Json`] first.
///
/// Calls must nest as JSON does (a [`key`](Self::key) before each value
/// inside an object).
pub struct JsonWriter<S> {
    out: S,
    depth: usize,
    /// The innermost open container has no member yet.
    empty: bool,
    /// A key was just written: the next value continues its line.
    keyed: bool,
}

impl<S: Sink> JsonWriter<S> {
    /// A writer at the start of a document.
    pub fn new(out: S) -> Self {
        JsonWriter {
            out,
            depth: 0,
            empty: true,
            keyed: false,
        }
    }

    /// A newline and the current indentation, after a comma if `comma`.
    #[inline]
    fn newline_indent(&mut self, comma: bool) {
        // The usual depths as literals: a fixed-size copy each, which a
        // slice of varying length is not.
        match (comma, self.depth) {
            (false, 1) => return self.out.put("\n  "),
            (false, 2) => return self.out.put("\n    "),
            (false, 3) => return self.out.put("\n      "),
            (false, 4) => return self.out.put("\n        "),
            (true, 1) => return self.out.put(",\n  "),
            (true, 2) => return self.out.put(",\n    "),
            (true, 3) => return self.out.put(",\n      "),
            (true, 4) => return self.out.put(",\n        "),
            _ => {}
        }
        self.out.put(if comma { ",\n" } else { "\n" });
        self.out.pad(0, 2 * self.depth);
    }

    /// Separator and indentation in front of a key or an array element.
    #[inline]
    fn member(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        if self.depth > 0 {
            let comma = !std::mem::take(&mut self.empty);
            self.newline_indent(comma);
        }
    }

    fn open(&mut self, bracket: &str) {
        self.member();
        self.out.put(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: &str) {
        self.depth -= 1;
        if !std::mem::take(&mut self.empty) {
            self.newline_indent(false);
        }
        self.out.put(bracket);
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open("{");
    }

    /// Closes the innermost object (`{}` if it has no member).
    pub fn end_object(&mut self) {
        self.close("}");
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.open("[");
    }

    /// Closes the innermost array (`[]` if it has no element).
    pub fn end_array(&mut self) {
        self.close("]");
    }

    /// Writes an object key; the next call writes its value.
    #[inline]
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.member();
        self.out.put("\"");
        escape(&mut self.out, key);
        self.out.put("\": ");
        self.keyed = true;
        self
    }

    /// A value whose text is `text`.
    fn scalar(&mut self, text: &str) {
        self.member();
        self.out.put(text);
    }

    /// An unsigned integer.
    #[inline]
    pub fn u64(&mut self, value: u64) {
        self.member();
        self.out.put_u64(value);
    }

    /// A signed integer.
    pub fn i64(&mut self, value: i64) {
        self.member();
        self.out.put_i64(value);
    }

    /// `true` / `false`.
    pub fn bool(&mut self, value: bool) {
        self.scalar(if value { "true" } else { "false" });
    }

    /// `null`.
    pub fn null(&mut self) {
        self.scalar("null");
    }

    /// A string, escaped.
    #[inline]
    pub fn str(&mut self, value: &str) {
        self.member();
        self.out.put("\"");
        escape(&mut self.out, value);
        self.out.put("\"");
    }

    /// A string whose text `write` puts into the sink as it is. That text
    /// must need no escape: identifiers, digits, punctuation.
    pub(crate) fn str_with(&mut self, write: impl FnOnce(&mut S)) {
        self.member();
        self.out.put("\"");
        write(&mut self.out);
        self.out.put("\"");
    }

    /// Ends the document with its trailing newline and returns the sink.
    pub fn finish(mut self) -> S {
        self.out.put("\n");
        self.out
    }
}

/// Whether a byte needs an escape inside a JSON string.
fn needs_escape(b: u8) -> bool {
    matches!(b, b'"' | b'\\' | 0..=0x1f)
}

/// The one escaper: puts `text` into `out` with JSON string escapes. Text
/// that needs none goes through in one piece.
#[inline]
fn escape(out: &mut impl Sink, text: &str) {
    if text.bytes().any(needs_escape) {
        escape_runs(out, text);
    } else {
        out.put(text);
    }
}

#[cold]
fn escape_runs(out: &mut impl Sink, text: &str) {
    // Every byte that needs an escape is ASCII, so the runs between them
    // are whole UTF-8.
    let mut clean = 0;
    for (i, &b) in text.as_bytes().iter().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.put(&text[clean..i]);
        match b {
            b'"' => out.put("\\\""),
            b'\\' => out.put("\\\\"),
            b'\n' => out.put("\\n"),
            b'\r' => out.put("\\r"),
            b'\t' => out.put("\\t"),
            _ => {
                out.put(if b < 0x10 { "\\u000" } else { "\\u001" });
                out.put_ascii(&[b"0123456789abcdef"[usize::from(b & 0xf)]]);
            }
        }
        clean = i + 1;
    }
    out.put(&text[clean..]);
}

/// A value that writes itself, as one JSON value, into a [`JsonWriter`].
pub trait WriteJson {
    /// Writes this value into `w`.
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>);
}

impl<T: WriteJson + ?Sized> WriteJson for &T {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        (**self).write_json(w);
    }
}

/// A [`WriteJson`] value as a whole document.
pub struct JsonDoc<T>(pub T);

impl<T: WriteJson> JsonDoc<T> {
    /// The document as text: two-space indentation, trailing newline.
    pub fn pretty(&self) -> String {
        let mut w = JsonWriter::new(String::new());
        self.0.write_json(&mut w);
        w.finish()
    }
}

/// A JSON value. Objects preserve insertion order so emitted files diff
/// stably across runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact, no float round-trip).
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array by converting each item.
    pub fn arr<T, F: FnMut(&T) -> Json>(items: &[T], f: F) -> Json {
        Json::Arr(items.iter().map(f).collect())
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        JsonDoc(self).pretty()
    }
}

impl WriteJson for Json {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Int(i) => w.i64(*i),
            Json::UInt(u) => w.u64(*u),
            Json::Num(x) if x.is_finite() => {
                // `{}` on f64 is the shortest exact representation, but
                // renders integral floats without a decimal point; keep the
                // point so the value stays typed as a float for readers.
                let mut s = x.to_string();
                if !s.contains(['.', 'e', 'E']) {
                    s.push_str(".0");
                }
                w.scalar(&s);
            }
            Json::Num(_) => w.null(),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => {
                w.begin_array();
                items.iter().for_each(|item| item.write_json(w));
                w.end_array();
            }
            Json::Obj(pairs) => {
                w.begin_object();
                for (k, v) in pairs {
                    v.write_json(w.key(k));
                }
                w.end_object();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{IoSink, Json, JsonWriter, Sink, WriteJson, SPACES};

    #[test]
    fn the_first_io_error_is_kept_and_returned() {
        // A byte slice is a sink that fills up.
        let mut sink = [0u8; 16];
        let mut w = JsonWriter::new(IoSink::new(&mut sink[..]));
        Json::Arr(vec![Json::UInt(1); 64]).write_json(&mut w);
        let err = w
            .finish()
            .into_inner()
            .map(drop)
            .expect_err("the sink is full");
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
        assert!(sink.starts_with(b"[\n  1,\n  1,"));
    }

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.pretty(), "null\n");
        assert_eq!(Json::Bool(true).pretty(), "true\n");
        assert_eq!(Json::Int(-3).pretty(), "-3\n");
        assert_eq!(Json::UInt(u64::MAX).pretty(), format!("{}\n", u64::MAX));
        assert_eq!(Json::Num(1.5).pretty(), "1.5\n");
        assert_eq!(
            Json::Num(2.0).pretty(),
            "2.0\n",
            "integral floats keep the point"
        );
        assert_eq!(Json::Num(f64::NAN).pretty(), "null\n");
    }

    #[test]
    fn strings_escape() {
        let s = Json::Str("a\"b\\c\nd\te\u{1}\u{10}\u{1f}".into());
        assert_eq!(s.pretty(), "\"a\\\"b\\\\c\\nd\\te\\u0001\\u0010\\u001f\"\n");
    }

    #[test]
    fn numbers_and_padding_match_fmt() {
        let mut ints = vec![0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
        ints.extend((0..20).map(|p| 10u64.pow(p)));
        ints.extend((1..20).map(|p| 10u64.pow(p) - 1));
        for v in ints {
            assert_eq!(Json::UInt(v).pretty(), format!("{v}\n"));
            let mut s = String::new();
            s.put_u64_padded(v, 10);
            s.put_hex16(v);
            assert_eq!(s, format!("{v:<10}{v:016x}"));
        }
        for v in [i64::MIN, -10, -9, -1, 0, 1, i64::MAX] {
            assert_eq!(Json::Int(v).pretty(), format!("{v}\n"));
        }
        for (text, width) in [("", 8), ("µs", 8), ("longer-than-eight", 8), ("x", 150)] {
            let mut s = String::from(text);
            s.pad(text.chars().count(), width);
            assert_eq!(s, format!("{text:<width$}"));
        }
    }

    #[test]
    fn nesting_deeper_than_the_space_run_indents() {
        fn reference(depth: usize, at: usize) -> String {
            if at == depth {
                return "7".into();
            }
            let inner = reference(depth, at + 1);
            format!("[\n{}{inner}\n{}]", "  ".repeat(at + 1), "  ".repeat(at))
        }
        // Two spaces a level: the innermost value sits twice as far in as
        // the run is long.
        let depth = SPACES.len();
        let doc = (0..depth).fold(Json::UInt(7), |doc, _| Json::Arr(vec![doc]));
        assert_eq!(doc.pretty(), reference(depth, 0) + "\n");
    }

    #[test]
    fn nesting_indents() {
        let doc = Json::obj([
            ("xs", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("empty", Json::Arr(vec![])),
            ("o", Json::obj([("k", Json::Str("v".into()))])),
        ]);
        let expect = "{\n  \"xs\": [\n    1,\n    2\n  ],\n  \"empty\": [],\n  \"o\": {\n    \"k\": \"v\"\n  }\n}\n";
        assert_eq!(doc.pretty(), expect);
    }
}
