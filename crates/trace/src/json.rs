//! A tiny hand-rolled JSON layer: the streaming [`JsonWriter`], which owns
//! the layout and the escaper, and the [`Json`] value tree, which is walked
//! into it.
//!
//! Lives in `osiris-trace` so the Chrome `trace_event` exporter and the
//! `reproduce`/bench emitters share one implementation; the workspace
//! builds fully offline with no serialization dependencies.
//! (`osiris-bench` re-exports [`Json`] — it used to live there.)

use std::fmt;
use std::io::{self, Write};

/// Writes one JSON document, member by member, with two-space indentation:
/// the layout `reproduce` commits to disk. A large export goes straight
/// into its sink through this instead of being built as a [`Json`] first.
///
/// Calls must nest as JSON does (a [`key`](Self::key) before each value
/// inside an object). The first I/O error is kept, nothing is written
/// after it, and [`finish`](Self::finish) returns it.
pub struct JsonWriter<W> {
    out: W,
    depth: usize,
    /// The innermost open container has no member yet.
    empty: bool,
    /// A key was just written: the next value continues its line.
    keyed: bool,
    result: io::Result<()>,
}

impl<W: Write> JsonWriter<W> {
    /// A writer at the start of a document. Give it a buffered sink:
    /// members arrive in pieces.
    pub fn new(out: W) -> Self {
        JsonWriter {
            out,
            depth: 0,
            empty: true,
            keyed: false,
            result: Ok(()),
        }
    }

    fn put(&mut self, write: impl FnOnce(&mut W) -> io::Result<()>) {
        if self.result.is_ok() {
            self.result = write(&mut self.out);
        }
    }

    fn newline_indent(&mut self) {
        let depth = self.depth;
        self.put(|out| {
            out.write_all(b"\n")?;
            (0..depth).try_for_each(|_| out.write_all(b"  "))
        });
    }

    /// Separator and indentation in front of a key or an array element.
    fn member(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        if self.depth > 0 {
            if !std::mem::take(&mut self.empty) {
                self.put(|out| out.write_all(b","));
            }
            self.newline_indent();
        }
    }

    fn open(&mut self, bracket: &[u8]) {
        self.member();
        self.put(|out| out.write_all(bracket));
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: &[u8]) {
        self.depth -= 1;
        if !std::mem::take(&mut self.empty) {
            self.newline_indent();
        }
        self.put(|out| out.write_all(bracket));
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open(b"{");
    }

    /// Closes the innermost object (`{}` if it has no member).
    pub fn end_object(&mut self) {
        self.close(b"}");
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.open(b"[");
    }

    /// Closes the innermost array (`[]` if it has no element).
    pub fn end_array(&mut self) {
        self.close(b"]");
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key);
        self.put(|out| out.write_all(b": "));
        self.keyed = true;
        self
    }

    /// A value whose `Display` text is its JSON text: an integer, `true` /
    /// `false`, `null`.
    pub fn scalar(&mut self, value: impl fmt::Display) {
        self.member();
        self.put(|out| write!(out, "{value}"));
    }

    fn quoted(&mut self, text: impl FnOnce(&mut Escaped<'_, W>) -> io::Result<()>) {
        self.member();
        self.put(|out| {
            out.write_all(b"\"")?;
            text(&mut Escaped(&mut *out))?;
            out.write_all(b"\"")
        });
    }

    /// A string, escaped.
    pub fn str(&mut self, value: &str) {
        self.quoted(|out| out.write_all(value.as_bytes()));
    }

    /// A string that is `value`'s `Display` text, escaped as it is
    /// formatted (no intermediate `String`).
    pub fn text(&mut self, value: impl fmt::Display) {
        self.quoted(|out| write!(out, "{value}"));
    }

    /// Ends the document with its trailing newline and returns the sink,
    /// or the first error it reported.
    pub fn finish(mut self) -> io::Result<W> {
        self.put(|out| out.write_all(b"\n"));
        self.result.map(|()| self.out)
    }
}

/// The one escaper: passes text through to `W` with JSON string escapes.
struct Escaped<'a, W>(&'a mut W);

impl<W: Write> Write for Escaped<'_, W> {
    fn write(&mut self, text: &[u8]) -> io::Result<usize> {
        // Every byte that needs an escape is ASCII, so the runs between
        // them go through in one piece with their UTF-8 intact.
        let mut clean = 0;
        for (i, &b) in text.iter().enumerate() {
            if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
                continue;
            }
            self.0.write_all(&text[clean..i])?;
            match b {
                b'"' => self.0.write_all(b"\\\""),
                b'\\' => self.0.write_all(b"\\\\"),
                b'\n' => self.0.write_all(b"\\n"),
                b'\r' => self.0.write_all(b"\\r"),
                b'\t' => self.0.write_all(b"\\t"),
                _ => write!(self.0, "\\u{b:04x}"),
            }?;
            clean = i + 1;
        }
        self.0.write_all(&text[clean..])?;
        Ok(text.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
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
        let mut w = JsonWriter::new(Vec::new());
        self.write(&mut w);
        into_text(w)
    }

    /// Walks this value into `w`.
    fn write<W: Write>(&self, w: &mut JsonWriter<W>) {
        match self {
            Json::Null => w.scalar("null"),
            Json::Bool(b) => w.scalar(b),
            Json::Int(i) => w.scalar(i),
            Json::UInt(u) => w.scalar(u),
            Json::Num(x) if x.is_finite() => {
                // `{}` on f64 is the shortest exact representation, but
                // renders integral floats without a decimal point; keep the
                // point so the value stays typed as a float for readers.
                let s = format!("{x}");
                let point = if s.contains(['.', 'e', 'E']) {
                    ""
                } else {
                    ".0"
                };
                w.scalar(format_args!("{s}{point}"));
            }
            Json::Num(_) => w.scalar("null"),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => {
                w.begin_array();
                items.iter().for_each(|item| item.write(w));
                w.end_array();
            }
            Json::Obj(pairs) => {
                w.begin_object();
                for (k, v) in pairs {
                    v.write(w.key(k));
                }
                w.end_object();
            }
        }
    }
}

/// The text of a document written into memory.
pub(crate) fn into_text(w: JsonWriter<Vec<u8>>) -> String {
    let bytes = w.finish().expect("writing to a Vec cannot fail");
    String::from_utf8(bytes).expect("the writer passes UTF-8 through whole")
}

#[cfg(test)]
mod tests {
    use super::{Json, JsonWriter};

    #[test]
    fn the_first_io_error_is_kept_and_returned() {
        // A byte slice is a sink that fills up.
        let mut sink = [0u8; 16];
        let mut w = JsonWriter::new(&mut sink[..]);
        Json::Arr(vec![Json::UInt(1); 64]).write(&mut w);
        let err = w.finish().map(drop).expect_err("the sink is full");
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
        let s = Json::Str("a\"b\\c\nd\te\u{1}".into());
        assert_eq!(s.pretty(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"\n");
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
