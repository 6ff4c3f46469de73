//! A tiny hand-rolled JSON layer: the byte-level [`Sink`] every export
//! writes through, the streaming [`JsonWriter`] on top of it, which owns
//! the layout and the escaper, and [`WriteJson`], a value that writes
//! itself into one: the metric documents, the campaign and forge reports
//! and the `reproduce` results, none of them ever built as a tree.
//! [`JsonDoc`] renders any of them as a whole document. Nothing but a
//! float goes through `core::fmt`.
//!
//! Lives in `osiris-trace` so the Chrome `trace_event` exporter and the
//! `reproduce`/bench emitters share one implementation; the workspace
//! builds fully offline with no serialization dependencies.

use std::fmt::{self, Write as _};
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
/// the layout `reproduce` commits to disk.
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

    /// A float in its shortest exact decimal form, an integral one with
    /// its `.0` kept so readers still see a float; a non-finite one is
    /// `null`. The writer's one use of `core::fmt`.
    pub fn f64(&mut self, value: f64) {
        if !value.is_finite() {
            return self.null();
        }
        self.member();
        let mut text = FloatText {
            out: &mut self.out,
            point: false,
        };
        // A sink cannot fail.
        let _ = write!(text, "{value}");
        if !text.point {
            self.out.put(".0");
        }
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

/// `core::fmt` text streamed into a sink, noting whether it held a
/// decimal point or an exponent.
struct FloatText<'a, S> {
    out: &'a mut S,
    point: bool,
}

impl<S: Sink> fmt::Write for FloatText<'_, S> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.point |= s.contains(['.', 'e', 'E']);
        self.out.put(s);
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::{IoSink, JsonWriter, Sink, SPACES};

    /// The document `write` writes.
    fn doc(write: impl FnOnce(&mut JsonWriter<String>)) -> String {
        let mut w = JsonWriter::new(String::new());
        write(&mut w);
        w.finish()
    }

    #[test]
    fn the_first_io_error_is_kept_and_returned() {
        // A byte slice is a sink that fills up.
        let mut sink = [0u8; 16];
        let mut w = JsonWriter::new(IoSink::new(&mut sink[..]));
        w.begin_array();
        (0..64).for_each(|_| w.u64(1));
        w.end_array();
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
        assert_eq!(doc(|w| w.null()), "null\n");
        assert_eq!(doc(|w| w.bool(true)), "true\n");
        assert_eq!(doc(|w| w.i64(-3)), "-3\n");
        assert_eq!(doc(|w| w.u64(u64::MAX)), format!("{}\n", u64::MAX));
    }

    #[test]
    fn floats_render_shortest_with_their_point() {
        assert_eq!(doc(|w| w.f64(1.5)), "1.5\n");
        assert_eq!(
            doc(|w| w.f64(2.0)),
            "2.0\n",
            "integral floats keep the point"
        );
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(doc(|w| w.f64(x)), "null\n");
        }
        // What `{}` writes, with `.0` added where it wrote no point.
        for x in [
            0.1,
            -0.0,
            1.0 / 3.0,
            1e-7,
            1e21,
            99.5,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            let mut want = x.to_string();
            if !want.contains(['.', 'e', 'E']) {
                want.push_str(".0");
            }
            assert_eq!(doc(|w| w.f64(x)), want + "\n");
        }
    }

    #[test]
    fn strings_escape() {
        let s = doc(|w| w.str("a\"b\\c\nd\te\u{1}\u{10}\u{1f}"));
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\\u0010\\u001f\"\n");
    }

    #[test]
    fn numbers_and_padding_match_fmt() {
        let mut ints = vec![0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
        ints.extend((0..20).map(|p| 10u64.pow(p)));
        ints.extend((1..20).map(|p| 10u64.pow(p) - 1));
        for v in ints {
            assert_eq!(doc(|w| w.u64(v)), format!("{v}\n"));
            let mut s = String::new();
            s.put_u64_padded(v, 10);
            s.put_hex16(v);
            assert_eq!(s, format!("{v:<10}{v:016x}"));
        }
        for v in [i64::MIN, -10, -9, -1, 0, 1, i64::MAX] {
            assert_eq!(doc(|w| w.i64(v)), format!("{v}\n"));
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
        let nested = doc(|w| {
            (0..depth).for_each(|_| w.begin_array());
            w.u64(7);
            (0..depth).for_each(|_| w.end_array());
        });
        assert_eq!(nested, reference(depth, 0) + "\n");
    }

    #[test]
    fn nesting_indents() {
        let nested = doc(|w| {
            w.begin_object();
            w.key("xs").begin_array();
            w.i64(1);
            w.i64(2);
            w.end_array();
            w.key("empty").begin_array();
            w.end_array();
            w.key("o").begin_object();
            w.key("k").str("v");
            w.end_object();
            w.end_object();
        });
        let expect = "{\n  \"xs\": [\n    1,\n    2\n  ],\n  \"empty\": [],\n  \"o\": {\n    \"k\": \"v\"\n  }\n}\n";
        assert_eq!(nested, expect);
    }
}
