//! The `core::fmt` rendering the exports used to go through, kept as the
//! oracle for the byte-level writer: every event of both tables, with
//! boundary values, every code and hostile component names, rendered both
//! ways must give the same bytes.

use std::fmt::Debug;

use crate::chrome::ChromeTrace;
use crate::KERNEL_COMP;
use crate::{render_text, text_capacity, AxiomEvent, Field, Lane, TraceEvent, TraceRecord};
use osiris_axiom::{AxiomRecord, SAMPLE_INTS, SAMPLE_ROUNDS};

/// Index 9 is the last name in the table, so 10 is the first `c<n>`.
fn names() -> Vec<String> {
    [
        "\"",
        "\\",
        "\n",
        "\u{1}",
        "longer-than-eight",
        "µs",
        "pm",
        "vm",
        "vfs",
        "a\"b\\c\nd\u{1}",
    ]
    .map(String::from)
    .into()
}

/// Every sample of both tables, every round: each field at each boundary
/// value, both flags and every code, on components cycling through the
/// table, past it and the kernel.
fn inputs() -> (Vec<TraceRecord>, Vec<AxiomRecord>) {
    let comps = (0..=11).chain([KERNEL_COMP]).cycle();
    let (mut records, mut axiom) = (Vec::new(), Vec::new());
    let mut comps_a = comps.clone();
    let mut comps_t = comps;
    for round in 0..SAMPLE_ROUNDS {
        let int = SAMPLE_INTS[round % SAMPLE_INTS.len()];
        for event in TraceEvent::samples(round) {
            let comp = comps_t.next().expect("cycles");
            records.push(TraceRecord {
                now: int,
                seq: int ^ u64::from(comp),
                comp,
                event,
            });
        }
        for event in AxiomEvent::samples(round) {
            let comp = u64::from(comps_a.next().expect("cycles"));
            axiom.push(AxiomRecord {
                now: int,
                seq: int ^ comp,
                event,
                digest: int ^ (comp << 7),
            });
        }
    }
    (records, axiom)
}

fn name(comp: u8, names: &[String]) -> String {
    if comp == KERNEL_COMP {
        "kernel".into()
    } else {
        names
            .get(comp as usize)
            .cloned()
            .unwrap_or_else(|| format!("c{comp}"))
    }
}

/// A value's fields as `{:?}` shows them, in order.
fn debug_fields(value: &impl Debug) -> Vec<(String, String)> {
    let text = format!("{value:?}");
    let Some((_, body)) = text.split_once(" { ") else {
        return Vec::new();
    };
    let body = body.strip_suffix(" }").expect("a struct variant ends in }");
    body.split(", ")
        .map(|f| {
            let (k, v) = f.split_once(": ").expect("name: value");
            (k.to_string(), v.to_string())
        })
        .collect()
}

fn quoted(s: &str) -> String {
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
}

/// A JSON value as the reference lays it out.
enum J {
    Raw(String),
    Obj(Vec<(&'static str, J)>),
}

fn raw(v: impl std::fmt::Display) -> J {
    J::Raw(v.to_string())
}

fn show(value: &J, depth: usize) -> String {
    match value {
        J::Raw(s) => s.clone(),
        J::Obj(members) => {
            let pad = "  ".repeat(depth + 1);
            let body: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{pad}{}: {}", quoted(k), show(v, depth + 1)))
                .collect();
            format!("{{\n{}\n{}}}", body.join(",\n"), "  ".repeat(depth))
        }
    }
}

fn metadata(what: &str, tid: Option<u64>, name: &str) -> J {
    let mut m = vec![
        ("name", raw(quoted(what))),
        ("ph", raw(quoted("M"))),
        ("pid", raw(1)),
    ];
    m.extend(tid.map(|tid| ("tid", raw(tid))));
    m.push(("args", J::Obj(vec![("name", raw(quoted(name)))])));
    J::Obj(m)
}

fn record(r: &TraceRecord, names: &[String]) -> J {
    let meta = r.event.meta();
    let mut kinds = Vec::new();
    r.event.fields(|key, field| kinds.push((key, field)));
    let values = debug_fields(&r.event);
    assert_eq!(kinds.len(), values.len(), "{:?}", r.event);
    let (mut id, mut dur, mut args) = (0u64, None, Vec::new());
    for ((key, field), (debug_key, text)) in kinds.into_iter().zip(values) {
        assert_eq!(key, debug_key);
        let value = match field {
            Field::Id(_) => {
                id = text.parse().expect("an integer");
                continue;
            }
            Field::Dur(_) => {
                dur = Some(text.parse::<u64>().expect("an integer"));
                raw(text)
            }
            Field::Comp(_) => raw(quoted(&name(text.parse().expect("a u8"), names))),
            Field::Code(_) => raw(quoted(&text)),
            Field::U64(_) | Field::Bool(_) => raw(text),
        };
        args.push((key, value));
    }
    args.push(("seq", raw(r.seq)));
    let tid = |comp| {
        if comp == KERNEL_COMP {
            999
        } else {
            comp as u64
        }
    };
    let (cat, tid) = match meta.lane {
        Lane::Own => (None, tid(r.comp)),
        Lane::Syscall => (Some("syscall"), tid(r.comp)),
        Lane::Span => (Some("span"), 997),
        Lane::Watchdog => (None, 996),
    };
    let mut m = vec![
        ("name", raw(quoted(meta.name))),
        ("ph", raw(quoted(meta.ph))),
    ];
    if let Some(cat) = cat {
        m.push(("cat", raw(quoted(cat))));
        m.push(("id", raw(id)));
    }
    m.push(("ts", raw(r.now.saturating_sub(dur.unwrap_or(0)))));
    m.extend(dur.map(|dur| ("dur", raw(dur))));
    m.push(("pid", raw(1)));
    m.push(("tid", raw(tid)));
    m.push(("args", J::Obj(args)));
    J::Obj(m)
}

fn axiom_record(rec: &AxiomRecord, names: &[String]) -> J {
    let mut args = vec![("seq", raw(rec.seq))];
    args.extend(
        rec.event
            .comp()
            .map(|c| ("comp", raw(quoted(&name(c, names))))),
    );
    args.push(("digest", raw(quoted(&format!("{:016x}", rec.digest)))));
    args.push(("detail", raw(quoted(&format!("{:?}", rec.event)))));
    J::Obj(vec![
        ("name", raw(quoted(&format!("axiom.{}", rec.event.name())))),
        ("ph", raw(quoted("i"))),
        ("ts", raw(rec.now)),
        ("pid", raw(1)),
        ("tid", raw(998)),
        ("s", raw(quoted("t"))),
        ("args", J::Obj(args)),
    ])
}

fn chrome(records: &[TraceRecord], axiom: &[AxiomRecord], names: &[String]) -> String {
    let lane_used = |lane| records.iter().any(|r| r.event.meta().lane == lane);
    let mut objects = vec![metadata("process_name", None, "osiris (virtual cycles)")];
    for (i, name) in names.iter().enumerate() {
        objects.push(metadata("thread_name", Some(i as u64), name));
    }
    for (used, tid, name) in [
        (true, 999, "kernel"),
        (!axiom.is_empty(), 998, "axiom"),
        (lane_used(Lane::Span), 997, "spans"),
        (lane_used(Lane::Watchdog), 996, "watchdog"),
    ] {
        if used {
            objects.push(metadata("thread_name", Some(tid), name));
        }
    }
    objects.extend(records.iter().map(|r| record(r, names)));
    objects.extend(axiom.iter().map(|rec| axiom_record(rec, names)));
    let events: Vec<String> = objects
        .iter()
        .map(|o| format!("    {}", show(o, 2)))
        .collect();
    format!(
        "{{\n  \"traceEvents\": [\n{}\n  ],\n  \"displayTimeUnit\": \"ns\"\n}}\n",
        events.join(",\n")
    )
}

/// `assert_eq!` that shows the first line that differs, not two documents.
fn assert_same(got: &str, want: &str) {
    if got == want {
        return;
    }
    let (line, (g, w)) = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
        .unwrap_or((0, ("<length differs>", "")));
    panic!("first difference at line {line}:\n  got:  {g:?}\n  want: {w:?}");
}

#[test]
fn text_lines_match_the_fmt_reference() {
    let names = names();
    let (records, _) = inputs();
    let want: String = records
        .iter()
        .map(|r| {
            let name = name(r.comp, &names);
            format!("t={:<10} {name:<8} #{:<5} {:?}\n", r.now, r.seq, r.event)
        })
        .collect();
    let got = render_text(&records, &names);
    assert_same(&got, &want);
    // The text was written into the buffer it was sized with.
    assert_eq!(got.capacity(), text_capacity(&records, &names));
}

#[test]
fn chrome_trace_matches_the_fmt_reference() {
    let names = names();
    let (records, axiom) = inputs();
    for (records, axiom) in [
        (&records[..], &axiom[..]),
        (&records[..3], &[][..]),
        (&[][..], &axiom[..2]),
    ] {
        let doc = ChromeTrace {
            records: records.to_vec(),
            names: names.clone(),
            axiom,
            counters: &(),
        };
        let want = chrome(records, axiom, &names);
        assert_same(&doc.pretty(), &want);
        let mut streamed = Vec::new();
        doc.write_to(&mut streamed).expect("a Vec takes every byte");
        assert_same(&String::from_utf8(streamed).expect("UTF-8"), &want);
    }
}
