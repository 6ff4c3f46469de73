//! Chrome `trace_event`-format export.
//!
//! Writes a [`TraceRecord`] stream as the JSON Object Format consumed by
//! `chrome://tracing` and Perfetto: one "process" (the simulated OS) with
//! one "thread" per component, recovery windows and recoveries drawn as
//! duration slices, syscalls and request spans as async pairs keyed by
//! their ids, and everything else as instant events. Timestamps are
//! virtual-clock cycles reported in the `ts` microsecond field — the
//! absolute unit is meaningless, only the deterministic relative layout
//! matters.
//!
//! What an event looks like is its row of the event table in the crate
//! root; this module is the one loop that writes rows, in a fixed key
//! order: `name, ph, [cat, id], ts, [dur], pid, tid, [s], args`.

use std::io::{self, Write};

use crate::json::{IoSink, JsonWriter, Sink};
use crate::{write_axiom_text, CompName, Field, Lane, TraceRecord, KERNEL_COMP};
use osiris_axiom::AxiomRecord;

/// Bytes an event object takes, about, by lane: the `pretty` buffer is
/// sized from these before anything is written, so a 6 MB document is not
/// grown by doubling into an 8 MiB one. Measured with every recorder on
/// (196–209 bytes a record, 306–335 an axiom record, on the paper's
/// programs and `golden_exports`' runs), rounded up.
const RECORD_BYTES: usize = 210;
const AXIOM_BYTES: usize = 330;
const METADATA_BYTES: usize = 128;

/// `tid` used for kernel-originated events (Perfetto dislikes 255-ish
/// gaps less than it dislikes colliding tids, so keep it distinct).
const KERNEL_TID: u64 = 999;

/// `tid` for the authoritative control-plane log's lane: axiom events
/// render as instant events on their own named thread so the chained
/// history reads as one ordered track in the viewer.
const AXIOM_TID: u64 = 998;

/// `tid` for the causal-request-span lane, so overlapping requests stack
/// instead of colliding.
const SPAN_TID: u64 = 997;

/// `tid` for the watchdog lane: armed deadlines, expiries, probes,
/// verdicts and retry decisions read as one ordered track.
const WATCHDOG_TID: u64 = 996;

fn tid(comp: u8) -> u64 {
    if comp == KERNEL_COMP {
        KERNEL_TID
    } else {
        comp as u64
    }
}

/// More events for a [`ChromeTrace`], written after the records and the
/// axiom lane. `osiris-metrics` implements it for its sampler's counter
/// lanes, which this crate cannot name; `()` has none.
pub trait ChromeLane {
    /// Writes each event as one object into the open `traceEvents` array.
    fn write_events<S: Sink>(&self, w: &mut JsonWriter<S>);

    /// Bytes [`write_events`](Self::write_events) writes, about.
    fn size_hint(&self) -> usize {
        0
    }
}

impl ChromeLane for () {
    fn write_events<S: Sink>(&self, _w: &mut JsonWriter<S>) {}
}

/// A Chrome trace document over a recorded run. It is written straight
/// into its destination, never built as a value.
pub struct ChromeTrace<'a, C = ()> {
    /// The events, in chronological order.
    pub records: Vec<TraceRecord>,
    /// Display names by component index (the kernel's component table
    /// order); an index beyond it falls back to `c<n>`.
    pub names: Vec<String>,
    /// The control-plane log, drawn as one more instant-event lane (`tid`
    /// 998); empty when axiom retention is disabled.
    pub axiom: &'a [AxiomRecord],
    /// Events appended after everything else.
    pub counters: &'a C,
}

impl<C: ChromeLane> ChromeTrace<'_, C> {
    /// The document as text: two-space indentation, trailing newline.
    /// Written into one buffer sized from the record counts.
    pub fn pretty(&self) -> String {
        // The process, each component, and the four extra lanes at most.
        let size = (self.names.len() + 5) * METADATA_BYTES
            + self.records.len() * RECORD_BYTES
            + self.axiom.len() * AXIOM_BYTES
            + self.counters.size_hint();
        let mut w = JsonWriter::new(String::with_capacity(size));
        self.write(&mut w);
        w.finish()
    }

    /// Streams the same text into `out`, which should be buffered.
    pub fn write_to(&self, out: impl Write) -> io::Result<()> {
        let mut w = JsonWriter::new(IoSink::new(out));
        self.write(&mut w);
        w.finish().into_inner().map(drop)
    }

    fn write<S: Sink>(&self, w: &mut JsonWriter<S>) {
        w.begin_object();
        w.key("traceEvents").begin_array();

        // Metadata: name the process, one thread per component, and each
        // extra lane that has something on it.
        metadata(w, "process_name", None, "osiris (virtual cycles)");
        for (i, name) in (0..).zip(&self.names) {
            metadata(w, "thread_name", Some(i), name);
        }
        let (mut spans, mut watchdog) = (false, false);
        for r in &self.records {
            match r.event.meta().lane {
                Lane::Span => spans = true,
                Lane::Watchdog => watchdog = true,
                Lane::Own | Lane::Syscall => {}
            }
        }
        for (used, tid, name) in [
            (true, KERNEL_TID, "kernel"),
            (!self.axiom.is_empty(), AXIOM_TID, "axiom"),
            (spans, SPAN_TID, "spans"),
            (watchdog, WATCHDOG_TID, "watchdog"),
        ] {
            if used {
                metadata(w, "thread_name", Some(tid), name);
            }
        }

        for r in &self.records {
            self.write_record(w, r);
        }
        for rec in self.axiom {
            self.write_axiom(w, rec);
        }
        self.counters.write_events(w);

        w.end_array();
        w.key("displayTimeUnit").str("ns");
        w.end_object();
    }

    fn write_record<S: Sink>(&self, w: &mut JsonWriter<S>, r: &TraceRecord) {
        let meta = r.event.meta();
        // What the event contributes outside its `args`.
        let (mut id, mut dur) = (0, None);
        r.event.fields(|_, field| match field {
            Field::Id(v) => id = v,
            Field::Dur(v) => dur = Some(v),
            _ => {}
        });
        // The viewer pairs async events by `cat` + `id`.
        let (cat, tid) = match meta.lane {
            Lane::Own => (None, tid(r.comp)),
            Lane::Syscall => (Some("syscall"), tid(r.comp)),
            Lane::Span => (Some("span"), SPAN_TID),
            Lane::Watchdog => (None, WATCHDOG_TID),
        };
        w.begin_object();
        w.key("name").str(meta.name);
        w.key("ph").str(meta.ph);
        if let Some(cat) = cat {
            w.key("cat").str(cat);
            w.key("id").u64(id);
        }
        w.key("ts").u64(r.now.saturating_sub(dur.unwrap_or(0)));
        if let Some(dur) = dur {
            w.key("dur").u64(dur);
        }
        w.key("pid").u64(1);
        w.key("tid").u64(tid);
        w.key("args").begin_object();
        r.event.fields(|key, field| match field {
            Field::U64(v) | Field::Dur(v) => w.key(key).u64(v),
            Field::Bool(v) => w.key(key).bool(v),
            Field::Comp(c) => comp(w.key(key), c, &self.names),
            Field::Code(ident) => w.key(key).str(ident),
            Field::Id(_) => {}
        });
        w.key("seq").u64(r.seq);
        w.end_object();
        w.end_object();
    }

    /// One axiom record as an instant event on the axiom lane: the
    /// event's canonical snake_case name, the full typed payload as a
    /// `detail` arg (its text form), and the chain digest so a viewer row
    /// can be matched back to the exact log record.
    fn write_axiom<S: Sink>(&self, w: &mut JsonWriter<S>, rec: &AxiomRecord) {
        w.begin_object();
        w.key("name").str_with(|out| {
            out.put("axiom.");
            out.put(rec.event.name());
        });
        w.key("ph").str("i");
        w.key("ts").u64(rec.now);
        w.key("pid").u64(1);
        w.key("tid").u64(AXIOM_TID);
        w.key("s").str("t");
        w.key("args").begin_object();
        w.key("seq").u64(rec.seq);
        if let Some(c) = rec.event.comp() {
            comp(w.key("comp"), c, &self.names);
        }
        w.key("digest").str_with(|out| out.put_hex16(rec.digest));
        w.key("detail")
            .str_with(|out| write_axiom_text(&rec.event, out));
        w.end_object();
        w.end_object();
    }
}

/// A component's name as a string value: escaped when it comes from the
/// table, which holds names from outside this crate.
fn comp<S: Sink>(w: &mut JsonWriter<S>, comp: u8, names: &[String]) {
    match CompName::of(comp, names) {
        CompName::Named(name) => w.str(name),
        name => w.str_with(|out| name.put(out)),
    }
}

fn metadata<S: Sink>(w: &mut JsonWriter<S>, what: &str, tid: Option<u64>, name: &str) {
    w.begin_object();
    w.key("name").str(what);
    w.key("ph").str("M");
    w.key("pid").u64(1);
    if let Some(tid) = tid {
        w.key("tid").u64(tid);
    }
    w.key("args").begin_object();
    w.key("name").str(name);
    w.end_object();
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CloseCode, TraceEvent, TraceRecord};

    fn render_with_axiom(
        records: &[TraceRecord],
        names: &[String],
        axiom: &[AxiomRecord],
    ) -> String {
        ChromeTrace {
            records: records.to_vec(),
            names: names.to_vec(),
            axiom,
            counters: &(),
        }
        .pretty()
    }

    fn render(records: &[TraceRecord], names: &[String]) -> String {
        render_with_axiom(records, names, &[])
    }

    fn rec(now: u64, seq: u64, comp: u8, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            now,
            seq,
            comp,
            event,
        }
    }

    #[test]
    fn exports_valid_structure() {
        let names = vec!["rs".to_string(), "pm".to_string()];
        let recs = vec![
            rec(10, 0, 1, TraceEvent::WindowOpen),
            rec(
                40,
                1,
                1,
                TraceEvent::WindowClose {
                    reason: CloseCode::Completed,
                    class: crate::SeepClassCode::None,
                },
            ),
            rec(
                900,
                0,
                0,
                TraceEvent::RecoveryDone {
                    target: 1,
                    cycles: 600,
                },
            ),
        ];
        let text = render(&recs, &names);
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("\"ph\": \"B\""));
        assert!(text.contains("\"ph\": \"E\""));
        // The recovery slice starts at now - cycles.
        assert!(text.contains("\"dur\": 600"));
        assert!(text.contains("\"ts\": 300"));
    }

    #[test]
    fn axiom_lane_renders_instants() {
        use osiris_axiom::{AxiomConfig, AxiomEvent, AxiomLog};
        let mut log = AxiomLog::new(AxiomConfig {
            enabled: true,
            capacity: 4,
        });
        log.append(
            5,
            AxiomEvent::Genesis {
                comps: 2,
                config_digest: 7,
            },
        );
        log.append(9, AxiomEvent::WindowOpen { comp: 1 });
        let names = vec!["rs".to_string(), "pm".to_string()];
        let text = render_with_axiom(&[], &names, log.records());
        assert!(text.contains("\"axiom.genesis\""), "{text}");
        assert!(text.contains("\"axiom.window_open\""), "{text}");
        assert!(text.contains("\"comp\": \"pm\""), "{text}");
        assert!(text.contains("\"tid\": 998"), "{text}");
        // The axiom lane gets its own thread_name metadata row.
        assert!(text.contains("\"name\": \"axiom\""), "{text}");
        // Digests render as fixed-width hex.
        let digest = format!("{:016x}", log.records()[0].digest);
        assert!(text.contains(&digest), "{text}");
        // No lane, no metadata when the axiom is empty.
        let empty = render_with_axiom(&[], &names, &[]);
        assert!(!empty.contains("\"tid\": 998"), "{empty}");
    }

    #[test]
    fn exporter_escapes_event_and_component_names() {
        // Component names flow into event args verbatim; hostile names
        // (quotes, backslashes, control chars) must come out escaped, not
        // as broken JSON.
        let names = vec!["a\"b\\c\nd\u{1}".to_string()];
        let recs = vec![rec(3, 0, 5, TraceEvent::Crash { target: 0 })];
        let text = render(&recs, &names);
        assert!(
            text.contains("\"target\": \"a\\\"b\\\\c\\nd\\u0001\""),
            "{text}"
        );
        // Raw quote/backslash/control bytes must never leak unescaped
        // inside a string: the document still balances its quotes.
        let quotes = text.chars().filter(|c| *c == '"').count();
        assert_eq!(quotes % 2, 0, "unbalanced quotes in {text}");
        assert!(!text.contains('\u{1}'), "raw control char leaked: {text}");
    }

    #[test]
    fn span_lane_renders_async_pairs() {
        let names = vec!["pm".to_string()];
        let recs = vec![
            rec(
                10,
                0,
                crate::KERNEL_COMP,
                TraceEvent::SpanOpen {
                    span: 42,
                    sid: 7,
                    pid: 3,
                },
            ),
            rec(
                15,
                0,
                0,
                TraceEvent::SpanHop {
                    span: 42,
                    src: crate::KERNEL_COMP,
                    msg_id: 9,
                },
            ),
            rec(
                90,
                1,
                crate::KERNEL_COMP,
                TraceEvent::SpanClose {
                    span: 42,
                    ok: true,
                    crossed_recovery: false,
                    latency: 80,
                },
            ),
        ];
        let text = render(&recs, &names);
        // Open/close render as an async pair correlated by cat+id on the
        // dedicated span lane, plus its thread_name metadata row.
        assert!(text.contains("\"ph\": \"b\""), "{text}");
        assert!(text.contains("\"ph\": \"e\""), "{text}");
        assert!(text.contains("\"cat\": \"span\""), "{text}");
        assert!(text.contains("\"id\": 42"), "{text}");
        assert!(text.contains("\"tid\": 997"), "{text}");
        assert!(text.contains("\"name\": \"spans\""), "{text}");
        assert!(text.contains("\"crossed_recovery\": false"), "{text}");
        // No span events → no span lane metadata.
        let empty = render(&[], &names);
        assert!(!empty.contains("\"tid\": 997"), "{empty}");
    }

    #[test]
    fn span_lane_escapes_component_names() {
        // Same hostile-name contract as the axiom/component lanes: a
        // component name with quotes, backslashes and control chars flows
        // into the SpanHop `src` arg and must come out escaped.
        let names = vec!["a\"b\\c\nd\u{1}".to_string()];
        let recs = vec![rec(
            3,
            0,
            5,
            TraceEvent::SpanHop {
                span: 1,
                src: 0,
                msg_id: 2,
            },
        )];
        let text = render(&recs, &names);
        assert!(
            text.contains("\"src\": \"a\\\"b\\\\c\\nd\\u0001\""),
            "{text}"
        );
        let quotes = text.chars().filter(|c| *c == '"').count();
        assert_eq!(quotes % 2, 0, "unbalanced quotes in {text}");
        assert!(!text.contains('\u{1}'), "raw control char leaked: {text}");
    }

    #[test]
    fn watchdog_lane_renders_instants() {
        let names = vec!["vfs".to_string()];
        let recs = vec![
            rec(
                10,
                0,
                crate::KERNEL_COMP,
                TraceEvent::DeadlineArmed {
                    target: 0,
                    msg_id: 7,
                    deadline: 1_500_010,
                },
            ),
            rec(
                1_500_010,
                1,
                crate::KERNEL_COMP,
                TraceEvent::WatchdogVerdict {
                    target: 0,
                    msg_id: 7,
                    verdict: crate::VerdictCode::Hung,
                },
            ),
        ];
        let text = render(&recs, &names);
        assert!(text.contains("\"deadline_armed\""), "{text}");
        assert!(text.contains("\"watchdog_verdict\""), "{text}");
        assert!(text.contains("\"verdict\": \"Hung\""), "{text}");
        assert!(text.contains("\"tid\": 996"), "{text}");
        assert!(text.contains("\"name\": \"watchdog\""), "{text}");
        // No watchdog events → no watchdog lane metadata.
        let empty = render(&[], &names);
        assert!(!empty.contains("\"tid\": 996"), "{empty}");
    }

    #[test]
    fn deterministic_render() {
        let names = vec!["pm".to_string()];
        let recs = vec![rec(1, 0, 0, TraceEvent::UndoAppend { bytes: 8 })];
        assert_eq!(render(&recs, &names), render(&recs, &names));
    }
}
