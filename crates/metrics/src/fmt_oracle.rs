//! The `format!` and `Json`-tree rendering the metric exports used to go
//! through, kept as the oracle for the byte-level writers: hostile help
//! text and label values, counters and gauges at both ends of `u64`, a
//! family with no series, histograms empty, in bucket 0 only and reaching
//! bucket 64, the fold's whole schema, and rings wrapped and empty,
//! rendered both ways, must give the same bytes. The `Json` value tree
//! lives here, cut to the variants these renderers build: no production
//! code builds one any more.

use osiris_trace::hist::Log2Hist;
use osiris_trace::{ActionCode, AxiomEvent, JsonDoc, JsonWriter, Sink, WriteJson};

use crate::fold::{Note, Owned, Owners, SeriesFold};
use crate::timeseries::{SampleValue, Source};
use crate::{
    render_json, render_prometheus, validate_prometheus, FamilySnapshot, MetricKind, MetricsConfig,
    MetricsSnapshot, Registry, SeriesSnapshot, SeriesValue, TimeseriesConfig, TimeseriesSampler,
};

/// A JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    /// An unsigned integer.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array by converting each item.
    fn arr<T, F: FnMut(&T) -> Json>(items: &[T], f: F) -> Json {
        Json::Arr(items.iter().map(f).collect())
    }

    /// Renders with two-space indentation and a trailing newline.
    fn pretty(&self) -> String {
        JsonDoc(self).pretty()
    }
}

impl WriteJson for Json {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        match self {
            Json::UInt(u) => w.u64(*u),
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

fn prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for family in &snapshot.families {
        render_family(&mut out, family);
    }
    out
}

fn render_family(out: &mut String, family: &FamilySnapshot) {
    out.push_str(&format!(
        "# HELP {} {}\n# TYPE {} {}\n",
        family.name,
        escape_help(&family.help),
        family.name,
        family.kind.as_str()
    ));
    for series in &family.series {
        match &series.value {
            SeriesValue::Counter(n) | SeriesValue::Gauge(n) => {
                out.push_str(&family.name);
                push_labels(out, &series.labels, None);
                out.push_str(&format!(" {n}\n"));
            }
            SeriesValue::Hist(h) => render_hist(out, &family.name, &series.labels, h),
        }
    }
}

fn render_hist(out: &mut String, name: &str, labels: &[(String, String)], h: &Log2Hist) {
    let buckets = h.buckets();
    let last = buckets
        .iter()
        .rposition(|&n| n != 0)
        .map(|b| b + 1)
        .unwrap_or(0);
    let mut cumulative = 0u64;
    for (b, &n) in buckets.iter().enumerate().take(last) {
        cumulative += n;
        let le = if b == 0 {
            0
        } else if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        };
        out.push_str(&format!("{name}_bucket"));
        push_labels(out, labels, Some(&le.to_string()));
        out.push_str(&format!(" {cumulative}\n"));
    }
    out.push_str(&format!("{name}_bucket"));
    push_labels(out, labels, Some("+Inf"));
    out.push_str(&format!(" {}\n", h.count()));
    out.push_str(name);
    out.push_str("_sum");
    push_labels(out, labels, None);
    out.push_str(&format!(" {}\n", h.sum()));
    out.push_str(name);
    out.push_str("_count");
    push_labels(out, labels, None);
    out.push_str(&format!(" {}\n", h.count()));
}

fn push_labels(out: &mut String, labels: &[(String, String)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{k}=\"{}\"", escape_label(v)));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn metrics_json(snapshot: &MetricsSnapshot) -> Json {
    Json::obj([(
        "families",
        Json::arr(&snapshot.families, |f| {
            Json::obj([
                ("name", Json::Str(f.name.clone())),
                ("help", Json::Str(f.help.clone())),
                ("kind", Json::Str(f.kind.as_str().to_string())),
                (
                    "series",
                    Json::arr(&f.series, |s| {
                        let labels = Json::Obj(
                            s.labels
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                .collect(),
                        );
                        match &s.value {
                            SeriesValue::Counter(n) | SeriesValue::Gauge(n) => {
                                Json::obj([("labels", labels), ("value", Json::UInt(*n))])
                            }
                            SeriesValue::Hist(h) => {
                                Json::obj([("labels", labels), ("hist", hist_json(h))])
                            }
                        }
                    }),
                ),
            ])
        }),
    )])
}

fn hist_json(h: &Log2Hist) -> Json {
    let s = h.summary();
    let buckets: Vec<(u64, u64)> = h
        .buckets()
        .iter()
        .enumerate()
        .filter(|(_, &n)| n != 0)
        .map(|(b, &n)| (Log2Hist::bucket_floor(b), n))
        .collect();
    Json::obj([
        ("count", Json::UInt(s.count)),
        ("sum", Json::UInt(h.sum())),
        ("min", Json::UInt(s.min)),
        ("max", Json::UInt(s.max)),
        ("mean", Json::UInt(s.mean)),
        ("p50", Json::UInt(s.p50)),
        ("p90", Json::UInt(s.p90)),
        ("p99", Json::UInt(s.p99)),
        ("p999", Json::UInt(s.p999)),
        (
            "buckets",
            Json::arr(&buckets, |&(floor, n)| {
                Json::Arr(vec![Json::UInt(floor), Json::UInt(n)])
            }),
        ),
    ])
}

fn timeseries_json(sampler: &TimeseriesSampler) -> Json {
    Json::obj([
        ("interval", Json::UInt(sampler.cfg.interval)),
        ("capacity", Json::UInt(sampler.cfg.capacity as u64)),
        (
            "series",
            Json::arr(&sampler.tracked, |t| {
                let columns: &[&str] = match t.source {
                    Source::Counter(_) => &["t", "value"],
                    Source::Hist(_) => &["t", "count", "p50", "p90", "p99", "p999", "max"],
                };
                Json::obj([
                    ("name", Json::Str(t.name.clone())),
                    ("kind", Json::Str(t.kind().to_string())),
                    (
                        "columns",
                        Json::Arr(columns.iter().map(|c| Json::Str(c.to_string())).collect()),
                    ),
                    (
                        "points",
                        Json::Arr(
                            t.in_order()
                                .map(|s| {
                                    let row = match s.value {
                                        SampleValue::Counter(v) => vec![s.t, v],
                                        SampleValue::Hist(h) => {
                                            vec![s.t, h.count, h.p50, h.p90, h.p99, h.p999, h.max]
                                        }
                                    };
                                    Json::Arr(row.into_iter().map(Json::UInt).collect())
                                })
                                .collect(),
                        ),
                    ),
                ])
            }),
        ),
    ])
}

/// Text every escaper must pass through or escape: quotes, backslashes,
/// newlines, a control byte and a multi-byte character.
const HOSTILE: [&str; 7] = [
    "\"",
    "\\",
    "\n",
    "\u{1}",
    "µs",
    "a\"b\\c\nd\u{1}µs",
    "plain",
];

fn hist(values: &[u64]) -> SeriesValue {
    let mut h = Log2Hist::new();
    values.iter().for_each(|&v| h.record(v));
    SeriesValue::Hist(Box::new(h))
}

fn family(name: &str, help: &str, kind: MetricKind, series: Vec<SeriesSnapshot>) -> FamilySnapshot {
    FamilySnapshot {
        name: name.into(),
        help: help.into(),
        kind,
        series,
    }
}

fn series(labels: &[(&str, &str)], value: SeriesValue) -> SeriesSnapshot {
    SeriesSnapshot {
        labels: labels.iter().map(|&(k, v)| (k.into(), v.into())).collect(),
        value,
    }
}

/// Hand-built snapshots at every boundary, the fold's whole schema after a
/// few events, and no family at all.
fn snapshots() -> Vec<MetricsSnapshot> {
    let help = HOSTILE.concat();
    let counters = HOSTILE
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let n = if i % 2 == 0 { 0 } else { u64::MAX };
            series(&[("component", v)], SeriesValue::Counter(n))
        })
        .collect();
    let gauges = [0, u64::MAX]
        .iter()
        .zip(HOSTILE)
        .map(|(&n, v)| series(&[("a", v), ("b", "µs")], SeriesValue::Gauge(n)))
        .chain([series(&[], SeriesValue::Gauge(u64::MAX))])
        .collect();
    let hists = vec![
        series(&[], hist(&[])),
        series(&[("only", "zero")], hist(&[0, 0, 0])),
        series(&[("le_max", "")], hist(&[0, 1, 3, 900, 1 << 40, u64::MAX])),
        series(&[("x", HOSTILE[5])], hist(&[u64::MAX, u64::MAX])),
    ];
    let edges = MetricsSnapshot {
        families: vec![
            family("osiris_oracle_total", &help, MetricKind::Counter, counters),
            family("osiris_oracle_level", "µs\\n", MetricKind::Gauge, gauges),
            family("osiris_oracle_empty", "", MetricKind::Counter, vec![]),
            family("osiris_oracle_cycles", &help, MetricKind::Histogram, hists),
        ],
    };

    let mut fold = SeriesFold::new(MetricsConfig::on(), TimeseriesConfig::default());
    fold.add_component("pm");
    fold.add_component("vm");
    for cycles in [0, 1, 900, u64::MAX] {
        fold.note(Note::HangVerdict { cycles });
    }
    fold.note(Note::Handled {
        comp: 1,
        cycles: u64::MAX,
    });
    fold.sealed(&AxiomEvent::RecoveryDecision {
        comp: 1,
        action: ActionCode::FreshRestart,
    });
    fold.sealed(&AxiomEvent::RecoveryDone {
        comp: 1,
        cycles: 40,
    });
    let owners = Owners {
        comps: vec![
            Owned::<()> {
                heap_bytes: usize::MAX,
                ..Owned::default()
            };
            2
        ],
        ..Owners::default()
    };

    vec![
        edges,
        fold.snapshot(&owners),
        MetricsSnapshot { families: vec![] },
    ]
}

/// A ring that wrapped, one that is empty and one that tracks nothing,
/// under hostile names.
fn samplers() -> Vec<TimeseriesSampler> {
    let mut m = Registry::default();
    let c = m.counter("osiris_ts_total", "t", &[]);
    let h = m.hist("osiris_ts_hist", "t", &[]);
    let make = || {
        let mut s = TimeseriesSampler::new(TimeseriesConfig {
            enabled: true,
            interval: 10,
            capacity: 3,
        });
        s.track_counter(HOSTILE[5], c);
        s.track_hist("osiris_ts_hist{overlap=\"none\"}", h);
        s
    };
    let mut wrapped = make();
    for i in 1..=5 {
        m.add(c, u64::MAX / 8);
        m.observe(h, i * 1_000);
        m.observe(h, u64::MAX);
        wrapped.sample(i * 10, &m);
    }
    vec![
        wrapped,
        make(),
        TimeseriesSampler::new(TimeseriesConfig::on()),
    ]
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
fn prometheus_matches_the_fmt_reference() {
    let snapshots = snapshots();
    let edges = render_prometheus(&snapshots[0]);
    for bucket in [
        "{only=\"zero\",le=\"0\"} 3\n",
        "le=\"18446744073709551615\"} 6\n",
    ] {
        assert!(edges.contains(bucket), "{bucket:?} not reached");
    }
    for snapshot in snapshots {
        let got = render_prometheus(&snapshot);
        assert_same(&got, &prometheus(&snapshot));
        validate_prometheus(&got).expect("exposition must lint");
    }
}

#[test]
fn metrics_json_matches_the_json_tree() {
    for snapshot in snapshots() {
        assert_same(
            &render_json(&snapshot).pretty(),
            &metrics_json(&snapshot).pretty(),
        );
    }
}

#[test]
fn timeseries_json_matches_the_json_tree() {
    let samplers = samplers();
    assert_eq!(samplers[0].len(), 6, "the ring wrapped: 3 of 5 points each");
    for sampler in samplers {
        assert_same(
            &sampler.to_json().pretty(),
            &timeseries_json(&sampler).pretty(),
        );
    }
}
