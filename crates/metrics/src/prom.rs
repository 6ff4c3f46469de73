//! Prometheus text exposition (version 0.0.4) rendering and a small
//! offline well-formedness validator used by CI.
//!
//! Log2 histograms render as cumulative `_bucket{le="..."}` series where
//! `le` is the inclusive upper bound of each log2 bucket (`2^b - 1`),
//! followed by the mandatory `+Inf` bucket, `_sum`, and `_count`. Buckets
//! above the highest non-empty one are elided — they would all repeat the
//! final cumulative count that `+Inf` already carries.

use std::collections::{HashMap, HashSet};

use osiris_trace::Sink;

use crate::{FamilySnapshot, Log2Hist, MetricsSnapshot, SeriesValue};

/// Renders a snapshot in Prometheus text exposition format.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for family in &snapshot.families {
        render_family(&mut out, family);
    }
    out
}

fn render_family(out: &mut String, family: &FamilySnapshot) {
    let name = &family.name;
    out.put("# HELP ");
    out.put(name);
    out.put(" ");
    escape(out, &family.help, Escape::Help);
    out.put("\n# TYPE ");
    out.put(name);
    out.put(" ");
    out.put(family.kind.as_str());
    out.put("\n");
    for series in &family.series {
        match &series.value {
            SeriesValue::Counter(n) | SeriesValue::Gauge(n) => {
                sample(out, name, "", &series.labels, None, *n);
            }
            SeriesValue::Hist(h) => render_hist(out, name, &series.labels, h),
        }
    }
}

/// A `_bucket` series' `le` label.
#[derive(Clone, Copy)]
enum Le {
    /// An inclusive upper bound.
    At(u64),
    /// `+Inf`.
    Inf,
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
        // Bucket b covers [2^(b-1), 2^b); its inclusive upper bound is
        // 2^b - 1, except bucket 0 which holds only the value 0.
        let le = if b == 0 {
            0
        } else if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        };
        sample(out, name, "_bucket", labels, Some(Le::At(le)), cumulative);
    }
    sample(out, name, "_bucket", labels, Some(Le::Inf), h.count());
    sample(out, name, "_sum", labels, None, h.sum());
    sample(out, name, "_count", labels, None, h.count());
}

/// One sample line: `name` + `suffix`, the label set, then the value.
fn sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(String, String)],
    le: Option<Le>,
    value: u64,
) {
    out.put(name);
    out.put(suffix);
    if !labels.is_empty() || le.is_some() {
        out.put("{");
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.put(",");
            }
            out.put(k);
            out.put("=\"");
            escape(out, v, Escape::Label);
            out.put("\"");
        }
        if let Some(le) = le {
            out.put(if labels.is_empty() { "le=\"" } else { ",le=\"" });
            match le {
                Le::At(bound) => out.put_u64(bound),
                Le::Inf => out.put("+Inf"),
            }
            out.put("\"");
        }
        out.put("}");
    }
    out.put(" ");
    out.put_u64(value);
    out.put("\n");
}

/// What a piece of text is escaped as: help text escapes a backslash and
/// a newline; a label value also escapes `"`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Escape {
    Help,
    Label,
}

/// Puts `text` into `out` with the escapes `what` needs. Text that needs
/// none goes through in one piece.
fn escape(out: &mut String, text: &str, what: Escape) {
    let needs = |b: u8| b == b'\\' || b == b'\n' || (b == b'"' && what == Escape::Label);
    if !text.bytes().any(needs) {
        return out.put(text);
    }
    // Every byte that needs an escape is ASCII, so the runs between them
    // are whole UTF-8.
    let mut clean = 0;
    for (i, b) in text.bytes().enumerate() {
        if needs(b) {
            out.put(&text[clean..i]);
            out.put(match b {
                b'\\' => "\\\\",
                b'\n' => "\\n",
                _ => "\\\"",
            });
            clean = i + 1;
        }
    }
    out.put(&text[clean..]);
}

/// Checks that `text` is well-formed Prometheus exposition: every sample
/// belongs to a family announced by `# HELP` and `# TYPE` lines (in that
/// order, once each), `TYPE` names a known kind, histogram samples only
/// follow histogram families, and no series (name + label set) repeats.
/// Each histogram series' `_bucket` bounds increase and their counts never
/// decrease, and it has a `le="+Inf"` bucket equal to its `_count`.
/// Returns the first problem found, with its 1-based line number.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let mut helped: HashSet<String> = HashSet::new();
    let mut typed: HashMap<String, String> = HashMap::new();
    let mut seen_series: HashSet<String> = HashSet::new();
    // Histogram series by family and label set less `le`, in order of
    // first appearance.
    let mut hists: Vec<HistSeries> = Vec::new();
    let mut hist_index: HashMap<(&str, Labels), usize> = HashMap::new();

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            if name.is_empty() {
                return Err(format!("line {lineno}: HELP without a metric name"));
            }
            if !helped.insert(name.to_string()) {
                return Err(format!("line {lineno}: duplicate HELP for {name}"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if name.is_empty() || kind.is_empty() {
                return Err(format!("line {lineno}: malformed TYPE line"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {lineno}: unknown metric type {kind:?}"));
            }
            if !helped.contains(name) {
                return Err(format!("line {lineno}: TYPE for {name} precedes its HELP"));
            }
            if typed.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {lineno}: duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }

        // Sample line: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: sample without a value"))?;
        let Ok(value) = value.parse::<f64>() else {
            return Err(format!("line {lineno}: unparseable sample value {value:?}"));
        };
        let (name, label_set) = match series.split_once('{') {
            Some((name, rest)) => {
                let set = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
                (name, set)
            }
            None => (series, ""),
        };
        if !crate::valid_name(name) {
            return Err(format!("line {lineno}: invalid metric name {name:?}"));
        }
        // Histogram child series (_bucket/_sum/_count) resolve to the
        // family that declared them; plain series must match exactly.
        let family = resolve_family(name, &typed);
        let family = family
            .ok_or_else(|| format!("line {lineno}: sample {name} has no HELP/TYPE header"))?;
        let is_hist = typed.get(family).map(String::as_str) == Some("histogram");
        if name != family && !is_hist {
            return Err(format!(
                "line {lineno}: {name} suffixed like a histogram child but {family} is not one"
            ));
        }
        if !seen_series.insert(series.to_string()) {
            return Err(format!("line {lineno}: duplicate series {series}"));
        }
        if !is_hist || name == family {
            continue;
        }

        // A histogram child: check it against its series' earlier lines.
        let labels =
            split_labels(label_set).ok_or_else(|| format!("line {lineno}: malformed label set"))?;
        let le = labels.iter().find(|(k, _)| *k == "le").map(|&(_, v)| v);
        let rest = labels.into_iter().filter(|(k, _)| *k != "le").collect();
        let at = *hist_index.entry((family, rest)).or_insert_with(|| {
            hists.push(HistSeries {
                family,
                first: lineno,
                last: None,
                inf: None,
                count: None,
            });
            hists.len() - 1
        });
        let h = &mut hists[at];
        match &name[family.len()..] {
            "_bucket" => {
                let le = le.ok_or_else(|| format!("line {lineno}: {name} without le"))?;
                let bound = match le {
                    "+Inf" => f64::INFINITY,
                    _ => le
                        .parse::<f64>()
                        .map_err(|_| format!("line {lineno}: unparseable le {le:?}"))?,
                };
                if h.last.is_some_and(|(prev, _)| bound <= prev) {
                    return Err(format!("line {lineno}: {name} le bounds do not increase"));
                }
                if h.last.is_some_and(|(_, prev)| value < prev) {
                    return Err(format!("line {lineno}: {name} counts decrease"));
                }
                h.last = Some((bound, value));
                if bound == f64::INFINITY {
                    h.inf = Some(value);
                }
            }
            "_count" => h.count = Some((lineno, value)),
            _ => {}
        }
    }
    for h in hists {
        let family = h.family;
        let Some(inf) = h.inf else {
            return Err(format!(
                "line {}: histogram {family} has no le=\"+Inf\" bucket",
                h.first
            ));
        };
        if let Some((lineno, count)) = h.count {
            if count != inf {
                return Err(format!(
                    "line {lineno}: {family}_count {count} differs from its +Inf bucket {inf}"
                ));
            }
        }
    }
    Ok(())
}

/// What the validator has seen of one histogram series.
struct HistSeries<'a> {
    family: &'a str,
    /// The line of its first sample.
    first: usize,
    /// The last `_bucket`'s bound and count.
    last: Option<(f64, f64)>,
    /// The `+Inf` bucket's count.
    inf: Option<f64>,
    /// The `_count` sample's line and value.
    count: Option<(usize, f64)>,
}

/// A label set's `name="value"` pairs, values still escaped.
type Labels<'a> = Vec<(&'a str, &'a str)>;

/// The pairs of a label set; `None` if it is malformed.
fn split_labels(mut set: &str) -> Option<Labels<'_>> {
    let mut pairs = Vec::new();
    while !set.is_empty() {
        let (key, rest) = set.split_once("=\"")?;
        // The value ends at the first quote no backslash escapes.
        let mut escaped = false;
        let end = rest.bytes().position(|b| {
            let close = b == b'"' && !escaped;
            escaped = b == b'\\' && !escaped;
            close
        })?;
        pairs.push((key, &rest[..end]));
        set = &rest[end + 1..];
        if !set.is_empty() {
            set = set.strip_prefix(',')?;
        }
    }
    Some(pairs)
}

/// Maps a sample name to its declaring family: itself, or for histogram
/// children the name with `_bucket`/`_sum`/`_count` stripped.
fn resolve_family<'a>(name: &'a str, typed: &HashMap<String, String>) -> Option<&'a str> {
    if typed.contains_key(name) {
        return Some(name);
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if typed.contains_key(base) {
                return Some(base);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsConfig, Registry};

    fn sample_registry() -> Registry {
        let mut m = Registry::new(MetricsConfig::on());
        let c = m.counter("osiris_ipc_total", "IPC messages delivered", &[]);
        m.add(c, 12);
        let g = m.gauge("osiris_heap_bytes", "live heap", &[("component", "pm")]);
        m.set(g, 4096);
        let h = m.hist(
            "osiris_latency_cycles",
            "recovery latency",
            &[("component", "pm")],
        );
        for v in [0, 1, 3, 900, 70_000] {
            m.observe(h, v);
        }
        m
    }

    #[test]
    fn rendered_output_validates() {
        let text = sample_registry().prometheus();
        validate_prometheus(&text).unwrap();
        assert!(text.contains("# HELP osiris_ipc_total IPC messages delivered\n"));
        assert!(text.contains("# TYPE osiris_ipc_total counter\n"));
        assert!(text.contains("osiris_ipc_total 12\n"));
        assert!(text.contains("osiris_heap_bytes{component=\"pm\"} 4096\n"));
        assert!(text.contains("osiris_latency_cycles_bucket{component=\"pm\",le=\"0\"} 1\n"));
        assert!(text.contains("osiris_latency_cycles_bucket{component=\"pm\",le=\"+Inf\"} 5\n"));
        assert!(text.contains("osiris_latency_cycles_count{component=\"pm\"} 5\n"));
        assert!(text.contains(&format!(
            "osiris_latency_cycles_sum{{component=\"pm\"}} {}\n",
            4 + 900 + 70_000
        )));
    }

    #[test]
    fn hist_buckets_are_cumulative() {
        let mut m = Registry::default();
        let h = m.hist("osiris_h", "h", &[]);
        m.observe(h, 1);
        m.observe(h, 2);
        let text = m.prometheus();
        // bucket_of(1)=1 (le=1), bucket_of(2)=2 (le=3).
        assert!(text.contains("osiris_h_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("osiris_h_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("osiris_h_bucket{le=\"+Inf\"} 2\n"));
    }

    #[test]
    fn validator_rejects_missing_header() {
        assert!(validate_prometheus("loose_metric 1\n").is_err());
    }

    #[test]
    fn validator_rejects_duplicate_series() {
        let text = "# HELP m m\n# TYPE m counter\nm 1\nm 2\n";
        let err = validate_prometheus(text).unwrap_err();
        assert!(err.contains("duplicate series"), "{err}");
    }

    #[test]
    fn validator_rejects_duplicate_headers_and_bad_type() {
        let twice = "# HELP m m\n# HELP m m\n";
        assert!(validate_prometheus(twice)
            .unwrap_err()
            .contains("duplicate HELP"));
        let bad = "# HELP m m\n# TYPE m sideways\n";
        assert!(validate_prometheus(bad)
            .unwrap_err()
            .contains("unknown metric type"));
    }

    /// A histogram family header, then `body`.
    fn hist_doc(body: &str) -> String {
        format!("# HELP h h\n# TYPE h histogram\n{body}")
    }

    #[test]
    fn validator_rejects_decreasing_bucket_counts() {
        let text = hist_doc(
            "h_bucket{le=\"1\"} 2\nh_bucket{le=\"3\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n",
        );
        let err = validate_prometheus(&text).unwrap_err();
        assert!(err.contains("line 4: h_bucket counts decrease"), "{err}");
    }

    #[test]
    fn validator_rejects_bounds_that_do_not_increase() {
        let text = hist_doc(
            "h_bucket{a=\"x\",le=\"3\"} 1\nh_bucket{a=\"x\",le=\"3.0\"} 1\nh_bucket{a=\"x\",le=\"+Inf\"} 1\n",
        );
        let err = validate_prometheus(&text).unwrap_err();
        assert!(
            err.contains("line 4: h_bucket le bounds do not increase"),
            "{err}"
        );
    }

    #[test]
    fn validator_rejects_a_histogram_without_an_inf_bucket() {
        // The other label set's `+Inf` does not count for this one.
        let text = hist_doc(
            "h_bucket{a=\"1\",le=\"1\"} 1\nh_bucket{a=\"2\",le=\"+Inf\"} 1\nh_count{a=\"1\"} 1\nh_count{a=\"2\"} 1\n",
        );
        let err = validate_prometheus(&text).unwrap_err();
        assert!(
            err.contains("line 3: histogram h has no le=\"+Inf\" bucket"),
            "{err}"
        );
    }

    #[test]
    fn validator_rejects_an_inf_bucket_other_than_the_count() {
        let text = hist_doc("h_bucket{le=\"+Inf\"} 2\nh_sum 4\nh_count 3\n");
        let err = validate_prometheus(&text).unwrap_err();
        assert!(
            err.contains("line 5: h_count 3 differs from its +Inf bucket 2"),
            "{err}"
        );
    }

    #[test]
    fn validator_accepts_label_variants_of_one_series() {
        let text = "# HELP m m\n# TYPE m counter\nm{a=\"1\"} 1\nm{a=\"2\"} 1\n";
        validate_prometheus(text).unwrap();
    }
}
