//! Prometheus text exposition (version 0.0.4) rendering and a small
//! offline well-formedness validator used by CI.
//!
//! Log2 histograms render as cumulative `_bucket{le="..."}` series where
//! `le` is the inclusive upper bound of each log2 bucket (`2^b - 1`),
//! followed by the mandatory `+Inf` bucket, `_sum`, and `_count`. Buckets
//! above the highest non-empty one are elided — they would all repeat the
//! final cumulative count that `+Inf` already carries.

use std::collections::HashSet;

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
        // Bucket b covers [2^(b-1), 2^b); its inclusive upper bound is
        // 2^b - 1, except bucket 0 which holds only the value 0.
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

/// Checks that `text` is well-formed Prometheus exposition: every sample
/// belongs to a family announced by `# HELP` and `# TYPE` lines (in that
/// order, once each), `TYPE` names a known kind, histogram samples only
/// follow histogram families, and no series (name + label set) repeats.
/// Returns the first problem found, with its 1-based line number.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let mut helped: HashSet<String> = HashSet::new();
    let mut typed: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    let mut seen_series: HashSet<String> = HashSet::new();

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
        if value.parse::<f64>().is_err() {
            return Err(format!("line {lineno}: unparseable sample value {value:?}"));
        }
        let name = series.split('{').next().unwrap_or("");
        if !crate::valid_name(name) {
            return Err(format!("line {lineno}: invalid metric name {name:?}"));
        }
        if series.contains('{') && !series.ends_with('}') {
            return Err(format!("line {lineno}: unterminated label set"));
        }
        // Histogram child series (_bucket/_sum/_count) resolve to the
        // family that declared them; plain series must match exactly.
        let family = resolve_family(name, &typed);
        let family = family
            .ok_or_else(|| format!("line {lineno}: sample {name} has no HELP/TYPE header"))?;
        if name != family && typed.get(family).map(String::as_str) != Some("histogram") {
            return Err(format!(
                "line {lineno}: {name} suffixed like a histogram child but {family} is not one"
            ));
        }
        if !seen_series.insert(series.to_string()) {
            return Err(format!("line {lineno}: duplicate series {series}"));
        }
    }
    Ok(())
}

/// Maps a sample name to its declaring family: itself, or for histogram
/// children the name with `_bucket`/`_sum`/`_count` stripped.
fn resolve_family<'a>(
    name: &'a str,
    typed: &std::collections::HashMap<String, String>,
) -> Option<&'a str> {
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

    #[test]
    fn validator_accepts_label_variants_of_one_series() {
        let text = "# HELP m m\n# TYPE m counter\nm{a=\"1\"} 1\nm{a=\"2\"} 1\n";
        validate_prometheus(text).unwrap();
    }
}
