//! JSON exposition of a metrics snapshot, written straight into a
//! [`JsonWriter`] (no serialization crates, no value tree).
//!
//! The layout mirrors the registry: an ordered `families` array, each
//! family carrying its `series` with a label object and either a scalar
//! `value` or a `hist` object (summary fields plus the non-empty log2
//! buckets as `[floor, count]` pairs). Members are written in a fixed
//! order, so two runs with the same configuration produce byte-identical
//! files.

use osiris_trace::hist::Log2Hist;
use osiris_trace::{JsonDoc, JsonWriter, Sink, WriteJson};

use crate::{MetricsSnapshot, SeriesValue};

/// A snapshot as a JSON document.
pub fn render_json(snapshot: &MetricsSnapshot) -> JsonDoc<&MetricsSnapshot> {
    JsonDoc(snapshot)
}

impl WriteJson for MetricsSnapshot {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        w.begin_object();
        w.key("families").begin_array();
        for f in &self.families {
            w.begin_object();
            w.key("name").str(&f.name);
            w.key("help").str(&f.help);
            w.key("kind").str(f.kind.as_str());
            w.key("series").begin_array();
            for s in &f.series {
                w.begin_object();
                w.key("labels").begin_object();
                for (k, v) in &s.labels {
                    w.key(k).str(v);
                }
                w.end_object();
                match &s.value {
                    SeriesValue::Counter(n) | SeriesValue::Gauge(n) => w.key("value").u64(*n),
                    SeriesValue::Hist(h) => write_hist(w.key("hist"), h),
                }
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
}

/// A histogram: summary fields plus non-empty `[floor, count]` bucket
/// pairs.
fn write_hist<S: Sink>(w: &mut JsonWriter<S>, h: &Log2Hist) {
    let s = h.summary();
    w.begin_object();
    for (key, value) in [
        ("count", s.count),
        ("sum", h.sum()),
        ("min", s.min),
        ("max", s.max),
        ("mean", s.mean),
        ("p50", s.p50),
        ("p90", s.p90),
        ("p99", s.p99),
        ("p999", s.p999),
    ] {
        w.key(key).u64(value);
    }
    w.key("buckets").begin_array();
    for (b, &n) in h.buckets().iter().enumerate().filter(|(_, &n)| n != 0) {
        w.begin_array();
        w.u64(Log2Hist::bucket_floor(b));
        w.u64(n);
        w.end_array();
    }
    w.end_array();
    w.end_object();
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn json_round_trips_structure() {
        let mut m = Registry::default();
        let c = m.counter("osiris_j_total", "j", &[("component", "pm")]);
        m.add(c, 3);
        let h = m.hist("osiris_j_hist", "jh", &[]);
        m.observe(h, 5);
        let text = m.json().pretty();
        assert!(text.contains("\"name\": \"osiris_j_total\""));
        assert!(text.contains("\"component\": \"pm\""));
        assert!(text.contains("\"value\": 3"));
        assert!(text.contains("\"kind\": \"histogram\""));
        assert!(text.contains("\"count\": 1"));
        // 5 lands in bucket 3 (floor 4).
        assert!(text.contains("4,"));
    }

    #[test]
    fn empty_hist_has_empty_buckets() {
        let mut m = Registry::default();
        let _ = m.hist("osiris_empty_hist", "e", &[]);
        let text = m.json().pretty();
        assert!(text.contains("\"buckets\": []"));
    }
}
