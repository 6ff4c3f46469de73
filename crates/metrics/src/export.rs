//! JSON exposition of a metrics snapshot, built on the workspace's
//! hand-rolled [`Json`] tree (no serialization crates).
//!
//! The layout mirrors the registry: an ordered `families` array, each
//! family carrying its `series` with a label object and either a scalar
//! `value` or a `hist` object (summary fields plus the non-empty log2
//! buckets as `[floor, count]` pairs). Objects preserve insertion order,
//! so two runs with the same configuration produce byte-identical files.

use osiris_trace::hist::Log2Hist;
use osiris_trace::Json;

use crate::{MetricsSnapshot, SeriesValue};

/// Renders a snapshot as a JSON document.
pub fn render_json(snapshot: &MetricsSnapshot) -> Json {
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

/// A histogram as JSON: summary fields plus non-empty `[floor, count]`
/// bucket pairs.
pub fn hist_json(h: &Log2Hist) -> Json {
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
