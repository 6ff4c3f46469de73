//! Machine-readable results: the `reproduce` harness emits this JSON next
//! to its text tables so reproduction runs can be diffed by tooling.
//!
//! The emitter is hand-rolled (a tiny value tree + renderer) so the
//! workspace builds fully offline with no serialization dependencies. The
//! [`Json`] value type itself lives in `osiris-trace` (which also uses it
//! for the Chrome trace exporter) and is re-exported here.

use crate::experiments::{Fig3Point, SurvivabilityTable, Table1, Table4Row, Table5Row, Table6Row};
use crate::loc::RcbReport;
use osiris_trace::HistSummary;

pub use osiris_trace::Json;

fn survivability_json(t: &SurvivabilityTable) -> Json {
    Json::obj([
        ("model", Json::Str(format!("{:?}", t.model))),
        ("faults", Json::UInt(t.faults as u64)),
        (
            "rows",
            Json::arr(&t.rows, |(policy, tally)| {
                Json::obj([
                    ("policy", Json::Str(policy.to_string())),
                    ("pass", Json::UInt(tally.pass as u64)),
                    ("fail", Json::UInt(tally.fail as u64)),
                    ("shutdown", Json::UInt(tally.shutdown as u64)),
                    ("crash", Json::UInt(tally.crash as u64)),
                ])
            }),
        ),
    ])
}

fn rcb_json(r: &RcbReport) -> Json {
    Json::obj([(
        "crates",
        Json::arr(&r.crates, |c| {
            Json::obj([
                ("name", Json::Str(c.name.clone())),
                ("loc", Json::UInt(c.loc as u64)),
                ("rcb", Json::Bool(c.rcb)),
            ])
        }),
    )])
}

fn table1_json(t: &Table1) -> Json {
    Json::obj([
        (
            "rows",
            Json::arr(&t.rows, |r| {
                Json::obj([
                    ("server", Json::Str(r.server.clone())),
                    ("pessimistic", Json::Num(r.pessimistic)),
                    ("enhanced", Json::Num(r.enhanced)),
                ])
            }),
        ),
        ("weighted_pessimistic", Json::Num(t.weighted_pessimistic)),
        ("weighted_enhanced", Json::Num(t.weighted_enhanced)),
    ])
}

fn table4_json(r: &Table4Row) -> Json {
    Json::obj([
        ("bench", Json::Str(r.bench.clone())),
        ("monolith", Json::Num(r.monolith)),
        ("osiris", Json::Num(r.osiris)),
        ("slowdown", Json::Num(r.slowdown)),
    ])
}

fn table5_json(r: &Table5Row) -> Json {
    Json::obj([
        ("bench", Json::Str(r.bench.clone())),
        ("without_opt", Json::Num(r.without_opt)),
        ("pessimistic", Json::Num(r.pessimistic)),
        ("enhanced", Json::Num(r.enhanced)),
    ])
}

/// Renders a histogram summary as an ordered JSON object.
pub fn hist_json(h: &HistSummary) -> Json {
    Json::obj([
        ("count", Json::UInt(h.count)),
        ("min", Json::UInt(h.min)),
        ("p50", Json::UInt(h.p50)),
        ("p90", Json::UInt(h.p90)),
        ("p99", Json::UInt(h.p99)),
        ("p999", Json::UInt(h.p999)),
        ("max", Json::UInt(h.max)),
        ("mean", Json::UInt(h.mean)),
    ])
}

fn table6_json(r: &Table6Row) -> Json {
    Json::obj([
        ("server", Json::Str(r.server.clone())),
        ("base_kb", Json::Num(r.base_kb)),
        ("clone_dedup_kb", Json::Num(r.clone_dedup_kb)),
        ("clone_kb", Json::Num(r.clone_kb)),
        ("undo_kb", Json::Num(r.undo_kb)),
        ("recovery_latency", hist_json(&r.recovery_latency)),
    ])
}

fn fig3_json(p: &Fig3Point) -> Json {
    Json::obj([
        ("bench", Json::Str(p.bench.clone())),
        ("interval", Json::UInt(p.interval)),
        ("score", Json::Num(p.score)),
        ("ok", Json::Bool(p.ok)),
    ])
}

/// Everything one `reproduce` run measured.
#[derive(Clone, Debug)]
pub struct ResultsJson {
    /// RCB accounting.
    pub rcb: RcbReport,
    /// Table I.
    pub table1: Table1,
    /// Table II.
    pub table2: SurvivabilityTable,
    /// Table III.
    pub table3: SurvivabilityTable,
    /// Table IV.
    pub table4: Vec<Table4Row>,
    /// Table V.
    pub table5: Vec<Table5Row>,
    /// Table VI.
    pub table6: Vec<Table6Row>,
    /// Figure 3.
    pub figure3: Vec<Fig3Point>,
}

impl ResultsJson {
    /// Renders the full results document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rcb", rcb_json(&self.rcb)),
            ("table1", table1_json(&self.table1)),
            ("table2", survivability_json(&self.table2)),
            ("table3", survivability_json(&self.table3)),
            ("table4", Json::arr(&self.table4, table4_json)),
            ("table5", Json::arr(&self.table5, table5_json)),
            ("table6", Json::arr(&self.table6, table6_json)),
            ("figure3", Json::arr(&self.figure3, fig3_json)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::{hist_json, Json};
    use osiris_trace::HistSummary;

    #[test]
    fn hist_summary_renders_all_fields() {
        let h = HistSummary {
            count: 2,
            min: 1,
            max: 4,
            mean: 2,
            p50: 1,
            p90: 4,
            p99: 4,
            p999: 4,
        };
        let j = hist_json(&h).pretty();
        assert!(j.contains("\"count\": 2"));
        assert!(j.contains("\"mean\": 2"));
        assert!(j.contains("\"p90\": 4"));
        assert!(j.contains("\"p999\": 4"));
    }

    #[test]
    fn reexported_json_still_renders() {
        assert_eq!(Json::Null.pretty(), "null\n");
    }
}
