//! Machine-readable results: the `reproduce` harness emits this JSON next
//! to its text tables so reproduction runs can be diffed by tooling.
//!
//! Each table and row is a [`WriteJson`] value that streams itself into
//! `osiris-trace`'s [`JsonWriter`], the one JSON writer of the workspace,
//! which also renders the Chrome trace, the metric documents and the
//! campaign report. There is no value tree to build first and no
//! serialization dependency.

use osiris_faults::FaultModel;
use osiris_trace::{JsonWriter, Sink, WriteJson};

use crate::experiments::{
    CoverageRow, Fig3Point, SurvivabilityTable, Table1, Table4Row, Table5Row, Table6Row,
};
use crate::loc::{CrateLoc, RcbReport};

/// A fault model's name as the results document has always spelled it:
/// the variant name.
fn model_name(model: FaultModel) -> &'static str {
    match model {
        FaultModel::FailStop => "FailStop",
        FaultModel::TransientFailStop => "TransientFailStop",
        FaultModel::FullEdfi => "FullEdfi",
        FaultModel::FailSilent => "FailSilent",
        FaultModel::DuringRecovery => "DuringRecovery",
        FaultModel::DoubleFault => "DoubleFault",
    }
}

/// Writes `items` as a JSON array.
fn array<T: WriteJson, S: Sink>(w: &mut JsonWriter<S>, items: &[T]) {
    w.begin_array();
    items.iter().for_each(|item| item.write_json(w));
    w.end_array();
}

impl WriteJson for SurvivabilityTable {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        w.begin_object();
        w.key("model").str(model_name(self.model));
        w.key("faults").u64(self.faults as u64);
        w.key("rows").begin_array();
        for (policy, tally) in &self.rows {
            w.begin_object();
            w.key("policy").str(policy.label());
            w.key("pass").u64(tally.pass as u64);
            w.key("fail").u64(tally.fail as u64);
            w.key("shutdown").u64(tally.shutdown as u64);
            w.key("crash").u64(tally.crash as u64);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
}

impl WriteJson for CrateLoc {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        w.begin_object();
        w.key("name").str(&self.name);
        w.key("loc").u64(self.loc as u64);
        w.key("rcb").bool(self.rcb);
        w.end_object();
    }
}

impl WriteJson for RcbReport {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        w.begin_object();
        array(w.key("crates"), &self.crates);
        w.end_object();
    }
}

impl WriteJson for CoverageRow {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        w.begin_object();
        w.key("server").str(&self.server);
        w.key("pessimistic").f64(self.pessimistic);
        w.key("enhanced").f64(self.enhanced);
        w.end_object();
    }
}

impl WriteJson for Table1 {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        w.begin_object();
        array(w.key("rows"), &self.rows);
        w.key("weighted_pessimistic").f64(self.weighted_pessimistic);
        w.key("weighted_enhanced").f64(self.weighted_enhanced);
        w.end_object();
    }
}

impl WriteJson for Table4Row {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        w.begin_object();
        w.key("bench").str(&self.bench);
        w.key("monolith").f64(self.monolith);
        w.key("osiris").f64(self.osiris);
        w.key("slowdown").f64(self.slowdown);
        w.end_object();
    }
}

impl WriteJson for Table5Row {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        w.begin_object();
        w.key("bench").str(&self.bench);
        w.key("without_opt").f64(self.without_opt);
        w.key("pessimistic").f64(self.pessimistic);
        w.key("enhanced").f64(self.enhanced);
        w.end_object();
    }
}

/// A row with its recovery-latency summary as an ordered object.
impl WriteJson for Table6Row {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        let h = &self.recovery_latency;
        w.begin_object();
        w.key("server").str(&self.server);
        w.key("base_kb").f64(self.base_kb);
        w.key("clone_dedup_kb").f64(self.clone_dedup_kb);
        w.key("clone_kb").f64(self.clone_kb);
        w.key("undo_kb").f64(self.undo_kb);
        w.key("recovery_latency").begin_object();
        w.key("count").u64(h.count);
        w.key("min").u64(h.min);
        w.key("p50").u64(h.p50);
        w.key("p90").u64(h.p90);
        w.key("p99").u64(h.p99);
        w.key("p999").u64(h.p999);
        w.key("max").u64(h.max);
        w.key("mean").u64(h.mean);
        w.end_object();
        w.end_object();
    }
}

impl WriteJson for Fig3Point {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        w.begin_object();
        w.key("bench").str(&self.bench);
        w.key("interval").u64(self.interval);
        w.key("score").f64(self.score);
        w.key("ok").bool(self.ok);
        w.end_object();
    }
}

/// Everything one `reproduce` run measured.
#[derive(Debug)]
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

/// The full results document (`reproduce_results.json`). The campaign
/// reports inside Tables II/III go to `campaign_report.json` instead.
impl WriteJson for ResultsJson {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        w.begin_object();
        self.rcb.write_json(w.key("rcb"));
        self.table1.write_json(w.key("table1"));
        self.table2.write_json(w.key("table2"));
        self.table3.write_json(w.key("table3"));
        array(w.key("table4"), &self.table4);
        array(w.key("table5"), &self.table5);
        array(w.key("table6"), &self.table6);
        array(w.key("figure3"), &self.figure3);
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::{model_name, ResultsJson};
    use crate::experiments::{
        CoverageRow, Fig3Point, SurvivabilityTable, Table1, Table4Row, Table5Row, Table6Row,
    };
    use crate::loc::{CrateLoc, RcbReport};
    use osiris_core::PolicyKind;
    use osiris_faults::{Campaign, FaultModel, Tally};
    use osiris_metrics::Registry;
    use osiris_trace::{HistSummary, JsonDoc};

    fn table6_row() -> Table6Row {
        Table6Row {
            server: "vfs".into(),
            base_kb: 12.25,
            clone_dedup_kb: 0.0,
            clone_kb: 4.0,
            undo_kb: 0.5,
            recovery_latency: HistSummary {
                count: 2,
                min: 1,
                max: 4,
                mean: 2,
                p50: 1,
                p90: 4,
                p99: 4,
                p999: 4,
            },
        }
    }

    #[test]
    fn hist_summary_renders_all_fields() {
        let j = JsonDoc(table6_row()).pretty();
        assert!(j.contains("\"count\": 2"));
        assert!(j.contains("\"mean\": 2"));
        assert!(j.contains("\"p90\": 4"));
        assert!(j.contains("\"p999\": 4"));
    }

    #[test]
    fn model_names_are_the_variant_names() {
        use FaultModel::*;
        for model in [
            FailStop,
            TransientFailStop,
            FullEdfi,
            FailSilent,
            DuringRecovery,
            DoubleFault,
        ] {
            assert_eq!(model_name(model), format!("{model:?}"));
        }
    }

    fn survivability(
        model: FaultModel,
        faults: usize,
        rows: Vec<(PolicyKind, Tally)>,
    ) -> SurvivabilityTable {
        SurvivabilityTable {
            model,
            faults,
            rows,
            report: Campaign::new("t", model, Vec::new(), Registry::default()),
        }
    }

    /// The results document of a hand-built run, as the `Json` tree
    /// rendered it: floats integral, fractional, inexact, tiny, huge,
    /// negative zero and non-finite, and both model names.
    #[test]
    fn results_render_as_the_tree_did() {
        let results = ResultsJson {
            rcb: RcbReport {
                crates: vec![
                    CrateLoc {
                        name: "kernel".into(),
                        loc: 2800,
                        rcb: true,
                    },
                    CrateLoc {
                        name: "bench".into(),
                        loc: 0,
                        rcb: false,
                    },
                ],
            },
            table1: Table1 {
                rows: vec![CoverageRow {
                    server: "pm".into(),
                    pessimistic: 2.0,
                    enhanced: 1.5,
                }],
                weighted_pessimistic: 0.1,
                weighted_enhanced: f64::NAN,
            },
            table2: survivability(
                FaultModel::FailStop,
                3,
                vec![
                    (
                        PolicyKind::Enhanced,
                        Tally {
                            pass: 2,
                            shutdown: 1,
                            ..Tally::default()
                        },
                    ),
                    (
                        PolicyKind::EnhancedKill,
                        Tally {
                            fail: 1,
                            crash: 2,
                            ..Tally::default()
                        },
                    ),
                ],
            ),
            table3: survivability(FaultModel::FullEdfi, 0, Vec::new()),
            table4: vec![Table4Row {
                bench: "dhry".into(),
                monolith: 1e21,
                osiris: f64::INFINITY,
                slowdown: -0.0,
            }],
            table5: vec![Table5Row {
                bench: "pipe".into(),
                without_opt: 1.0 / 3.0,
                pessimistic: 1e-7,
                enhanced: 100.0,
            }],
            table6: vec![table6_row()],
            figure3: vec![Fig3Point {
                bench: "spawn".into(),
                interval: 1000,
                score: 99.5,
                ok: true,
            }],
        };
        assert_eq!(JsonDoc(&results).pretty(), RESULTS_LITERAL);
    }

    const RESULTS_LITERAL: &str = r#"{
  "rcb": {
    "crates": [
      {
        "name": "kernel",
        "loc": 2800,
        "rcb": true
      },
      {
        "name": "bench",
        "loc": 0,
        "rcb": false
      }
    ]
  },
  "table1": {
    "rows": [
      {
        "server": "pm",
        "pessimistic": 2.0,
        "enhanced": 1.5
      }
    ],
    "weighted_pessimistic": 0.1,
    "weighted_enhanced": null
  },
  "table2": {
    "model": "FailStop",
    "faults": 3,
    "rows": [
      {
        "policy": "enhanced",
        "pass": 2,
        "fail": 0,
        "shutdown": 1,
        "crash": 0
      },
      {
        "policy": "enhanced-kill",
        "pass": 0,
        "fail": 1,
        "shutdown": 0,
        "crash": 2
      }
    ]
  },
  "table3": {
    "model": "FullEdfi",
    "faults": 0,
    "rows": []
  },
  "table4": [
    {
      "bench": "dhry",
      "monolith": 1000000000000000000000.0,
      "osiris": null,
      "slowdown": -0.0
    }
  ],
  "table5": [
    {
      "bench": "pipe",
      "without_opt": 0.3333333333333333,
      "pessimistic": 0.0000001,
      "enhanced": 100.0
    }
  ],
  "table6": [
    {
      "server": "vfs",
      "base_kb": 12.25,
      "clone_dedup_kb": 0.0,
      "clone_kb": 4.0,
      "undo_kb": 0.5,
      "recovery_latency": {
        "count": 2,
        "min": 1,
        "p50": 1,
        "p90": 4,
        "p99": 4,
        "p999": 4,
        "max": 4,
        "mean": 2
      }
    }
  ],
  "figure3": [
    {
      "bench": "spawn",
      "interval": 1000,
      "score": 99.5,
      "ok": true
    }
  ]
}
"#;
}
