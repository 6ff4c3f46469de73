//! Runs the evaluation: RCB accounting, Tables I-VI and Figure 3, in paper
//! order, plus the §VII kill-requester ablation on request.
//!
//! ```text
//! reproduce                  # everything but the ablation; writes reproduce_results.json
//! reproduce table2 figure3   # only the named experiments; writes nothing
//! ```
//!
//! Names: `rcb table1 table2 table3 table4 table5 table6 figure3
//! ablation_killreq`. The seeds, the iteration scale and the Figure 3
//! interval ladder are written here once. Expect a few minutes for the
//! fault-injection campaigns.

use osiris_bench as b;
use osiris_core::PolicyKind;
use osiris_faults::FaultModel;
use osiris_trace::{JsonDoc, JsonWriter, WriteJson};

const NAMES: &str = "rcb table1 table2 table3 table4 table5 table6 figure3 ablation_killreq";
/// Plan seed of the fail-stop campaigns (Table II and the ablation).
const FAIL_STOP_SEED: u64 = 0xfa11_5709;
/// Plan seed of the full-EDFI campaign (Table III).
const FULL_EDFI_SEED: u64 = 0xedf1_edf1;
/// Iteration-count multiplier of the Unixbench analogs.
const SCALE: f64 = 1.0;

/// Runs `make` and prints its rendering under a header, if `name` is wanted.
fn section<T>(
    wanted: &dyn Fn(&str) -> bool,
    name: &str,
    make: impl FnOnce() -> T,
    render: impl FnOnce(&T) -> String,
) -> Option<T> {
    wanted(name).then(|| {
        println!("=== {name} ===");
        let value = make();
        println!("{}", render(&value));
        value
    })
}

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = names.iter().find(|n| !NAMES.split(' ').any(|k| k == *n)) {
        eprintln!("reproduce: unknown experiment `{bad}`; names: {NAMES}");
        std::process::exit(2);
    }
    let full = names.is_empty();
    // The ablation is an extension, not one of the paper's tables: named only.
    let wanted = |name: &str| names.iter().any(|n| n == name) || full && name != "ablation_killreq";
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    // Figure 3's service-disruption intervals: 25k .. 12.8M cycles.
    let intervals: Vec<u64> = (0..10).map(|k| 25_000u64 << k).collect();

    let rcb = section(&wanted, "rcb", b::count_workspace_loc, |rcb| {
        let mut out = format!("{:<14} {:>8}  RCB?\n", "Crate", "LoC");
        for c in &rcb.crates {
            let mark = if c.rcb { "yes" } else { "" };
            out += &format!("{:<14} {:>8}  {mark}\n", c.name, c.loc);
        }
        let (rcb_loc, total, pct) = (rcb.rcb_total(), rcb.total(), rcb.rcb_pct());
        out + &format!("RCB {rcb_loc} LoC of {total} total ({pct:.1}%)\n")
    });
    let table1 = section(&wanted, "table1", b::table1, |t| t.render());
    let campaign = |name: &str, policies: &[PolicyKind], model, seed| {
        let make = || b::survivability_for(policies, model, threads, seed);
        section(&wanted, name, make, |t| t.render())
    };
    let standard = &PolicyKind::STANDARD;
    let table2 = campaign("table2", standard, FaultModel::FailStop, FAIL_STOP_SEED);
    let table3 = campaign("table3", standard, FaultModel::FullEdfi, FULL_EDFI_SEED);
    let table4 = section(
        &wanted,
        "table4",
        || b::table4(SCALE),
        |r| b::render_table4(r),
    );
    let table5 = section(
        &wanted,
        "table5",
        || b::table5(SCALE),
        |r| b::render_table5(r),
    );
    let table6 = section(&wanted, "table6", b::table6, |r| b::render_table6(r));
    let figure3 = section(
        &wanted,
        "figure3",
        || b::figure3(&intervals, SCALE),
        |p| b::render_figure3(p, &intervals),
    );
    // §VII extension: requester-scoped SEEPs with the kill-requester
    // reconciliation (`enhanced-kill`) vs the stock enhanced policy.
    let ablation = [PolicyKind::Enhanced, PolicyKind::EnhancedKill];
    campaign(
        "ablation_killreq",
        &ablation,
        FaultModel::TransientFailStop,
        FAIL_STOP_SEED,
    );

    // Only the full run has every block of the results document.
    if !full {
        return;
    }
    const RAN: &str = "the full run ran every experiment";
    let (table2, table3) = (table2.expect(RAN), table3.expect(RAN));
    let results = b::ResultsJson {
        rcb: rcb.expect(RAN),
        table1: table1.expect(RAN),
        table2,
        table3,
        table4: table4.expect(RAN),
        table5: table5.expect(RAN),
        table6: table6.expect(RAN),
        figure3: figure3.expect(RAN),
    };
    let json = JsonDoc(&results).pretty();
    std::fs::write("reproduce_results.json", &json).expect("write results json");
    println!("\n(machine-readable copy written to reproduce_results.json)");

    // Full per-injection campaign report (matrix + records for both fault
    // models), the machine-readable companion to Tables II/III.
    let mut w = JsonWriter::new(String::new());
    w.begin_object();
    results.table2.report.write_json(w.key("fail_stop"));
    results.table3.report.write_json(w.key("full_edfi"));
    w.end_object();
    let dir = b::out_dir(std::env::var_os("OSIRIS_OUT_DIR"), "reproduce");
    let campaign_path =
        b::write_out(&dir, "campaign_report.json", &w.finish()).expect("write campaign report");
    println!("(campaign report written to {})", campaign_path.display());

    // Metrics registry exposition from one fault-free suite run.
    let (prom, mjson) = b::export_suite_metrics(&dir).expect("write metrics exports");
    println!(
        "(metrics written to {} and {})",
        prom.display(),
        mjson.display()
    );
}
