//! Runs the complete evaluation: RCB accounting, Tables I-VI and Figure 3,
//! in paper order. Expect a few minutes of runtime for the fault-injection
//! campaigns.

use osiris_faults::FaultModel;

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    println!("=== RCB (paper V-A) ===");
    let rcb = osiris_bench::count_workspace_loc();
    println!(
        "RCB {} LoC of {} total ({:.1}%)\n",
        rcb.rcb_total(),
        rcb.total(),
        rcb.rcb_pct()
    );

    println!("=== Table I ===");
    let table1 = osiris_bench::table1();
    println!("{}", table1.render());

    println!("=== Table II ===");
    let table2 = osiris_bench::survivability(FaultModel::FailStop, threads, 0xfa11_5709);
    println!("{}", table2.render());

    println!("=== Table III ===");
    let table3 = osiris_bench::survivability(FaultModel::FullEdfi, threads, 0xedf1_edf1);
    println!("{}", table3.render());

    println!("=== Table IV ===");
    let table4 = osiris_bench::table4(1.0);
    println!("{}", osiris_bench::render_table4(&table4));

    println!("=== Table V ===");
    let table5 = osiris_bench::table5(1.0);
    println!("{}", osiris_bench::render_table5(&table5));

    println!("=== Table VI ===");
    let table6 = osiris_bench::table6();
    println!("{}", osiris_bench::render_table6(&table6));

    println!("=== Figure 3 ===");
    let intervals: Vec<u64> = (0..10).map(|k| 25_000u64 << k).collect();
    let figure3 = osiris_bench::figure3(&intervals, 1.0);
    print!("{}", osiris_bench::render_figure3(&figure3, &intervals));

    let results = osiris_bench::ResultsJson {
        rcb,
        table1,
        table2: (&table2).into(),
        table3: (&table3).into(),
        table4,
        table5,
        table6,
        figure3,
    };
    let json = results.to_json().pretty();
    std::fs::write("reproduce_results.json", &json).expect("write results json");
    println!("\n(machine-readable copy written to reproduce_results.json)");

    // Full per-injection campaign report (matrix + records for both fault
    // models), the machine-readable companion to Tables II/III.
    let campaign = osiris_bench::Json::obj([
        ("fail_stop", table2.report.clone()),
        ("full_edfi", table3.report.clone()),
    ]);
    let dir = osiris_bench::out_dir(std::env::var_os("OSIRIS_OUT_DIR"), "reproduce");
    let campaign_path = osiris_bench::write_out(&dir, "campaign_report.json", &campaign.pretty())
        .expect("write campaign report");
    println!("(campaign report written to {})", campaign_path.display());

    // Metrics registry exposition from one fault-free suite run.
    let (prom, mjson) = osiris_bench::export_suite_metrics(&dir).expect("write metrics exports");
    println!(
        "(metrics written to {} and {})",
        prom.display(),
        mjson.display()
    );
}
