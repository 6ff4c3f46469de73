//! Snapshot-fork campaign benchmark with allocator-call counting.
//!
//! Runs the forge's late-window fault campaign and a from-boot rerun
//! baseline over the same variant plan, proves the forged records are
//! byte-identical to the from-boot records, enforces the throughput and
//! allocation-discipline gates, and writes `BENCH_campaign.json` plus the
//! complete report with every per-injection record to
//! `bench_campaign_full.json` in `target/bench_campaign` or
//! `$OSIRIS_OUT_DIR`.
//!
//! `--check` shrinks the baseline sample (the CI gate); the forge sweep,
//! the prefix length and every gate stay unchanged.

use osiris_bench::{
    bench_campaign, CampaignBenchConfig, READOPT_ALLOC_BOUND, RECOVERY_COVERAGE_FLOOR,
    SPEEDUP_FLOOR,
};

osiris_bench::counting_allocator!();

fn main() {
    let check = std::env::args().any(|a| a == "--check" || a == "--quick");
    let mut cfg = if check {
        CampaignBenchConfig::quick()
    } else {
        CampaignBenchConfig::default()
    };
    cfg.alloc_count = Some(alloc_calls);

    let result = bench_campaign(cfg);
    print!("{}", result.render());

    if !check {
        std::fs::write("BENCH_campaign.json", result.to_json().pretty())
            .expect("write BENCH_campaign.json");
        let dir = osiris_bench::out_dir(std::env::var_os("OSIRIS_OUT_DIR"), "bench_campaign");
        let full = osiris_bench::write_out(
            &dir,
            "bench_campaign_full.json",
            &result.to_json_full().pretty(),
        )
        .expect("write full campaign report");
        println!(
            "results written to BENCH_campaign.json (full report: {})",
            full.display()
        );
    }

    assert_eq!(
        result.record_mismatches, 0,
        "forged records must be byte-identical to from-boot reruns"
    );
    assert!(
        result.speedup() >= SPEEDUP_FLOOR,
        "forged throughput {:.1}x from-boot is below the {SPEEDUP_FLOOR}x floor \
         ({:.0} vs {:.0} inj/s)",
        result.speedup(),
        result.forge_rate,
        result.baseline_rate,
    );
    let allocs = result.readopt_allocs.expect("counter installed");
    assert!(
        allocs.small_prefix <= READOPT_ALLOC_BOUND && allocs.large_prefix <= READOPT_ALLOC_BOUND,
        "snapshot adoption allocates too much: {} / {} calls (bound {READOPT_ALLOC_BOUND})",
        allocs.small_prefix,
        allocs.large_prefix,
    );
    assert_eq!(
        allocs.small_prefix, allocs.large_prefix,
        "adoption allocator calls must not grow with prefix length"
    );
    let report = &result.forge.report;
    assert_eq!(
        report.fail_stop_pct(),
        100.0,
        "FailStop matrix not fully covered: {:?}",
        report.fail_stop
    );
    assert!(
        report.recovery_space_pct() >= RECOVERY_COVERAGE_FLOOR,
        "DoubleFault x DuringRecovery coverage {:.0}% below {RECOVERY_COVERAGE_FLOOR}%",
        report.recovery_space_pct()
    );
    println!(
        "OK: {:.1}x forged vs from-boot, {} allocator calls per adoption at both prefix scales, \
         coverage {:.0}%/{:.0}%",
        result.speedup(),
        allocs.small_prefix,
        report.fail_stop_pct(),
        report.recovery_space_pct(),
    );
}
