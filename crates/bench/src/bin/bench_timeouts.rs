//! Fail-silent watchdog gate: hang-detection latency bound,
//! zero-allocation armed-deadline hot path and a ceiling on whole-OS
//! allocator calls per steady round, with allocator-call counting.
//!
//! `--check` runs the scaled-down workload and enforces the three
//! invariants without writing the JSON artifact — the CI gate.

use osiris_bench::timeout_bench::DETECT_BOUND;
use osiris_bench::{bench_timeouts, TimeoutBenchConfig};

/// Ceiling on whole-OS allocator calls per steady put/get round (two
/// syscalls through `Host`, watchdog on or off). `BENCH_timeouts.json`
/// records 7,252 calls over 400 rounds, 18.13 a round, and the count repeats
/// exactly. What is left is the workload's own (`Host` hand-off, syscall
/// arguments, the DS value clone, the reply vector); the pump adds none.
const STEADY_ALLOCS_PER_ROUND_CEILING: f64 = 19.0;

osiris_bench::counting_allocator!();

fn main() {
    let check = std::env::args().any(|a| a == "--check" || a == "--quick");
    let mut cfg = if check {
        TimeoutBenchConfig::quick()
    } else {
        TimeoutBenchConfig::default()
    };
    cfg.alloc_count = Some(alloc_calls);

    let result = bench_timeouts(cfg);
    print!("{}", result.render());

    if !check {
        std::fs::write("BENCH_timeouts.json", result.to_json().pretty())
            .expect("write BENCH_timeouts.json");
        println!("results written to BENCH_timeouts.json");
    }

    // The headline claims, enforced so regressions fail loudly in CI.
    assert!(
        result.detection_within_bound(),
        "hang-detection latency {} cycles exceeds the armed-deadline + \
         one-heartbeat bound of {} cycles",
        result.detect_max,
        DETECT_BOUND,
    );
    let delta = result.armed_hot_path_allocs().expect("counter installed");
    assert_eq!(
        delta, 0,
        "arming deadlines must not touch the allocator in steady state \
         (saw {delta} extra calls over {} rounds)",
        result.steady_rounds,
    );
    let steady = result.allocs_on.max(result.allocs_off);
    let per_round = steady.expect("counter installed") as f64 / result.steady_rounds as f64;
    assert!(
        per_round <= STEADY_ALLOCS_PER_ROUND_CEILING,
        "steady state makes {per_round:.2} allocator calls per round, over the \
         ceiling of {STEADY_ALLOCS_PER_ROUND_CEILING} (BENCH_timeouts.json records 18.13)",
    );
    println!(
        "OK: detection within bound ({} <= {}), armed hot path added {} allocator calls, \
         {per_round:.2} calls per round (ceiling {STEADY_ALLOCS_PER_ROUND_CEILING})",
        result.detect_max, DETECT_BOUND, delta
    );
}
