//! Layer microbenchmarks with allocator-call counting.
//!
//! ```text
//! cargo run --release -p osiris-bench --bin bench_layers [trace|metrics|axiom|spans|undo|all] [--check]
//! ```
//!
//! Installs a counting wrapper around the system allocator so each run can
//! *prove* its layer's "zero allocator calls in steady state" claim, runs
//! the named layer (default `all`) and enforces its gates: disabled
//! overhead within bound, no allocator calls while recording, the layer's
//! own invariants, and for `undo` the typed-vs-boxed speedup floor. A full
//! `all` run is the sole writer of `BENCH_layers.json`.
//!
//! `--check` runs the scaled-down workloads and enforces the same gates
//! without writing the JSON artifact — the CI gate.

use osiris_bench::layers::{Axiom, Metrics, Spans, Trace};
use osiris_bench::overhead::{measure, render_text, Layer, Scale};
use osiris_bench::undo_bench::bench_undo;
use osiris_bench::Json;

osiris_bench::counting_allocator!();

/// `BENCH_layers.json` keys, in file order.
const LAYERS: [&str; 5] = ["trace", "metrics", "axiom", "spans", "undo"];

/// One layer's JSON object and the gates it failed.
fn layer<L: Layer>(layer: L) -> (Json, Vec<String>) {
    let report = measure(&layer, Some(alloc_calls));
    (report.to_json(), report.failures())
}

fn main() {
    let mut check = false;
    let mut which = "all".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else {
            which = arg;
        }
    }
    let scale = if check { Scale::Check } else { Scale::Full };
    let names = if which == "all" {
        LAYERS.to_vec()
    } else {
        vec![which.as_str()]
    };

    let mut doc = Vec::new();
    let mut failed = Vec::new();
    for name in names {
        let (json, failures) = match name {
            "trace" => layer(Trace::new(scale)),
            "metrics" => layer(Metrics::new(scale)),
            "axiom" => layer(Axiom::new(scale)),
            "spans" => layer(Spans::new(scale)),
            "undo" => {
                let result = bench_undo(Some(alloc_calls));
                (result.to_json(), result.failures())
            }
            _ => {
                eprintln!("usage: bench_layers [{}|all] [--check]", LAYERS.join("|"));
                std::process::exit(2);
            }
        };
        print!("{}", render_text(name, &json));
        for failure in &failures {
            println!("  FAIL: {failure}");
        }
        if !failures.is_empty() {
            failed.push(name);
        }
        doc.push((name.to_string(), json));
    }

    if !check && which == "all" {
        std::fs::write("BENCH_layers.json", Json::Obj(doc).pretty())
            .expect("write BENCH_layers.json");
        println!("results written to BENCH_layers.json");
    }
    if !failed.is_empty() {
        eprintln!("bench_layers: gates failed for {}", failed.join(", "));
        std::process::exit(1);
    }
    println!("bench_layers: every gate held");
}
