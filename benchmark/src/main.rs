//! `osiris-benchmark`: the end-to-end host-time ledger of the OSIRIS-rs
//! simulator. One workload per process:
//!
//! ```text
//! osiris-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! osiris-benchmark --list
//! ```
//!
//! Every metric is printed by name with its unit; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `benchmark/README.md` for what each number means.

mod config;
mod engine;
mod gen;
mod ledger;
mod paper;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ledger::{Def, Metric, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

#[global_allocator]
static GLOBAL: stats::CountingAlloc = stats::CountingAlloc;

/// How much work a run does around the `--seconds` it measures for.
pub struct Sizing {
    /// Length of the timed region of an untraced run.
    pub seconds: f64,
    /// Batches a generated workload runs at least; exact counts are summed
    /// over exactly this many.
    pub min_batches: usize,
    /// Passes a paper workload runs at least.
    pub min_passes: usize,
    /// Times a paper workload records its streams, spread over the run.
    pub paper_setup_reps: usize,
    /// Moments, spread over the run, at which a generated workload sets up
    /// again, exports and takes a sample of injections.
    pub side_slots: usize,
    /// Repetitions behind each probe's figure.
    pub probe_reps: usize,
    pub forge_stress: u32,
    /// Timed campaigns at least.
    pub forge_reps: usize,
    /// Interleaved passes per ablation arm.
    pub ablation_reps: usize,
}

impl Sizing {
    fn full(seconds: f64) -> Sizing {
        Sizing {
            seconds,
            min_batches: 200,
            min_passes: 40,
            paper_setup_reps: 5,
            side_slots: 160,
            probe_reps: 9,
            forge_stress: 1200,
            forge_reps: 5,
            ablation_reps: 7,
        }
    }

    /// Smoke sizing: every code path, no steady numbers.
    fn quick(seconds: f64) -> Sizing {
        Sizing {
            seconds,
            min_batches: 8,
            min_passes: 3,
            paper_setup_reps: 1,
            side_slots: 4,
            probe_reps: 3,
            forge_stress: 60,
            forge_reps: 1,
            ablation_reps: 1,
        }
    }
}

/// Where raw output goes: `benchmark/` under cargo's target directory.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("benchmark")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            out.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read `{value}`");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == out.workload) {
        return Err(format!(
            "--workload must be one of {:?}",
            WORKLOADS.map(|w| w.0)
        ));
    }
    if !(out.seconds > 0.0 && out.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(out)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The raw record of a run: everything printed, machine-readable.
fn raw_json(args: &Args, out: &Outcome, defs: &[Def]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"quick\": {},\n  \"ops\": {},\n  \"failed_ops\": {},\n  \"sim_digest\": \"{:016x}\",\n  \"metrics\": {{",
        args.workload, args.seed, args.seconds, args.trace, args.quick, out.ops, out.failed,
        out.sim_digest
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let unit = defs
            .iter()
            .find(|d| d.name == m.name)
            .map_or("", |d| d.unit);
        let _ = write!(
            s,
            "{}\n    \"{}\": {{\"value\": {}, \"unit\": \"{unit}\"",
            if i == 0 { "" } else { "," },
            m.name,
            m.value
        );
        if let Some(d) = m.dist {
            let _ = write!(
                s,
                ", \"median\": {}, \"q1\": {}, \"q3\": {}, \"p90\": {}, \"min\": {}, \"n\": {}",
                d.median, d.q1, d.q3, d.p90, d.min, d.n
            );
        }
        s.push('}');
    }
    s.push_str("\n  },\n  \"notes\": [");
    for (i, n) in out.notes.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    \"{}\"",
            if i == 0 { "" } else { "," },
            json_escape(n)
        );
    }
    s.push_str("\n  ]\n}\n");
    s
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--list"] {
        for line in ledger::list() {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("osiris-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!(
            "osiris-benchmark: cannot create {}: {e}",
            out_dir().display()
        );
        return ExitCode::from(2);
    }
    osiris::install_quiet_panic_hook();
    let sizing = if args.quick {
        Sizing::quick(args.seconds)
    } else {
        Sizing::full(args.seconds)
    };
    let mut out = workloads::run(&args.workload, args.seed, &sizing, args.trace, started);

    let defs: &[Def] = if args.trace { &PER_LAYER } else { &END_TO_END };
    // The run must emit exactly the metrics of its mode, each a number.
    let mut metrics: Vec<Metric> = Vec::with_capacity(defs.len());
    for d in defs {
        let mut found = out.metrics.iter().filter(|m| m.name == d.name);
        match (found.next(), found.next()) {
            (Some(m), None) if m.value.is_finite() => metrics.push(m.clone()),
            (Some(m), None) => {
                out.failed += 1;
                out.notes.push(format!("{} is {}", d.name, m.value));
                metrics.push(Metric::plain(d.name, 0.0));
            }
            _ => {
                eprintln!("osiris-benchmark: {} not emitted exactly once", d.name);
                return ExitCode::from(2);
            }
        }
    }
    out.metrics = metrics;

    println!(
        "workload {} seed {} seconds {} trace {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.quick { " quick" } else { "" }
    );
    for (m, d) in out.metrics.iter().zip(defs) {
        match m.dist {
            Some(s) => println!(
                "{} {} {}  median {:.4} q1 {:.4} q3 {:.4} p90 {:.4} min {:.4} n {}",
                m.name, m.value, d.unit, s.median, s.q1, s.q3, s.p90, s.min, s.n
            ),
            None => println!("{} {} {}", m.name, m.value, d.unit),
        }
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    println!(
        "ops {} failed_ops {} sim_digest {:016x}",
        out.ops, out.failed, out.sim_digest
    );

    let raw = out_dir().join(format!(
        "{}.trace{}.json",
        args.workload,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&raw, raw_json(&args, &out, defs)) {
        eprintln!("osiris-benchmark: cannot write {}: {e}", raw.display());
        return ExitCode::from(2);
    }

    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.ops.max(1),
        out.failed
    );
    for (i, (m, d)) in out.metrics.iter().zip(defs).enumerate() {
        let _ = write!(
            line,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            d.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
