//! `osiris-inspect` in process: each subcommand through
//! `osiris_bench::inspect::run`, which spawns nothing, held to the one exit
//! convention (0 clean, 1 a finding, 2 a usage, I/O or decode error). The
//! axioms come from the quickstart scenario, with and without its fault.

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use osiris_bench::inspect::{run, USAGE};
use osiris_servers::Os;
use osiris_workloads::{quickstart, Host};

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("inspect")
        .join(name)
}

/// Runs `osiris-inspect args…` with its exports under `scratch(out_dir)`:
/// the exit code, what it printed to `out` and what to `err`.
fn inspect(args: &[&Path], out_dir: &str) -> (u8, String, String) {
    let args: Vec<OsString> = args.iter().map(|a| a.as_os_str().to_owned()).collect();
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = run(&args, &scratch(out_dir), &mut out, &mut err);
    let text = |b: Vec<u8>| String::from_utf8(b).expect("UTF-8 output");
    (code, text(out), text(err))
}

fn p(s: &str) -> &Path {
    Path::new(s)
}

/// The exports of one faulted quickstart run, written as the example
/// writes them: export first, then verify.
fn recorded() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let (outcome, mut os) = quickstart::run();
        assert!(outcome.completed());
        let dir = scratch("recorded");
        os.write_exports(&dir).expect("write exports");
        os.verify_axiom().expect("chain intact");
        dir
    })
}

/// The axiom of the same programs with no fault armed.
fn fault_free() -> &'static Path {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let mut host = Host::new(Os::new(quickstart::config()), quickstart::registry());
        let outcome = host.run("main", &[]);
        assert!(outcome.completed());
        let path = scratch("fault_free.bin");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, host.into_engine().axiom().to_bytes()).unwrap();
        path
    })
}

fn write_scratch(name: &str, bytes: &[u8]) -> PathBuf {
    let path = scratch(name);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn diff_of_two_identical_runs_is_clean() {
    let a = recorded().join("axiom.bin");
    let b = write_scratch("again.bin", &quickstart::run().1.axiom().to_bytes());
    let (code, out, err) = inspect(&[p("diff"), &a, &b], "unused");
    assert_eq!((code, err.as_str()), (0, ""), "{out}");
    assert!(out.ends_with("identical: the two runs recorded the same history\n"));
}

#[test]
fn diff_of_a_faulted_run_against_a_fault_free_one_is_a_finding() {
    let a = recorded().join("axiom.bin");
    let (code, out, err) = inspect(&[p("diff"), &a, fault_free()], "unused");
    assert_eq!((code, err.as_str()), (1, ""), "{out}");
    // Two header lines, then `Divergence::describe`: PM's crash in the
    // faulted run against the window close of the fork PM finished in the
    // fault-free one.
    let pinned = "first divergence at seq 40:
  a: t=41181 crash Crash { comp: 1 }
  b: t=41287 window_close WindowClose { comp: 1, reason: DisallowedSend, class: StateModifying }
";
    assert!(out.lines().count() == 5 && out.ends_with(pinned), "{out}");
}

/// Truncated and bit-flipped axioms are decode errors: exit 2 with a
/// message, never a panic and never a verdict on the damaged history.
#[test]
fn diff_of_hostile_bytes_is_an_error_not_a_panic() {
    let good = std::fs::read(recorded().join("axiom.bin")).unwrap();
    let mut mutants: Vec<Vec<u8>> = (0..good.len())
        .step_by(7)
        .map(|n| good[..n].to_vec())
        .collect();
    for i in (0..good.len()).step_by(3) {
        let mut bytes = good.clone();
        bytes[i] ^= 1 << (i % 8);
        mutants.push(bytes);
    }
    for bytes in mutants {
        let bad = write_scratch("hostile.bin", &bytes);
        for args in [
            [p("diff"), &bad, fault_free()],
            [p("diff"), fault_free(), &bad],
        ] {
            let (code, out, err) = inspect(&args, "unused");
            assert_eq!(code, 2, "{} bytes: {out}", bytes.len());
            assert!(
                err.starts_with("osiris-inspect: ") && out.is_empty(),
                "{err}"
            );
        }
    }
}

#[test]
fn replay_of_the_recorded_run_is_clean_and_exports_the_same_bytes() {
    let (code, out, err) = inspect(&[p("replay"), &recorded().join("axiom.bin")], "replay");
    assert_eq!((code, err.as_str()), (0, ""), "{out}");
    assert!(out.ends_with("OK: replay is consistent with the recorded axiom\n"));
    for file in [
        "trace.json",
        "metrics.prom",
        "metrics.json",
        "timeseries.json",
        "axiom.bin",
    ] {
        let read = |dir: &Path| std::fs::read(dir.join(file)).unwrap();
        assert!(
            read(recorded()) == read(&scratch("replay")),
            "{file} differs"
        );
    }
}

#[test]
fn replay_of_another_history_is_a_finding() {
    let (code, out, err) = inspect(&[p("replay"), fault_free()], "replay_mismatch");
    assert_eq!((code, err.as_str()), (1, ""), "{out}");
    assert!(out.contains("mismatch: first divergence at seq"), "{out}");
}

#[test]
fn replay_of_garbage_is_an_error() {
    let bad = write_scratch("garbage.bin", b"not an axiom");
    let (code, out, err) = inspect(&[p("replay"), &bad], "unused");
    assert_eq!((code, out.as_str()), (2, ""));
    assert!(err.contains("decode"), "{err}");
}

#[test]
fn lint_passes_a_valid_exposition_and_flags_a_malformed_one() {
    let good = recorded().join("metrics.prom");
    let (code, out, err) = inspect(&[p("lint"), &good], "unused");
    assert_eq!((code, err.as_str()), (0, ""), "{out}");
    assert!(out.starts_with("lint: ") && out.contains(": OK ("), "{out}");

    let bad = write_scratch("bad.prom", b"osiris_orphan_total 1\n");
    let (code, out, err) = inspect(&[p("lint"), &good, &bad], "unused");
    assert_eq!((code, err.as_str()), (1, ""), "{out}");
    assert_eq!(out.lines().count(), 2, "every file is reported: {out}");
}

#[test]
fn lint_of_a_missing_file_is_an_error() {
    let (code, out, err) = inspect(&[p("lint"), &scratch("no-such.prom")], "unused");
    assert_eq!((code, out.as_str()), (2, ""));
    assert!(err.contains("read "), "{err}");
}

#[test]
fn a_bad_command_line_prints_the_usage_and_exits_2() {
    let bin = recorded().join("axiom.bin");
    let cases: [&[&Path]; 6] = [
        &[],
        &[p("frobnicate")],
        &[p("diff"), &bin],
        &[p("diff"), &bin, &bin, &bin],
        &[p("replay"), &bin, &bin],
        &[p("lint")],
    ];
    for args in cases {
        let (code, out, err) = inspect(args, "unused");
        assert_eq!((code, out.as_str()), (2, ""), "{args:?}");
        assert_eq!(err, format!("{USAGE}\n"), "{args:?}");
    }
}
