//! `osiris-inspect`: interrogates a run from its artifacts.
//!
//! ```text
//! osiris-inspect diff <a.bin> <b.bin>
//! osiris-inspect replay [axiom.bin]
//! osiris-inspect lint <file.prom>...
//! ```
//!
//! - `diff` verifies two recorded axioms and bisects them for the first
//!   event at which the two histories disagree.
//! - `replay` runs the quickstart scenario again (default axiom:
//!   `target/quickstart/axiom.bin`). The fresh run must re-derive the
//!   recorded history exactly, its reduction must equal the live control
//!   state, and [`Os::replay`] must rebuild that state from the recorded
//!   bytes alone. The fresh run's exports go to the output directory under
//!   the names the `quickstart` example uses, so the two trees can be
//!   byte-compared.
//! - `lint` validates Prometheus text expositions: `# HELP`/`# TYPE`
//!   headers, histogram shape, duplicate series.
//!
//! One exit convention for all three: 0 clean; 1 a finding (a divergence,
//! a lint error, a replay mismatch), printed to `out`; 2 a usage, I/O or
//! decode error, printed to `err`. Hostile input bytes yield 2, never a
//! panic.

use std::ffi::OsString;
use std::fmt::Display;
use std::io::Write;
use std::path::Path;

use osiris_axiom::{bisect, reduce, AxiomLog};
use osiris_metrics::validate_prometheus;
use osiris_servers::Os;
use osiris_workloads::quickstart;

/// The one usage text.
pub const USAGE: &str = "usage: osiris-inspect diff <a.bin> <b.bin>
       osiris-inspect replay [axiom.bin]
       osiris-inspect lint <file.prom>...";

/// The axiom `replay` checks when given none: the `quickstart` example's.
const DEFAULT_AXIOM: &str = "target/quickstart/axiom.bin";

/// A usage, I/O or decode error: exit 2.
struct Fail(String);

fn fail(what: impl Display) -> Fail {
    Fail(format!("osiris-inspect: {what}"))
}

impl From<std::io::Error> for Fail {
    fn from(e: std::io::Error) -> Fail {
        fail(format_args!("write: {e}"))
    }
}

/// `Ok(true)` clean, `Ok(false)` a finding.
type Verdict = Result<bool, Fail>;

/// Runs the command line `args` (the program name excluded) and returns
/// its exit code. `replay` writes its exports under `out_dir`; nothing
/// else writes a file, and nothing spawns a process.
pub fn run(args: &[OsString], out_dir: &Path, out: &mut dyn Write, err: &mut dyn Write) -> u8 {
    let verdict = match args.split_first() {
        Some((cmd, rest)) => match (cmd.to_str(), rest) {
            (Some("diff"), [a, b]) => diff(a.as_ref(), b.as_ref(), out),
            (Some("replay"), []) => replay(DEFAULT_AXIOM.as_ref(), out_dir, out),
            (Some("replay"), [path]) => replay(path.as_ref(), out_dir, out),
            (Some("lint"), files) if !files.is_empty() => lint(files, out),
            _ => Err(Fail(USAGE.into())),
        },
        None => Err(Fail(USAGE.into())),
    };
    match verdict {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(Fail(msg)) => {
            // Nothing is left to report to if `err` fails too.
            let _ = writeln!(err, "{msg}");
            2
        }
    }
}

/// Reads, decodes and chain-verifies the axiom at `path`: the one loader
/// of every subcommand that reads an axiom.
fn load(path: &Path) -> Result<(Vec<u8>, AxiomLog), Fail> {
    let p = path.display();
    let bytes = std::fs::read(path).map_err(|e| fail(format_args!("read {p}: {e}")))?;
    let log = AxiomLog::from_bytes(&bytes).map_err(|e| fail(format_args!("decode {p}: {e:?}")))?;
    log.verify()
        .map_err(|e| fail(format_args!("chain broken in {p}: {e:?}")))?;
    Ok((bytes, log))
}

fn diff(a_path: &Path, b_path: &Path, out: &mut dyn Write) -> Verdict {
    let (_, a) = load(a_path)?;
    let (_, b) = load(b_path)?;
    for (side, path, log) in [("a", a_path, &a), ("b", b_path, &b)] {
        let (n, head) = (log.len(), log.head_digest());
        writeln!(
            out,
            "{side}: {} — {n} events, head {head:016x}",
            path.display()
        )?;
    }
    match bisect(a.records(), b.records()) {
        None => {
            writeln!(out, "identical: the two runs recorded the same history")?;
            Ok(true)
        }
        Some(d) => {
            writeln!(out, "{}", d.describe())?;
            Ok(false)
        }
    }
}

fn mismatch(out: &mut dyn Write, what: impl Display) -> Verdict {
    writeln!(out, "mismatch: {what}")?;
    Ok(false)
}

fn replay(path: &Path, out_dir: &Path, out: &mut dyn Write) -> Verdict {
    let (bytes, recorded) = load(path)?;
    writeln!(
        out,
        "recorded:  {} chained events from {} (head {:016x})",
        recorded.len(),
        path.display(),
        recorded.head_digest()
    )?;
    let (outcome, mut os) = quickstart::run();
    if !outcome.completed() {
        return mismatch(out, format_args!("the replayed run ended {outcome:?}"));
    }
    writeln!(
        out,
        "replayed:  {} chained events re-derived (head {:016x})",
        os.axiom().len(),
        os.axiom().head_digest()
    )?;
    // Export before verifying, as the example does: verification bumps
    // registry counters, and the two trees must match byte for byte.
    os.write_exports(out_dir)
        .map_err(|e| fail(format_args!("write exports to {}: {e}", out_dir.display())))?;
    writeln!(out, "exports:   {}", out_dir.display())?;
    if let Err(e) = os.verify_axiom() {
        return mismatch(out, format_args!("the replayed chain is broken: {e:?}"));
    }
    if let Some(d) = os.check_replay_divergence(recorded.records()) {
        return mismatch(out, d.describe());
    }
    writeln!(
        out,
        "bisect:    no divergence — replay re-derived the recorded history"
    )?;
    let reduced = reduce(recorded.records());
    if &reduced != os.control_state() {
        return mismatch(out, "reduce(recorded) differs from the live control state");
    }
    writeln!(
        out,
        "reduce:    control state reconstructed; {} component statuses cross-checked",
        reduced.comps
    )?;
    // Simulated reboot persistence: a machine rebuilt from the recorded
    // bytes alone must adopt the proven history.
    let rebooted = match Os::replay(quickstart::config(), &bytes) {
        Ok(os) => os,
        Err(e) => return mismatch(out, format_args!("Os::replay refused the axiom: {e:?}")),
    };
    if rebooted.control_state() != &reduced
        || rebooted.axiom().head_digest() != recorded.head_digest()
    {
        return mismatch(
            out,
            "the rebooted machine did not adopt the recorded history",
        );
    }
    writeln!(
        out,
        "reboot:    Os::replay rebuilt control state from {} bytes (head {:016x})",
        bytes.len(),
        rebooted.axiom().head_digest()
    )?;
    writeln!(out, "OK: replay is consistent with the recorded axiom")?;
    Ok(true)
}

fn lint(files: &[OsString], out: &mut dyn Write) -> Verdict {
    let mut clean = true;
    for file in files {
        let p = Path::new(file).display();
        let text =
            std::fs::read_to_string(file).map_err(|e| fail(format_args!("read {p}: {e}")))?;
        match validate_prometheus(&text) {
            Ok(()) => {
                let series = text
                    .lines()
                    .filter(|l| !l.is_empty() && !l.starts_with('#'))
                    .count();
                writeln!(out, "lint: {p}: OK ({series} series)")?;
            }
            Err(e) => {
                writeln!(out, "lint: {p}: {e}")?;
                clean = false;
            }
        }
    }
    Ok(clean)
}
