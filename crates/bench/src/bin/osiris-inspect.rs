//! Interrogates a run from its artifacts: `diff`, `replay` and `lint`
//! (see [`osiris_bench::inspect`]). `replay` writes its exports to
//! `$OSIRIS_OUT_DIR`, else `target/osiris-inspect`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<_> = std::env::args_os().skip(1).collect();
    let out_dir = osiris_bench::out_dir(std::env::var_os("OSIRIS_OUT_DIR"), "osiris-inspect");
    ExitCode::from(osiris_bench::inspect::run(
        &args,
        &out_dir,
        &mut std::io::stdout().lock(),
        &mut std::io::stderr().lock(),
    ))
}
