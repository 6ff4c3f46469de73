//! Unixbench analogs.
//!
//! The paper's performance evaluation (§VI-C/D/E, Tables IV/V, Fig. 3) uses
//! the twelve classic Unixbench programs. Each analog here stresses the same
//! subsystem mix as its namesake, running unmodified against either the
//! compartmentalized OSIRIS OS or the monolithic baseline:
//!
//! | benchmark         | stresses                                        |
//! |-------------------|-------------------------------------------------|
//! | `dhry2reg`        | pure integer compute                             |
//! | `whetstone-double`| pure floating-point compute                      |
//! | `execl`           | `exec` path (PM + VFS binary load + VM reset)    |
//! | `fstime`          | 1 KiB file copy (VFS + cache)                    |
//! | `fsbuffer`        | 256 B file copy (VFS, cache-friendly)            |
//! | `fsdisk`          | 4 KiB copy on a large file (cache-thrashing)     |
//! | `pipe`            | pipe round trips through VFS                     |
//! | `context1`        | two processes ping-ponging over pipes            |
//! | `spawn`           | process creation + reaping (PM + VM + VFS)       |
//! | `syscall`         | minimal syscall (`getpid`) round trips           |
//! | `shell1`          | one "shell script" (spawn a command, wait)       |
//! | `shell8`          | eight concurrent shell scripts                   |
//!
//! Scores are *operations per virtual second* (scaled), so higher is better
//! and ratios between systems are meaningful while absolute values are not —
//! exactly how the paper uses Unixbench.

use crate::{Host, ProgramRegistry, Sys};
use osiris_kernel::abi::{OpenFlags, SeekFrom};
use osiris_kernel::{OsEngine, RunOutcome};

/// The twelve benchmark names, in the paper's table order.
pub const BENCHMARKS: [&str; 12] = [
    "dhry2reg",
    "whetstone-double",
    "execl",
    "fstime",
    "fsbuffer",
    "fsdisk",
    "pipe",
    "context1",
    "spawn",
    "syscall",
    "shell1",
    "shell8",
];

/// Parses the iteration count (args[0]) and enables transparent `ECRASH`
/// retry when "retry" is among the args (the service-disruption mode, where
/// the benchmark must run to completion under periodic fault load).
fn setup(sys: &mut Sys) -> (u64, bool) {
    let n = sys
        .args()
        .first()
        .and_then(|a| a.parse().ok())
        .unwrap_or(10);
    let retry = sys.args().iter().any(|a| a == "retry");
    sys.set_retry_ecrash(retry);
    (n, retry)
}

fn ub_dhry(sys: &mut Sys) -> i32 {
    let (n, _) = setup(sys);
    for _ in 0..n {
        sys.compute(2_000);
    }
    0
}

fn ub_whet(sys: &mut Sys) -> i32 {
    let (n, _) = setup(sys);
    for _ in 0..n {
        sys.compute(5_000);
    }
    0
}

fn ub_execl(sys: &mut Sys) -> i32 {
    let (n, retry) = setup(sys);
    for _ in 0..n {
        // fork_run cannot be retried transparently (the child closure is
        // consumed per attempt), so retry manually in disruption mode.
        let child = loop {
            match sys.fork_run(move |c| {
                c.set_retry_ecrash(retry);
                match c.exec("ub_leaf", &[]) {
                    Err(_) => 1,
                    Ok(never) => match never {},
                }
            }) {
                Ok(p) => break p,
                Err(osiris_kernel::abi::Errno::ECRASH) if retry => continue,
                Err(_) => return 1,
            }
        };
        if sys.waitpid(child) != Ok(0) {
            return 1;
        }
    }
    0
}

/// File copy with the given block size over a working set of `blocks`
/// blocks. `fstime`/`fsbuffer` fit the cache; `fsdisk` does not.
fn file_copy(sys: &mut Sys, iterations: u64, chunk: usize, total: usize) -> i32 {
    let src = "/tmp/ub_src";
    let dst = "/tmp/ub_dst";
    let data = vec![0x42u8; chunk];
    for _ in 0..iterations {
        let s = match sys.open(src, OpenFlags::RDWR_CREATE) {
            Ok(fd) => fd,
            Err(_) => return 1,
        };
        let mut written = 0;
        while written < total {
            if sys.write(s, &data).is_err() {
                return 1;
            }
            written += chunk;
        }
        let d = match sys.open(dst, OpenFlags::CREATE) {
            Ok(fd) => fd,
            Err(_) => return 1,
        };
        if sys.seek(s, SeekFrom::Start(0)).is_err() {
            return 1;
        }
        loop {
            match sys.read(s, chunk as u32) {
                Ok(b) if b.is_empty() => break,
                Ok(b) => {
                    if sys.write(d, &b).is_err() {
                        return 1;
                    }
                }
                Err(_) => return 1,
            }
        }
        let _ = sys.close(s);
        let _ = sys.close(d);
        let _ = sys.unlink(src);
        let _ = sys.unlink(dst);
    }
    0
}

fn ub_fstime(sys: &mut Sys) -> i32 {
    let (n, _) = setup(sys);
    file_copy(sys, n, 1024, 8 * 1024)
}

fn ub_fsbuffer(sys: &mut Sys) -> i32 {
    let (n, _) = setup(sys);
    file_copy(sys, n, 256, 2 * 1024)
}

fn ub_fsdisk(sys: &mut Sys) -> i32 {
    let (n, _) = setup(sys);
    // 96 KiB working set vs a 64 KiB cache: constant eviction + refetch.
    file_copy(sys, n, 4096, 96 * 1024)
}

fn ub_pipe(sys: &mut Sys) -> i32 {
    let (n, _) = setup(sys);
    let (r, w) = match sys.pipe() {
        Ok(p) => p,
        Err(_) => return 1,
    };
    let buf = [9u8; 512];
    for _ in 0..n {
        if sys.write(w, &buf).is_err() {
            return 1;
        }
        match sys.read(r, 512) {
            Ok(d) if d.len() == 512 => {}
            _ => return 1,
        }
    }
    let _ = sys.close(r);
    let _ = sys.close(w);
    0
}

fn ub_context1(sys: &mut Sys) -> i32 {
    let (n, retry) = setup(sys);
    let (r1, w1) = match sys.pipe() {
        Ok(p) => p,
        Err(_) => return 1,
    };
    let (r2, w2) = match sys.pipe() {
        Ok(p) => p,
        Err(_) => return 1,
    };
    let child = match sys.fork_run(move |c| {
        c.set_retry_ecrash(retry);
        // Close the inherited ends this side does not use, or EOF never
        // propagates.
        if c.close(w1).is_err() || c.close(r2).is_err() {
            return 1;
        }
        loop {
            match c.read(r1, 4) {
                Ok(d) if d.is_empty() => return 0,
                Ok(d) => {
                    if c.write(w2, &d).is_err() {
                        return 1;
                    }
                }
                Err(_) => return 1,
            }
        }
    }) {
        Ok(p) => p,
        Err(_) => return 1,
    };
    for i in 0..n {
        let token = (i as u32).to_le_bytes();
        if sys.write(w1, &token).is_err() {
            return 1;
        }
        match sys.read(r2, 4) {
            Ok(d) if d == token => {}
            _ => return 1,
        }
    }
    let _ = sys.close(w1);
    let _ = sys.waitpid(child);
    for fd in [r1, r2, w2] {
        let _ = sys.close(fd);
    }
    0
}

fn ub_spawn(sys: &mut Sys) -> i32 {
    let (n, retry) = setup(sys);
    let args: &[&str] = if retry { &["retry"] } else { &[] };
    for _ in 0..n {
        let child = match sys.spawn("ub_leaf", args) {
            Ok(p) => p,
            Err(_) => return 1,
        };
        if sys.waitpid(child) != Ok(0) {
            return 1;
        }
    }
    0
}

fn ub_syscall(sys: &mut Sys) -> i32 {
    let (n, _) = setup(sys);
    for _ in 0..n {
        for _ in 0..5 {
            if sys.getpid().is_err() {
                return 1;
            }
        }
    }
    0
}

/// One "shell command": touch a file, write, read back, remove.
fn ub_shell_cmd(sys: &mut Sys) -> i32 {
    let (_, _retry) = setup(sys);
    let path = format!("/tmp/ub_sh_{}", sys.pid().0);
    let fd = match sys.open(&path, OpenFlags::RDWR_CREATE) {
        Ok(fd) => fd,
        Err(_) => return 1,
    };
    if sys.write(fd, b"shell work").is_err() {
        return 1;
    }
    if sys.seek(fd, SeekFrom::Start(0)).is_err() {
        return 1;
    }
    let ok = matches!(sys.read(fd, 16), Ok(d) if d == b"shell work");
    let _ = sys.close(fd);
    let _ = sys.unlink(&path);
    i32::from(!ok)
}

fn ub_shell1(sys: &mut Sys) -> i32 {
    let (n, retry) = setup(sys);
    let args: &[&str] = if retry { &["retry"] } else { &[] };
    for _ in 0..n {
        let child = match sys.spawn("ub_shell_cmd", args) {
            Ok(p) => p,
            Err(_) => return 1,
        };
        if sys.waitpid(child) != Ok(0) {
            return 1;
        }
    }
    0
}

fn ub_shell8(sys: &mut Sys) -> i32 {
    let (n, retry) = setup(sys);
    let args: &[&str] = if retry { &["retry"] } else { &[] };
    for _ in 0..n {
        let mut children = Vec::new();
        for _ in 0..8 {
            match sys.spawn("ub_shell_cmd", args) {
                Ok(p) => children.push(p),
                Err(_) => return 1,
            }
        }
        for c in children {
            if sys.waitpid(c) != Ok(0) {
                return 1;
            }
        }
    }
    0
}

/// Registers all benchmark programs (and their helpers) into `registry`.
pub fn register_unixbench(registry: &mut ProgramRegistry) {
    registry.register("ub_leaf", |_sys| 0);
    registry.register("ub_shell_cmd", ub_shell_cmd);
    registry.register("dhry2reg", ub_dhry);
    registry.register("whetstone-double", ub_whet);
    registry.register("execl", ub_execl);
    registry.register("fstime", ub_fstime);
    registry.register("fsbuffer", ub_fsbuffer);
    registry.register("fsdisk", ub_fsdisk);
    registry.register("pipe", ub_pipe);
    registry.register("context1", ub_context1);
    registry.register("spawn", ub_spawn);
    registry.register("syscall", ub_syscall);
    registry.register("shell1", ub_shell1);
    registry.register("shell8", ub_shell8);
}

/// Default iteration counts per benchmark (tuned so each run exercises its
/// subsystem long enough for stable virtual-time ratios).
pub fn default_iters(bench: &str) -> u64 {
    match bench {
        "dhry2reg" | "whetstone-double" => 200,
        "syscall" | "pipe" => 150,
        "fstime" | "fsbuffer" => 20,
        "fsdisk" => 4,
        "execl" | "spawn" | "shell1" => 40,
        "context1" => 100,
        "shell8" => 8,
        _ => 10,
    }
}

/// Result of one benchmark run.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Iterations executed.
    pub iters: u64,
    /// Virtual cycles elapsed.
    pub cycles: u64,
    /// Score: iterations per virtual second (scaled; higher is better).
    pub score: f64,
    /// Whether the run completed cleanly.
    pub ok: bool,
}

/// Cycles per "virtual second" used for score scaling.
pub const CYCLES_PER_SECOND: f64 = 1_000_000.0;

/// Runs one benchmark on a fresh engine and computes its score. With
/// `retry`, syscalls transparently retry on `ECRASH` (service-disruption
/// mode).
pub fn run_benchmark_with<E: OsEngine>(
    engine: E,
    registry: ProgramRegistry,
    bench: &str,
    iters: u64,
    retry: bool,
) -> BenchResult {
    osiris_kernel::install_quiet_panic_hook();
    let mut host = Host::new(engine, registry);
    let start = host.engine().now();
    let iter_arg = iters.to_string();
    let args: Vec<&str> = if retry {
        vec![&iter_arg, "retry"]
    } else {
        vec![&iter_arg]
    };
    let outcome = host.run(bench, &args);
    let cycles = host.engine().now().saturating_sub(start).max(1);
    let ok = matches!(outcome, RunOutcome::Completed { init_code: 0, .. });
    BenchResult {
        name: bench.to_string(),
        iters,
        cycles,
        score: iters as f64 * CYCLES_PER_SECOND / cycles as f64,
        ok,
    }
}

/// Runs one benchmark without ECRASH retry (the common case).
pub fn run_benchmark<E: OsEngine>(
    engine: E,
    registry: ProgramRegistry,
    bench: &str,
    iters: u64,
) -> BenchResult {
    run_benchmark_with(engine, registry, bench, iters, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osiris_monolith::Monolith;

    #[test]
    fn default_iters_cover_all_benchmarks() {
        for b in BENCHMARKS {
            assert!(default_iters(b) > 0, "{}", b);
        }
    }

    #[test]
    fn benchmarks_run_on_the_monolith() {
        for b in ["syscall", "pipe", "dhry2reg"] {
            let mut registry = ProgramRegistry::new();
            register_unixbench(&mut registry);
            let r = run_benchmark(Monolith::new(), registry, b, 5);
            assert!(r.ok, "{} failed", b);
            assert!(r.score > 0.0);
        }
    }
}
