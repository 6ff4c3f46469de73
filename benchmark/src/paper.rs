//! The paper's own traffic: the twelve UnixBench analogs and the prototype
//! test suite, recorded once through `Host` and replayed single-threaded.

use std::time::Instant;

use osiris::workloads::{build_testsuite, default_iters, register_unixbench, BENCHMARKS};
use osiris::{Host, OsEngine, ProgramRegistry, RunOutcome};

use crate::engine::{chunked_replay, Chunked, Observed, Op, Recording};
use crate::stats::{alloc_calls, fastest};

/// One program's recorded call stream and what `Host` observed running it.
pub struct Stream {
    pub name: &'static str,
    pub ops: Vec<Op>,
    pub seen: Observed,
}

pub const SUITE: &str = "suite";

/// Every program of the paper's evaluation in one registry.
pub fn registry() -> ProgramRegistry {
    let (mut registry, _) = build_testsuite();
    register_unixbench(&mut registry);
    registry
}

#[derive(Default)]
pub struct Recorded {
    pub streams: Vec<Stream>,
    /// Wall time of the threaded `Host::run` calls alone.
    pub host_s: f64,
    /// Programs that did not complete with exit code 0.
    pub failed: u64,
}

impl Recorded {
    pub fn syscalls(&self) -> u64 {
        self.streams.iter().map(|s| s.seen.syscalls).sum()
    }
}

/// Runs `name` on an engine from `boot`, behind a recording wrapper.
pub fn record_one<E: OsEngine>(
    boot: impl Fn() -> E,
    registry: &ProgramRegistry,
    name: &'static str,
    args: &[&str],
    into: &mut Recorded,
) {
    let mut host = Host::new(Recording::new(boot()), registry.clone());
    let t = Instant::now();
    let outcome = host.run(name, args);
    into.host_s += t.elapsed().as_secs_f64();
    if !matches!(outcome, RunOutcome::Completed { init_code: 0, .. }) {
        into.failed += 1;
    }
    let (_, ops, seen) = host.into_engine().into_parts();
    into.streams.push(Stream { name, ops, seen });
}

/// Records each UnixBench analog at its default iteration count and then
/// the suite, each on its own engine.
pub fn record_all<E: OsEngine>(boot: impl Fn() -> E) -> Recorded {
    let registry = registry();
    let mut out = Recorded::default();
    for bench in BENCHMARKS {
        let iters = default_iters(bench).to_string();
        record_one(&boot, &registry, bench, &[&iters], &mut out);
    }
    record_one(&boot, &registry, SUITE, &[], &mut out);
    out
}

/// Totals of one pass over all streams; boots and op-stream clones are
/// outside `ns` and `allocs`.
#[derive(Clone, Debug, Default)]
pub struct Timing {
    pub ns: u64,
    /// The pieces `ns` is the sum of: for each stream, by its index in
    /// `streams`, the times its timed part reported, in order.
    pub pieces: Vec<Vec<u64>>,
    pub syscalls: u64,
    pub allocs: u64,
    /// Streams whose replay observed something else than the recording.
    pub mismatches: u64,
}

/// Replays every stream in `order`, each on a fresh engine from `boot`.
/// `run` is the timed part: given the stream's index, it replays the ops
/// in some way and may push the times of the pieces it ran them in. `each`
/// sees the engine afterwards, with the virtual time it booted at.
pub fn pass<E: OsEngine>(
    streams: &[Stream],
    order: &[usize],
    boot: impl Fn() -> E,
    mut run: impl FnMut(usize, &mut E, Vec<Op>, &mut Vec<u64>) -> Observed,
    mut each: impl FnMut(&Stream, &mut E, u64),
) -> Timing {
    let mut t = Timing {
        pieces: vec![Vec::new(); streams.len()],
        ..Timing::default()
    };
    for &i in order {
        let stream = &streams[i];
        let mut os = boot();
        let booted_at = os.now();
        let ops = stream.ops.clone();
        t.pieces[i].reserve(Chunked::<E>::pieces_of(stream.seen.syscalls));
        let allocs = alloc_calls();
        let start = Instant::now();
        let seen = run(i, &mut os, ops, &mut t.pieces[i]);
        let ns = start.elapsed().as_nanos() as u64;
        t.ns += ns;
        if t.pieces[i].is_empty() {
            t.pieces[i].push(ns);
        }
        t.allocs += alloc_calls() - allocs;
        t.syscalls += seen.syscalls;
        t.mismatches += u64::from(seen != stream.seen);
        each(stream, &mut os, booted_at);
    }
    t
}

/// Timings of repeated passes, piece by piece, and the fastest pass they
/// add up to: a pass is a sum of pieces that do the same work every time,
/// and interference misses one piece far more often than a whole pass.
#[derive(Default)]
pub struct PassSamples {
    /// Samples of each piece of each stream.
    by_piece: Vec<Vec<Vec<f64>>>,
}

impl PassSamples {
    pub fn push(&mut self, t: &Timing) {
        self.by_piece.resize(t.pieces.len(), Vec::new());
        for (samples, pieces) in self.by_piece.iter_mut().zip(&t.pieces) {
            samples.resize(pieces.len(), Vec::new());
            for (s, ns) in samples.iter_mut().zip(pieces) {
                s.push(*ns as f64);
            }
        }
    }

    pub fn fastest_ns(&self) -> f64 {
        self.by_piece.iter().flatten().map(|s| fastest(s)).sum()
    }
}

/// The usual timed part of a [`pass`]: a plain replay, timed in pieces.
pub fn in_pieces<E: OsEngine>(
    _: usize,
    os: &mut E,
    ops: Vec<Op>,
    pieces: &mut Vec<u64>,
) -> Observed {
    chunked_replay(os, ops, pieces)
}

/// [`pass`] with the usual timed part and nothing to do afterwards.
pub fn plain_pass<E: OsEngine>(
    streams: &[Stream],
    order: &[usize],
    boot: impl Fn() -> E,
) -> Timing {
    pass(streams, order, boot, in_pieces, |_, _, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::replay;
    use osiris::{Os, OsConfig};

    #[test]
    fn record_then_replay_is_equivalent() {
        let mut registry = ProgramRegistry::new();
        registry.register("three", |sys| {
            let pid = sys.getpid().expect("getpid");
            sys.ds_put("k", b"value").expect("ds_put");
            i32::from(sys.ds_get("k") != Ok(b"value".to_vec()) || pid.0 != 1)
        });
        let mut host = Host::new(Recording::new(Os::new(OsConfig::default())), registry);
        assert!(matches!(
            host.run("three", &[]),
            RunOutcome::Completed { init_code: 0, .. }
        ));
        let (recorded_os, ops, seen) = host.into_engine().into_parts();
        // Three calls and the exit `Host` submits for the process.
        assert_eq!(seen.syscalls, 4);
        assert_eq!(seen.replies, 3);

        let mut os = Os::new(OsConfig::default());
        let again = replay(&mut os, ops.clone());
        assert_eq!(again, seen);
        assert_eq!(os.now(), recorded_os.now());
        assert_eq!(
            os.metrics().ipc_delivered,
            recorded_os.metrics().ipc_delivered
        );

        // A stream that is not the recorded one is told apart.
        let mut os = Os::new(OsConfig::default());
        let mut cut = ops;
        cut.retain(|op| {
            !matches!(
                op,
                Op::Submit(_, _, osiris::kernel::abi::Syscall::DsPut { .. })
            )
        });
        assert_ne!(replay(&mut os, cut), seen);
    }
}
