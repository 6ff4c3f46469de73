//! Engines around engines: everything the benchmark puts between a driver
//! and an `OsEngine` to record, replay, time or trace the calls made.
//!
//! The paper's programs (UnixBench analogs, the test suite) are closures
//! on `Sys`, which only `Host` can run, and `Host` runs every process as a
//! thread. Thread hand-off dominates `Host::run` wall time and swings with
//! the sandbox, so no timed region may contain it. Instead the programs run
//! once in set-up behind [`Recording`], which logs every call `Host` makes
//! into the engine; timed passes then [`replay`] that log verbatim on a
//! freshly booted engine from the main thread.
//!
//! Everything the host can observe from the engine (replies, kill events,
//! timer results, shutdown state) is folded into an [`Observed`] digest.
//! `Host` decides its next call from those observations alone, so a replay
//! whose digest equals the recording's is the call stream `Host` would have
//! produced on that engine.
//!
//! [`Chunked`] times the calls passing through it in pieces, [`Traced`]
//! wraps each in a span, and [`Taping`] with [`Canned`] run a driver against
//! nothing but the answers a real engine gave it.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::Instant;

use osiris::kernel::abi::{Pid, SysReply, Syscall};
use osiris::kernel::SyscallId;
use osiris::{Os, OsEngine, ShutdownKind};

use crate::spans::{Kind, SpanLog, NO_SERVER};

/// One call `Host` made into the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Submit(SyscallId, Pid, Syscall),
    Pump,
    Kills,
    Timer,
    Charge(u64),
    Shutdown,
    Now,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Word-wise FNV-1a: cheap enough to fold every reply inside a timed batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rem = chunks.remainder();
        tail[..rem.len()].copy_from_slice(rem);
        self.word(u64::from_le_bytes(tail));
    }

    pub fn reply(&mut self, r: &SysReply) {
        match r {
            SysReply::Ok => self.word(1),
            SysReply::Val(v) => {
                self.word(2);
                self.word(*v as u64);
            }
            SysReply::Proc(p) => {
                self.word(3);
                self.word(u64::from(p.0));
            }
            SysReply::Desc(fd) => {
                self.word(4);
                self.word(u64::from(fd.0));
            }
            SysReply::TwoDesc(a, b) => {
                self.word(5);
                self.word(u64::from(a.0) << 32 | u64::from(b.0));
            }
            SysReply::Data(d) => {
                self.word(6);
                self.bytes(d);
            }
            SysReply::Names(names) => {
                self.word(7);
                self.word(names.len() as u64);
                for n in names {
                    self.bytes(n.as_bytes());
                }
            }
            SysReply::StatInfo(s) => {
                self.word(8);
                self.word(s.size);
                self.word(u64::from(s.is_dir) << 32 | u64::from(s.nlink));
            }
            SysReply::Exited(p, code) => {
                self.word(9);
                self.word(u64::from(p.0) << 32 | u64::from(*code as u32));
            }
            SysReply::Signals(sigs) => {
                self.word(10);
                self.word(sigs.len() as u64);
                for s in sigs {
                    self.word(*s as u64);
                }
            }
            SysReply::Err(e) => {
                self.word(11);
                self.word(*e as u64);
            }
        }
    }
}

/// Digest of everything a host can observe from an engine, plus counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Observed {
    pub digest: Fnv,
    pub syscalls: u64,
    pub replies: u64,
}

impl Observed {
    pub fn replies(&mut self, replies: &[(SyscallId, Pid, SysReply)]) {
        for (sid, pid, r) in replies {
            self.digest.word(sid.0);
            self.digest.word(u64::from(pid.0));
            self.digest.reply(r);
        }
        self.replies += replies.len() as u64;
    }

    fn kills(&mut self, kills: &[Pid]) {
        for p in kills {
            self.digest.word(0x6b00_0000_0000 | u64::from(p.0));
        }
    }

    fn timer(&mut self, fired: bool) {
        self.digest.word(0x7400 | u64::from(fired));
    }

    fn shutdown(&mut self, down: bool) {
        self.digest.word(0x7300 | u64::from(down));
    }
}

/// An engine that logs every call made into it. The log sits behind a
/// `RefCell` because `shutdown_state` and `now` take `&self` and the replay
/// must repeat them too.
pub struct Recording<E: OsEngine> {
    inner: E,
    log: RefCell<(Vec<Op>, Observed)>,
}

impl<E: OsEngine> Recording<E> {
    pub fn new(inner: E) -> Self {
        Recording {
            inner,
            log: RefCell::default(),
        }
    }

    /// The wrapped engine, the recorded calls and what the host observed.
    pub fn into_parts(self) -> (E, Vec<Op>, Observed) {
        let (ops, seen) = self.log.into_inner();
        (self.inner, ops, seen)
    }
}

impl<E: OsEngine> OsEngine for Recording<E> {
    fn submit(&mut self, sid: SyscallId, pid: Pid, call: Syscall) {
        let (ops, seen) = self.log.get_mut();
        ops.push(Op::Submit(sid, pid, call.clone()));
        seen.syscalls += 1;
        self.inner.submit(sid, pid, call);
    }

    fn pump(&mut self) -> Vec<(SyscallId, Pid, SysReply)> {
        let replies = self.inner.pump();
        let (ops, seen) = self.log.get_mut();
        ops.push(Op::Pump);
        seen.replies(&replies);
        replies
    }

    fn take_kill_events(&mut self) -> Vec<Pid> {
        let kills = self.inner.take_kill_events();
        let (ops, seen) = self.log.get_mut();
        ops.push(Op::Kills);
        seen.kills(&kills);
        kills
    }

    fn fire_next_timer(&mut self) -> bool {
        let fired = self.inner.fire_next_timer();
        let (ops, seen) = self.log.get_mut();
        ops.push(Op::Timer);
        seen.timer(fired);
        fired
    }

    fn shutdown_state(&self) -> Option<ShutdownKind> {
        let state = self.inner.shutdown_state();
        let mut log = self.log.borrow_mut();
        log.0.push(Op::Shutdown);
        log.1.shutdown(state.is_some());
        state
    }

    fn now(&self) -> u64 {
        self.log.borrow_mut().0.push(Op::Now);
        self.inner.now()
    }

    fn charge_user(&mut self, units: u64) {
        self.log.get_mut().0.push(Op::Charge(units));
        self.inner.charge_user(units);
    }
}

/// Replays a recorded call stream verbatim and returns what was observed.
pub fn replay<E: OsEngine>(os: &mut E, ops: Vec<Op>) -> Observed {
    let mut seen = Observed::default();
    for op in ops {
        match op {
            Op::Submit(sid, pid, call) => {
                seen.syscalls += 1;
                os.submit(sid, pid, call);
            }
            Op::Pump => {
                let replies = os.pump();
                seen.replies(&replies);
            }
            Op::Kills => {
                let kills = os.take_kill_events();
                seen.kills(&kills);
            }
            Op::Timer => {
                let fired = os.fire_next_timer();
                seen.timer(fired);
            }
            Op::Charge(units) => os.charge_user(units),
            Op::Shutdown => seen.shutdown(os.shutdown_state().is_some()),
            Op::Now => {
                std::hint::black_box(os.now());
            }
        }
    }
    seen
}

/// An engine that reads the clock every [`Chunked::EVERY`] submits and
/// keeps the time of each such piece. A replayed stream is the same calls
/// every time, so piece `i` of one replay is the same work as piece `i` of
/// the next, and a piece is short enough for the sandbox's interference to
/// miss it now and then, which it never does a whole stream.
pub struct Chunked<'a, E: OsEngine> {
    os: &'a mut E,
    pieces: &'a mut Vec<u64>,
    submits: u32,
    since: Instant,
}

impl<'a, E: OsEngine> Chunked<'a, E> {
    const EVERY: u32 = 16;

    /// Pieces a stream of `syscalls` submits is cut into, at most. Callers
    /// reserve that many, so that the cuts allocate nothing while timed.
    pub fn pieces_of(syscalls: u64) -> usize {
        syscalls as usize / Self::EVERY as usize + 1
    }

    pub fn new(os: &'a mut E, pieces: &'a mut Vec<u64>) -> Self {
        Chunked {
            os,
            pieces,
            submits: 0,
            since: Instant::now(),
        }
    }

    fn cut(&mut self) {
        let now = Instant::now();
        self.pieces.push((now - self.since).as_nanos() as u64);
        self.since = now;
    }

    /// Closes the last piece.
    pub fn finish(mut self) {
        self.cut();
    }
}

impl<E: OsEngine> OsEngine for Chunked<'_, E> {
    fn submit(&mut self, sid: SyscallId, pid: Pid, call: Syscall) {
        self.submits += 1;
        if self.submits.is_multiple_of(Self::EVERY) {
            self.cut();
        }
        self.os.submit(sid, pid, call);
    }

    fn pump(&mut self) -> Vec<(SyscallId, Pid, SysReply)> {
        self.os.pump()
    }

    fn take_kill_events(&mut self) -> Vec<Pid> {
        self.os.take_kill_events()
    }

    fn fire_next_timer(&mut self) -> bool {
        self.os.fire_next_timer()
    }

    fn shutdown_state(&self) -> Option<ShutdownKind> {
        self.os.shutdown_state()
    }

    fn now(&self) -> u64 {
        self.os.now()
    }

    fn charge_user(&mut self, units: u64) {
        self.os.charge_user(units);
    }
}

/// [`replay`] with the time of every piece pushed onto `pieces`.
pub fn chunked_replay<E: OsEngine>(os: &mut E, ops: Vec<Op>, pieces: &mut Vec<u64>) -> Observed {
    let mut chunked = Chunked::new(os, pieces);
    let seen = replay(&mut chunked, ops);
    chunked.finish();
    seen
}

/// Everything an engine answered, call by call.
#[derive(Clone, Debug, Default)]
pub struct Tape {
    pumps: VecDeque<Vec<(SyscallId, Pid, SysReply)>>,
    kills: VecDeque<Vec<Pid>>,
    timers: VecDeque<bool>,
}

/// An engine that keeps a copy of everything it answers.
pub struct Taping<'a, E: OsEngine> {
    pub os: &'a mut E,
    pub tape: Tape,
}

impl<E: OsEngine> OsEngine for Taping<'_, E> {
    fn submit(&mut self, sid: SyscallId, pid: Pid, call: Syscall) {
        self.os.submit(sid, pid, call);
    }

    fn pump(&mut self) -> Vec<(SyscallId, Pid, SysReply)> {
        let replies = self.os.pump();
        self.tape.pumps.push_back(replies.clone());
        replies
    }

    fn take_kill_events(&mut self) -> Vec<Pid> {
        let kills = self.os.take_kill_events();
        self.tape.kills.push_back(kills.clone());
        kills
    }

    fn fire_next_timer(&mut self) -> bool {
        let fired = self.os.fire_next_timer();
        self.tape.timers.push_back(fired);
        fired
    }

    fn shutdown_state(&self) -> Option<ShutdownKind> {
        self.os.shutdown_state()
    }

    fn now(&self) -> u64 {
        self.os.now()
    }

    fn charge_user(&mut self, units: u64) {
        self.os.charge_user(units);
    }
}

/// An engine that does nothing but play a [`Tape`] back. The same calls
/// made into it cost what the caller itself costs: its loop, its checks,
/// its digests, and freeing what the engine hands over. What the caller
/// hands over is kept until the engine is dropped: freeing that is the
/// real engine's work.
pub struct Canned {
    tape: Tape,
    submitted: Vec<Syscall>,
}

impl Canned {
    pub fn new(tape: Tape) -> Canned {
        let submitted = Vec::with_capacity(tape.pumps.len());
        Canned { tape, submitted }
    }
}

impl OsEngine for Canned {
    fn submit(&mut self, _: SyscallId, _: Pid, call: Syscall) {
        self.submitted.push(call);
    }

    fn pump(&mut self) -> Vec<(SyscallId, Pid, SysReply)> {
        self.tape.pumps.pop_front().unwrap_or_default()
    }

    fn take_kill_events(&mut self) -> Vec<Pid> {
        self.tape.kills.pop_front().unwrap_or_default()
    }

    fn fire_next_timer(&mut self) -> bool {
        self.tape.timers.pop_front().unwrap_or_default()
    }

    fn shutdown_state(&self) -> Option<ShutdownKind> {
        None
    }

    fn now(&self) -> u64 {
        0
    }

    fn charge_user(&mut self, _: u64) {}
}

/// An `Os` whose engine calls are wrapped in spans. A syscall span opens
/// at `submit` and closes at the next one (or at [`Traced::end_syscall`]):
/// in a closed loop that is the life of the call, and in a replayed
/// multi-process stream it is the work the call set off.
pub struct Traced<'a> {
    pub os: &'a mut Os,
    pub log: &'a mut SpanLog,
}

impl Traced<'_> {
    /// Closes the syscall span left open by the last `submit`.
    pub fn end_syscall(&mut self) {
        if self.log.inside(Kind::Syscall) {
            self.log.close();
        }
    }

    fn server(&self, call: &Syscall) -> u8 {
        let t = self.os.topology();
        let to = self.os.route(call);
        [t.pm, t.vm, t.vfs, t.ds]
            .iter()
            .position(|e| *e == to)
            .map_or(NO_SERVER, |i| i as u8)
    }
}

impl OsEngine for Traced<'_> {
    fn submit(&mut self, sid: SyscallId, pid: Pid, call: Syscall) {
        self.end_syscall();
        let server = self.server(&call);
        self.log.open(Kind::Syscall, sid.0, server);
        self.log.open(Kind::Submit, sid.0, NO_SERVER);
        self.os.submit(sid, pid, call);
        self.log.close();
    }

    fn pump(&mut self) -> Vec<(SyscallId, Pid, SysReply)> {
        self.log.open(Kind::Pump, 0, NO_SERVER);
        let replies = self.os.pump();
        self.log.close();
        replies
    }

    fn take_kill_events(&mut self) -> Vec<Pid> {
        self.log.open(Kind::Kills, 0, NO_SERVER);
        let kills = self.os.take_kill_events();
        self.log.close();
        kills
    }

    fn fire_next_timer(&mut self) -> bool {
        self.log.open(Kind::Timer, 0, NO_SERVER);
        let fired = self.os.fire_next_timer();
        self.log.close();
        fired
    }

    fn shutdown_state(&self) -> Option<ShutdownKind> {
        self.os.shutdown_state()
    }

    fn now(&self) -> u64 {
        self.os.now()
    }

    fn charge_user(&mut self, units: u64) {
        self.os.charge_user(units);
    }
}

/// FNV over everything the simulation computed: the final virtual clock,
/// every kernel counter, every component's cycle, message, window and
/// journal counters, and the reply stream. No export text and no byte
/// sizes, so it moves only when simulated behaviour does.
pub fn sim_digest(os: &Os, seen: &Observed) -> u64 {
    let mut h = Fnv::default();
    h.word(os.now());
    let m = os.metrics();
    for w in [
        m.ipc_delivered,
        m.syscalls,
        m.timers_fired,
        m.crashes,
        m.quarantines,
        m.hangs,
        m.recovered_rollback,
        m.recovered_fresh,
        m.recovered_naive,
        m.recovered_quiescent,
        m.controlled_shutdowns,
        m.recovery_cycles,
        m.wd_armed,
        m.wd_expired,
        m.wd_probes,
        m.wd_verdicts,
        m.wd_replies_rejected,
        m.retries_granted,
        m.retries_denied,
        m.retries_exhausted,
    ] {
        h.word(w);
    }
    for r in os.reports() {
        let w = r.window;
        for x in [
            r.cycles,
            r.messages,
            w.opens,
            w.closed_by_send,
            w.closed_by_yield,
            w.closed_manually,
            w.cycles_in,
            w.cycles_out,
            w.sites_in,
            w.sites_out,
            w.rollbacks,
            r.writes,
            r.undo_appends,
            r.coalesced_writes,
            r.crashes,
            r.recoveries,
        ] {
            h.word(x);
        }
    }
    h.word(seen.digest.0);
    h.word(seen.syscalls);
    h.word(seen.replies);
    h.0
}
