//! The three generated workloads and the closed-loop driver that runs them.
//!
//! A workload is a deck of logical operations with fixed proportions; the
//! seed decides their order, offsets and payloads. Every batch of a
//! workload therefore has the same number of syscalls of each kind, which
//! keeps per-syscall counts comparable between batches and between seeds.
//! The generator keeps a shadow copy of every file and key, so each read's
//! expected content is known before the read is issued.
//!
//! The driver is the init process of a `ScriptWorkload`-style closed loop:
//! one syscall in flight, pumped to its reply from the calling thread.

use osiris::kernel::abi::{Errno, Fd, OpenFlags, Pid, SeekFrom, Signal, SysReply, Syscall};
use osiris::kernel::{FaultEffect, FaultHook, Probe, SyscallId};
use osiris::OsEngine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::engine::{Fnv, Observed};

/// splitmix64: the facade re-exports no generator, and this one is enough
/// to order a deck and fill a payload.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    NullRpc,
    WriteHeavy,
    CrashStorm,
}

/// Shape of a workload: its files, keys and the deck one batch is dealt
/// from.
struct Shape {
    files: usize,
    file_len: usize,
    keys: usize,
    value_len: usize,
    write_len: usize,
    read_len: usize,
    /// Offsets are multiples of this.
    align: usize,
    brk_pages: i64,
    deck: &'static [(Logical, usize)],
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Logical {
    GetPid,
    GetPPid,
    VmStat,
    SigPending,
    SigMask,
    DsGet,
    DsPut,
    Stat,
    WriteAt,
    ReadAt,
    Brk,
}

impl Workload {
    fn shape(self) -> Shape {
        match self {
            // Read-only calls on one key and one path: no heap writes.
            Workload::NullRpc => Shape {
                files: 1,
                file_len: 1024,
                keys: 1,
                value_len: 64,
                write_len: 1024,
                read_len: 0,
                align: 1024,
                brk_pages: 0,
                deck: &[
                    (Logical::GetPid, 200),
                    (Logical::GetPPid, 200),
                    (Logical::VmStat, 200),
                    (Logical::SigPending, 200),
                    (Logical::DsGet, 200),
                    (Logical::Stat, 200),
                ],
            },
            // 8 x 48 KiB is six times the 64-block VFS cache.
            Workload::WriteHeavy => Shape {
                files: 8,
                file_len: 48 * 1024,
                keys: 16,
                value_len: 2048,
                write_len: 8192,
                read_len: 4096,
                align: 1024,
                brk_pages: 16,
                deck: &[
                    (Logical::WriteAt, 32),
                    (Logical::ReadAt, 32),
                    (Logical::DsPut, 16),
                    (Logical::Brk, 16),
                ],
            },
            // A round across PM, VM, VFS and DS, small enough to stay in
            // the cache so recovery, not disk latency, is what varies.
            Workload::CrashStorm => Shape {
                files: 4,
                file_len: 4096,
                keys: 8,
                value_len: 64,
                write_len: 256,
                read_len: 256,
                align: 256,
                brk_pages: 1,
                deck: &[
                    (Logical::GetPid, 16),
                    (Logical::SigMask, 16),
                    (Logical::VmStat, 16),
                    (Logical::Brk, 16),
                    (Logical::Stat, 16),
                    (Logical::WriteAt, 16),
                    (Logical::ReadAt, 16),
                    (Logical::DsPut, 16),
                    (Logical::DsGet, 16),
                ],
            },
        }
    }
}

/// One syscall of a generated stream, small enough to keep beside the
/// materialized [`Syscall`] so a crashed attempt can be issued again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenOp {
    GetPid,
    GetPPid,
    VmStat,
    SigPending,
    SigMask(bool),
    /// `want` is the digest of the value the shadow holds for the key.
    DsGet {
        key: u8,
        want: u64,
    },
    DsPut {
        key: u8,
        fill: u64,
    },
    Stat {
        file: u8,
    },
    Seek {
        file: u8,
        off: u32,
    },
    /// Writes `write_len` bytes of `fill` at the position the preceding
    /// `Seek` set.
    Write {
        file: u8,
        fill: u64,
    },
    /// `want` is the digest of the shadow's bytes at the sought position.
    Read {
        file: u8,
        want: u64,
    },
    Brk(i64),
}

fn data_digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bytes);
    h.0
}

fn payload(fill: u64, len: usize) -> Vec<u8> {
    let mut r = Rng::new(fill);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&r.next().to_le_bytes());
    }
    out.truncate(len);
    out
}

fn file_path(i: usize) -> String {
    format!("/bench_f{i}")
}

fn key_name(i: usize) -> String {
    format!("bench/k{i}")
}

/// Generator state: the seeded stream position plus the shadow of every
/// file, key and the break.
pub struct Gen {
    shape: Shape,
    rng: Rng,
    fds: Vec<Fd>,
    files: Vec<Vec<u8>>,
    values: Vec<u64>,
    extra_pages: i64,
    masked: bool,
}

impl Gen {
    /// Boots the workload's state on `os` (files created and filled, keys
    /// stored) through `driver`, and returns the generator positioned at
    /// the first batch.
    pub fn set_up<E: OsEngine>(
        workload: Workload,
        seed: u64,
        os: &mut E,
        driver: &mut Driver,
    ) -> Gen {
        let shape = workload.shape();
        let mut rng = Rng::new(seed ^ 0x6f73_6972_6973);
        let mut fds = Vec::new();
        let mut files = Vec::new();
        for i in 0..shape.files {
            let reply = driver.call(
                os,
                Syscall::Open {
                    path: file_path(i),
                    flags: OpenFlags::RDWR_CREATE,
                },
            );
            let Some(SysReply::Desc(fd)) = reply else {
                driver.failed += 1;
                continue;
            };
            fds.push(fd);
            let mut shadow = Vec::with_capacity(shape.file_len);
            while shadow.len() < shape.file_len {
                let bytes = payload(rng.next(), shape.write_len.min(shape.file_len));
                let wrote = driver.call(
                    os,
                    Syscall::Write {
                        fd,
                        bytes: bytes.clone(),
                    },
                );
                if wrote != Some(SysReply::Val(bytes.len() as i64)) {
                    driver.failed += 1;
                }
                shadow.extend_from_slice(&bytes);
            }
            files.push(shadow);
        }
        let mut values = Vec::new();
        for i in 0..shape.keys {
            let value = payload(rng.next(), shape.value_len);
            values.push(data_digest(&value));
            let put = driver.call(
                os,
                Syscall::DsPut {
                    key: key_name(i),
                    value,
                },
            );
            if !matches!(put, Some(r) if !matches!(r, SysReply::Err(_))) {
                driver.failed += 1;
            }
        }
        Gen {
            shape,
            rng,
            fds,
            files,
            values,
            extra_pages: 0,
            masked: false,
        }
    }

    /// Deals the next batch: the deck in seeded order, flattened to
    /// syscalls, with the shadow advanced past every write in it.
    pub fn next_batch(&mut self) -> Vec<GenOp> {
        let mut logical: Vec<Logical> = self
            .shape
            .deck
            .iter()
            .flat_map(|&(l, n)| std::iter::repeat_n(l, n))
            .collect();
        self.rng.shuffle(&mut logical);
        let mut ops = Vec::with_capacity(logical.len() * 2);
        for l in logical {
            self.deal_one(l, &mut ops);
        }
        ops
    }

    fn offset(&mut self, len: usize) -> usize {
        let slots = (self.shape.file_len - len) / self.shape.align + 1;
        self.rng.below(slots as u64) as usize * self.shape.align
    }

    fn deal_one(&mut self, l: Logical, ops: &mut Vec<GenOp>) {
        match l {
            Logical::GetPid => ops.push(GenOp::GetPid),
            Logical::GetPPid => ops.push(GenOp::GetPPid),
            Logical::VmStat => ops.push(GenOp::VmStat),
            Logical::SigPending => ops.push(GenOp::SigPending),
            Logical::SigMask => {
                self.masked = !self.masked;
                ops.push(GenOp::SigMask(self.masked));
            }
            Logical::DsGet => {
                let key = self.rng.below(self.shape.keys as u64) as usize;
                ops.push(GenOp::DsGet {
                    key: key as u8,
                    want: self.values[key],
                });
            }
            Logical::DsPut => {
                let key = self.rng.below(self.shape.keys as u64) as usize;
                let fill = self.rng.next();
                self.values[key] = data_digest(&payload(fill, self.shape.value_len));
                ops.push(GenOp::DsPut {
                    key: key as u8,
                    fill,
                });
            }
            Logical::Stat => {
                let file = self.rng.below(self.shape.files as u64) as u8;
                ops.push(GenOp::Stat { file });
            }
            Logical::WriteAt => {
                let file = self.rng.below(self.shape.files as u64) as usize;
                let len = self.shape.write_len;
                let off = self.offset(len);
                let fill = self.rng.next();
                self.files[file][off..off + len].copy_from_slice(&payload(fill, len));
                ops.push(GenOp::Seek {
                    file: file as u8,
                    off: off as u32,
                });
                ops.push(GenOp::Write {
                    file: file as u8,
                    fill,
                });
            }
            Logical::ReadAt => {
                let file = self.rng.below(self.shape.files as u64) as usize;
                let len = self.shape.read_len;
                let off = self.offset(len);
                ops.push(GenOp::Seek {
                    file: file as u8,
                    off: off as u32,
                });
                ops.push(GenOp::Read {
                    file: file as u8,
                    want: data_digest(&self.files[file][off..off + len]),
                });
            }
            Logical::Brk => {
                // Grow from the floor, shrink from the ceiling, else toss.
                let up = self.extra_pages == 0
                    || (self.extra_pages < 4 * self.shape.brk_pages && self.rng.below(2) == 0);
                let pages = if up {
                    self.shape.brk_pages
                } else {
                    -self.shape.brk_pages
                };
                self.extra_pages += pages;
                ops.push(GenOp::Brk(pages));
            }
        }
    }

    /// The next batch with its syscalls materialized, so that a timed loop
    /// over them allocates nothing of its own.
    pub fn deal(&mut self) -> (Vec<GenOp>, Vec<Syscall>) {
        let ops = self.next_batch();
        let calls = ops.iter().map(|op| self.materialize(op)).collect();
        (ops, calls)
    }

    /// The syscall `op` stands for.
    pub fn materialize(&self, op: &GenOp) -> Syscall {
        let fd = |file: u8| self.fds[file as usize];
        match *op {
            GenOp::GetPid => Syscall::GetPid,
            GenOp::GetPPid => Syscall::GetPPid,
            GenOp::VmStat => Syscall::VmStat,
            GenOp::SigPending => Syscall::SigPending,
            GenOp::SigMask(masked) => Syscall::SigMask {
                sig: Signal::SigUsr1,
                masked,
            },
            GenOp::DsGet { key, .. } => Syscall::DsGet {
                key: key_name(key as usize),
            },
            GenOp::DsPut { key, fill } => Syscall::DsPut {
                key: key_name(key as usize),
                value: payload(fill, self.shape.value_len),
            },
            GenOp::Stat { file } => Syscall::Stat {
                path: file_path(file as usize),
            },
            GenOp::Seek { file, off } => Syscall::Seek {
                fd: fd(file),
                from: SeekFrom::Start(u64::from(off)),
            },
            GenOp::Write { file, fill } => Syscall::Write {
                fd: fd(file),
                bytes: payload(fill, self.shape.write_len),
            },
            GenOp::Read { file, .. } => Syscall::Read {
                fd: fd(file),
                len: self.shape.read_len as u32,
            },
            GenOp::Brk(pages) => Syscall::Brk { pages },
        }
    }

    /// Whether `op` is the call this workload's injections crash: its
    /// writes where it has any, else its plainest call.
    pub fn characteristic(&self, op: &GenOp) -> bool {
        let writes = self.shape.deck.iter().any(|(l, _)| *l == Logical::WriteAt);
        match op {
            GenOp::Write { .. } => writes,
            GenOp::GetPid => !writes,
            _ => false,
        }
    }

    /// Whether `reply` is what the shadow says `op` must return.
    pub fn expected(&self, op: &GenOp, reply: &SysReply) -> bool {
        match (op, reply) {
            (GenOp::GetPid, r) => *r == SysReply::Proc(Pid::INIT),
            (GenOp::DsGet { want, .. } | GenOp::Read { want, .. }, SysReply::Data(d)) => {
                data_digest(d) == *want
            }
            (GenOp::DsGet { .. } | GenOp::Read { .. }, _) => false,
            (GenOp::Seek { off, .. }, r) => *r == SysReply::Val(i64::from(*off)),
            (GenOp::Write { .. }, r) => *r == SysReply::Val(self.shape.write_len as i64),
            (GenOp::Stat { .. }, SysReply::StatInfo(s)) => s.size == self.shape.file_len as u64,
            (GenOp::Stat { .. }, _) => false,
            (_, r) => !matches!(r, SysReply::Err(_)),
        }
    }
}

/// Virtual cycles of user compute charged before each syscall, as
/// `ScriptWorkload` does.
const CHARGE_PER_CALL: u64 = 5;
/// Attempts at one call before an `ECRASH` reply counts as a failed op.
const ECRASH_ATTEMPTS: u32 = 8;
/// Timer fires without the awaited reply before the op counts as lost.
const MAX_IDLE_FIRES: u32 = 10_000;

/// The closed-loop init process.
#[derive(Clone, Debug, Default)]
pub struct Driver {
    next_sid: u64,
    pub seen: Observed,
    /// Ops that failed: unexpected reply, wrong data, no reply, `ECRASH`
    /// on every attempt.
    pub failed: u64,
    /// Attempts answered `ECRASH`.
    pub ecrash: u64,
}

impl Driver {
    /// One attempt: submit, then pump and fire timers until the reply.
    pub fn call<E: OsEngine>(&mut self, os: &mut E, call: Syscall) -> Option<SysReply> {
        os.charge_user(CHARGE_PER_CALL);
        self.next_sid += 1;
        let sid = SyscallId(self.next_sid);
        self.seen.syscalls += 1;
        os.submit(sid, Pid::INIT, call);
        for _ in 0..MAX_IDLE_FIRES {
            let replies = os.pump();
            std::hint::black_box(os.take_kill_events());
            self.seen.replies(&replies);
            if let Some((_, _, reply)) = replies.into_iter().find(|(s, _, _)| *s == sid) {
                return Some(reply);
            }
            if !os.fire_next_timer() {
                return None;
            }
        }
        None
    }

    /// Runs one batch. `calls` are `ops` materialized ahead of time, so the
    /// timed loop allocates only where a crashed attempt is issued again;
    /// `on_ecrash` sees the engine after every such reply.
    pub fn run<E: OsEngine>(
        &mut self,
        os: &mut E,
        gen: &Gen,
        ops: &[GenOp],
        calls: Vec<Syscall>,
        mut on_ecrash: impl FnMut(&mut E),
    ) {
        for (op, call) in ops.iter().zip(calls) {
            let mut reply = self.call(os, call);
            let mut attempts = 1;
            while reply == Some(SysReply::Err(Errno::ECRASH)) && attempts < ECRASH_ATTEMPTS {
                self.ecrash += 1;
                on_ecrash(os);
                reply = self.call(os, gen.materialize(op));
                attempts += 1;
            }
            if !reply.is_some_and(|r| gen.expected(op, &r)) {
                self.failed += 1;
            }
        }
    }
}

fn eligible(probe: &Probe) -> bool {
    probe.window_open && probe.replyable && matches!(probe.component, "pm" | "vm" | "vfs" | "ds")
}

/// Crashes the component on every `every`-th eligible probe: the window is
/// open and the request can still be error-replied, so each crash is
/// recoverable by rollback.
pub struct StormHook {
    every: u64,
    seen: u64,
}

impl StormHook {
    pub fn new(every: u64) -> StormHook {
        StormHook { every, seen: 0 }
    }
}

impl FaultHook for StormHook {
    fn on_site(&mut self, probe: &Probe) -> FaultEffect {
        if !eligible(probe) {
            return FaultEffect::None;
        }
        self.seen += 1;
        if self.seen.is_multiple_of(self.every) {
            FaultEffect::Panic
        } else {
            FaultEffect::None
        }
    }
}

/// Crashes the component at the next eligible probe after `armed` is set,
/// once per arming.
pub struct OneShotHook {
    pub armed: Arc<AtomicBool>,
}

impl FaultHook for OneShotHook {
    fn on_site(&mut self, probe: &Probe) -> FaultEffect {
        if eligible(probe) && self.armed.swap(false, Ordering::Relaxed) {
            FaultEffect::Panic
        } else {
            FaultEffect::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osiris::{Os, OsConfig};

    fn stream(workload: Workload, seed: u64) -> Vec<GenOp> {
        let mut os = Os::new(OsConfig::default());
        let mut driver = Driver::default();
        let mut gen = Gen::set_up(workload, seed, &mut os, &mut driver);
        assert_eq!(driver.failed, 0);
        let mut ops = gen.next_batch();
        ops.extend(gen.next_batch());
        ops
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in [
            Workload::NullRpc,
            Workload::WriteHeavy,
            Workload::CrashStorm,
        ] {
            let a = stream(w, 7);
            assert_eq!(a, stream(w, 7), "{w:?}");
            assert_ne!(a, stream(w, 8), "{w:?}");
            // The deck fixes how many syscalls of each kind a batch holds.
            assert_eq!(a.len(), stream(w, 8).len(), "{w:?}");
        }
    }

    #[test]
    fn generated_batches_run_clean() {
        for w in [
            Workload::NullRpc,
            Workload::WriteHeavy,
            Workload::CrashStorm,
        ] {
            let mut os = Os::new(OsConfig::default());
            let mut driver = Driver::default();
            let mut gen = Gen::set_up(w, 3, &mut os, &mut driver);
            for _ in 0..3 {
                let (ops, calls) = gen.deal();
                driver.run(&mut os, &gen, &ops, calls, |_| {});
            }
            assert_eq!((driver.failed, driver.ecrash), (0, 0), "{w:?}");
        }
    }
}
