//! Map stores move the binding they displace into the undo journal instead
//! of copying it, a VFS write borrows its payload unless it parks on a disk
//! read, a handler keeps the payload it stores by moving it out of its
//! message, and a disk block is shared, never copied, once built.
//!
//! A warm default [`Os`] runs one batch: block-aligned 8 KiB writes over,
//! and 4 KiB reads back from, two files of three times the 64-block VFS
//! cache (so every write evicts and every read misses), then 2 KiB `DsPut`s
//! and `DsDel`s. The allocator calls of the batch repeat exactly and are
//! held to their recorded value; every reply must be a success. The same
//! batch runs again with the watchdog on, which lends each request it may
//! re-drive to its handler instead of handing it over, so a stored `DsPut`
//! key and value are copied as before handlers owned their messages; a
//! lent `DiskWrite`'s block is shared.
//!
//! A warm default [`Os`] then runs block-aligned 4 KiB overwrites that
//! each miss the cache, so each builds four new blocks and evicts four
//! dirty ones to the disk. The eviction, the journal, the lent `DiskWrite`
//! and the disk's queue share each block: every overwrite makes the same
//! allocator calls with the watchdog on as off, [`OVERWRITE_ALLOCS`] when
//! it splits no B-tree node, and all of them together an exact total.
//!
//! Single warm syscalls then pin what the pump costs: nothing of its own.
//! A `GetPid` makes exactly one allocator call, the reply vector `Os::pump`
//! hands back; a cached 4 KiB read adds only its payload, which moves out
//! of the routed reply; a create adds the shared name and the directory's
//! undo record, an unlink the record alone, one allocation whatever the
//! directory holds (32 or 128 entries).

use std::cell::Cell;

use osiris_kernel::abi::{Fd, OpenFlags, Pid, SeekFrom, SysReply, Syscall};
use osiris_kernel::{cost, OsEngine, SyscallId, WatchdogConfig};
use osiris_servers::{Os, OsConfig};

use super::{Checks, Scale, Want};

/// Allocator calls of one warm batch (3,440 while `PMap::insert` and
/// `remove` cloned every displaced binding, eviction copied clean victims
/// and each write copied its payload into its continuation; 2,603 while
/// every handler borrowed its message and copied what it kept; 1,803
/// while a block was a vector, copied by every eviction, disk read reply
/// and journaled removal from the disk's queue).
const WARM_BATCH_ALLOCS: u64 = 875;

/// The same batch with the watchdog on (2,603 while every handler
/// borrowed; 2,089 while a lent `DiskWrite` copied its block). Only the
/// `DsPut` key and value its handler keeps from a lent request are still
/// copied (see `watchdog.rs`'s `LENT_COPIES_PER_ROUND`).
const WATCHED_BATCH_ALLOCS: u64 = 907;

/// Allocator calls of one cache-missing, block-aligned 4 KiB overwrite,
/// with the watchdog on or off: its four new blocks and the reply vector.
/// Its four dirty evictions, their undo records, the `DiskWrite`s (lent
/// when watched) and the disk's queue entries share those blocks. While a
/// block was a vector this was six, ten watched: the undo record of the
/// eviction made before the first `DiskWrite` closed the window copied its
/// victim, and each lent `DiskWrite` copied its block.
const OVERWRITE_ALLOCS: u64 = 5;

/// Counted overwrite passes over the file.
const COUNTED_PASSES: usize = 4;

/// Allocator calls of all [`COUNTED_PASSES`]: the per-write floor plus 79
/// leaf nodes of the VFS cache's B-tree, split as the cached block numbers
/// move on (1,231, and 1,999 watched, while a block was a vector).
const OVERWRITE_PASSES_ALLOCS: u64 = 1_039;

/// Bytes per file: three times the 64 KiB the VFS cache holds.
const FILE_BYTES: usize = 3 * 64 * 1024;

struct Driver {
    os: Os,
    next_sid: u64,
}

impl Driver {
    /// One closed-loop syscall from init: submit, then pump, firing timers
    /// (disk replies) while the reply is outstanding.
    fn call(&mut self, call: Syscall) -> SysReply {
        self.next_sid += 1;
        self.os.submit(SyscallId(self.next_sid), Pid::INIT, call);
        loop {
            if let Some((_, _, reply)) = self.os.pump().pop() {
                return reply;
            }
            assert!(self.os.fire_next_timer(), "a syscall never replied");
        }
    }

    /// Fires timers until the clock has moved `cycles` on: every disk
    /// request queued so far completes.
    fn settle(&mut self, cycles: u64) {
        let until = self.os.now() + cycles;
        while self.os.now() < until && self.os.fire_next_timer() {
            assert!(self.os.pump().is_empty(), "no syscall is outstanding");
        }
    }

    /// One call, and the allocator calls made until its reply arrived.
    fn counted(&mut self, c: &Checks, call: Syscall) -> (SysReply, Option<u64>) {
        c.counted(|| self.call(call))
    }

    /// Runs `calls` in order; returns how many replies were errors.
    fn run(&mut self, calls: Vec<Syscall>) -> u64 {
        let replies = calls.into_iter().map(|call| self.call(call));
        replies.filter(|r| matches!(r, SysReply::Err(_))).count() as u64
    }
}

/// The batch, built before it is counted so that only the OS's own
/// allocations (and the reply vectors it hands back) are.
fn batch(fds: &[Fd], round: u8) -> Vec<Syscall> {
    let mut calls = Vec::new();
    let rewind = |fd| Syscall::Seek {
        fd,
        from: SeekFrom::Start(0),
    };
    for &fd in fds {
        calls.push(rewind(fd));
        for i in 0..FILE_BYTES / 8192 {
            let bytes = vec![round ^ i as u8; 8192];
            calls.push(Syscall::Write { fd, bytes });
        }
        calls.push(rewind(fd));
        calls.extend((0..FILE_BYTES / 4096).map(|_| Syscall::Read { fd, len: 4096 }));
    }
    for i in 0..16u8 {
        let key = format!("gate-{i}");
        let value = vec![round ^ i; 2048];
        calls.push(Syscall::DsPut {
            key: key.clone(),
            value,
        });
        calls.push(Syscall::DsDel { key });
    }
    calls
}

fn watched() -> OsConfig {
    OsConfig {
        watchdog: WatchdogConfig::on(),
        ..OsConfig::default()
    }
}

pub(super) fn checks(scale: Scale, c: &mut Checks) {
    for (case, cfg, want) in [
        ("warm", OsConfig::default(), WARM_BATCH_ALLOCS),
        ("watched", watched(), WATCHED_BATCH_ALLOCS),
    ] {
        let (errors, allocs) = warm_batch(c, cfg);
        c.push(format!("stores/{case}_batch_errors"), errors, Want::Eq(0));
        c.push_allocs(
            format!("stores/{case}_batch_allocs"),
            allocs,
            Want::Eq(want),
        );
    }
    let (off_errors, off) = overwrites(c, OsConfig::default());
    let (on_errors, on) = overwrites(c, watched());
    let errors = off_errors + on_errors;
    c.push("stores/overwrite_errors".into(), errors, Want::Eq(0));
    if !off.is_empty() {
        let differ = off.iter().zip(&on).filter(|(a, b)| a != b).count() as u64;
        let name = "stores/overwrite_on_vs_off_differing_writes".into();
        c.push(name, differ, Want::Eq(0));
        let name = "stores/overwrite_allocs_min".into();
        c.push_allocs(name, off.iter().min().copied(), Want::Eq(OVERWRITE_ALLOCS));
        let name = "stores/overwrite_allocs_total".into();
        c.push(name, off.iter().sum(), Want::Eq(OVERWRITE_PASSES_ALLOCS));
    }
    let (warm, counted) = match scale {
        Scale::Full => (100, 1000),
        Scale::Small => (5, 20),
    };
    single_calls(c, warm, counted);
}

/// Drives `warm` then `counted` rounds of each single warm syscall on a
/// fresh default `Os`, and holds the allocator calls of every counted one.
fn single_calls(c: &mut Checks, warm: usize, counted: usize) {
    let wrong = Cell::new(0);
    let check = |ok: bool| wrong.set(wrong.get() + u64::from(!ok));
    let fresh = || Driver {
        os: Os::new(OsConfig::default()),
        next_sid: 0,
    };

    let mut d = fresh();
    let mut getpid = Vec::new();
    for i in 0..warm + counted {
        let (reply, calls) = d.counted(c, Syscall::GetPid);
        check(reply == SysReply::Proc(Pid::INIT));
        if i >= warm {
            getpid.extend(calls);
        }
    }

    const LEN: usize = 4096;
    let mut d = fresh();
    let (flags, path) = (OpenFlags::RDWR_CREATE, "/pump_allocs".to_string());
    let SysReply::Desc(fd) = d.call(Syscall::Open { path, flags }) else {
        panic!("open /pump_allocs failed")
    };
    let bytes = vec![0xA5; LEN];
    check(d.call(Syscall::Write { fd, bytes }) == SysReply::Val(LEN as i64));
    let mut read = Vec::new();
    for i in 0..warm + counted {
        let from = SeekFrom::Start(0);
        check(d.call(Syscall::Seek { fd, from }) == SysReply::Val(0));
        let len = LEN as u32;
        let (reply, calls) = d.counted(c, Syscall::Read { fd, len });
        check(reply == SysReply::Data(vec![0xA5; LEN]));
        if i >= warm {
            read.extend(calls);
        }
    }

    let mut dirs = Vec::new();
    for entries in [32, 128] {
        let mut d = fresh();
        check(d.call(Syscall::Mkdir { path: "/d".into() }) == SysReply::Ok);
        let create = |d: &mut Driver, path: String| {
            let flags = OpenFlags::RDWR_CREATE;
            let (reply, calls) = d.counted(c, Syscall::Open { path, flags });
            let SysReply::Desc(fd) = reply else {
                panic!("open failed: {reply:?}")
            };
            check(d.call(Syscall::Close { fd }) == SysReply::Ok);
            calls
        };
        for i in 1..entries {
            create(&mut d, format!("/d/resident-{i:04}"));
        }
        let (mut created, mut unlinked) = (Vec::new(), Vec::new());
        let name = "/d/the-file-that-comes-and-goes";
        for i in 0..warm + counted {
            let calls = create(&mut d, name.to_string());
            let (reply, unlink) = d.counted(c, Syscall::Unlink { path: name.into() });
            check(reply == SysReply::Ok);
            if i >= warm {
                created.extend(calls);
                unlinked.extend(unlink);
            }
        }
        dirs.push((entries, created, unlinked));
    }

    c.push(
        "stores/single_call_wrong_replies".into(),
        wrong.get(),
        Want::Eq(0),
    );
    c.push_allocs(
        "stores/getpid_allocs_min".into(),
        getpid.iter().min().copied(),
        Want::Eq(1),
    );
    c.push_allocs(
        "stores/getpid_allocs_max".into(),
        getpid.iter().max().copied(),
        Want::Eq(1),
    );
    let name = "stores/cached_4k_read_allocs_max".to_string();
    c.push_allocs(name, read.iter().max().copied(), Want::AtMost(2));
    for (entries, created, unlinked) in dirs {
        let name = format!("stores/create_in_{entries}_allocs_max");
        c.push_allocs(name, created.iter().max().copied(), Want::AtMost(3));
        let name = format!("stores/unlink_in_{entries}_allocs_max");
        c.push_allocs(name, unlinked.iter().max().copied(), Want::AtMost(2));
    }
}

/// Opens the two files, runs two batches to create the blocks and warm
/// every table and journal arena, then counts a third. Returns the error
/// replies of all three and the allocator calls of the third.
fn warm_batch(c: &Checks, cfg: OsConfig) -> (u64, Option<u64>) {
    let mut d = Driver {
        os: Os::new(cfg),
        next_sid: 0,
    };
    let fds: Vec<Fd> = ["/tmp/gate-a", "/tmp/gate-b"]
        .into_iter()
        .map(|path| {
            let flags = OpenFlags::RDWR_CREATE;
            match d.call(Syscall::Open {
                path: path.into(),
                flags,
            }) {
                SysReply::Desc(fd) => fd,
                other => panic!("open {path}: {other:?}"),
            }
        })
        .collect();
    let errors = d.run(batch(&fds, 1)) + d.run(batch(&fds, 2));
    let calls = batch(&fds, 3);
    let (counted_errors, allocs) = c.counted(|| d.run(calls));
    (errors + counted_errors, allocs)
}

/// Fills a file of three times the cache, overwrites it once to warm every
/// table and journal arena, then overwrites it [`COUNTED_PASSES`] more
/// times with block-aligned 4 KiB writes, letting the disk finish the
/// write-backs after each. Returns the error replies and the allocator
/// calls of each counted write (none without a counter).
fn overwrites(c: &Checks, cfg: OsConfig) -> (u64, Vec<u64>) {
    const LEN: usize = 4096;
    let mut d = Driver {
        os: Os::new(cfg),
        next_sid: 0,
    };
    let (path, flags) = ("/tmp/overwrite".to_string(), OpenFlags::RDWR_CREATE);
    let SysReply::Desc(fd) = d.call(Syscall::Open { path, flags }) else {
        panic!("open /tmp/overwrite failed")
    };
    let (mut errors, mut counted) = (0, Vec::new());
    for pass in 0..2 + COUNTED_PASSES {
        let from = SeekFrom::Start(0);
        errors += d.run(vec![Syscall::Seek { fd, from }]);
        for i in 0..FILE_BYTES / LEN {
            let bytes = vec![pass as u8 ^ i as u8; LEN];
            let (reply, calls) = d.counted(c, Syscall::Write { fd, bytes });
            errors += u64::from(reply != SysReply::Val(LEN as i64));
            d.settle(cost::DISK_LATENCY);
            if pass >= 2 {
                counted.extend(calls);
            }
        }
    }
    (errors, counted)
}
