//! The "allocs/msg = 0 in steady state" gate, stated end to end: on a warm
//! default `Os` the pump itself never calls the allocator. A syscall costs
//! the reply vector `Os::pump` hands to its caller, plus whatever the
//! reply's payload owns.
//!
//! Debug and release builds allocate differently in places, so `ci.sh` runs
//! this file in both.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use osiris_kernel::abi::{OpenFlags, Pid, SeekFrom, SysReply, Syscall};
use osiris_kernel::{OsEngine, SyscallId};
use osiris_servers::{Os, OsConfig};

thread_local! {
    /// Allocator calls (alloc + realloc) made by this thread; per thread
    /// because the harness runs the tests of one file concurrently.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers to `System` unchanged; the only addition is a bump of a
// const-initialized, destructor-free thread-local, which neither allocates
// nor can observe a torn-down slot.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

struct Driver {
    os: Os,
    next_sid: u64,
}

impl Driver {
    fn new() -> Driver {
        Driver {
            os: Os::new(OsConfig::default()),
            next_sid: 0,
        }
    }

    /// One closed-loop syscall from init: submit, then pump (firing timers
    /// while the reply is outstanding). Returns the reply and the allocator
    /// calls made between submit and the reply's arrival.
    fn call(&mut self, call: Syscall) -> (SysReply, u64) {
        self.next_sid += 1;
        let sid = SyscallId(self.next_sid);
        let before = calls();
        self.os.submit(sid, Pid::INIT, call);
        loop {
            let mut replies = self.os.pump();
            if let Some((s, _, reply)) = replies.pop() {
                let made = calls() - before;
                assert_eq!(s, sid);
                assert!(replies.is_empty());
                return (reply, made);
            }
            assert!(self.os.fire_next_timer(), "syscall {sid:?} never replied");
        }
    }
}

#[test]
fn getpid_costs_exactly_the_reply_vector() {
    let mut d = Driver::new();
    for _ in 0..100 {
        d.call(Syscall::GetPid);
    }
    for i in 0..1000 {
        let (reply, made) = d.call(Syscall::GetPid);
        assert_eq!(reply, SysReply::Proc(Pid::INIT));
        assert_eq!(made, 1, "GetPid #{i}: only the returned reply vector");
    }
}

#[test]
fn cached_4k_read_costs_no_more_than_its_payload() {
    const LEN: usize = 4096;
    let mut d = Driver::new();
    let (reply, _) = d.call(Syscall::Open {
        path: "/pump_allocs".to_string(),
        flags: OpenFlags::RDWR_CREATE,
    });
    let SysReply::Desc(fd) = reply else {
        panic!("open failed: {reply:?}")
    };
    let (reply, _) = d.call(Syscall::Write {
        fd,
        bytes: vec![0xA5; LEN],
    });
    assert_eq!(reply, SysReply::Val(LEN as i64));
    let read = |d: &mut Driver| {
        let (reply, _) = d.call(Syscall::Seek {
            fd,
            from: SeekFrom::Start(0),
        });
        assert_eq!(reply, SysReply::Val(0));
        let (reply, made) = d.call(Syscall::Read {
            fd,
            len: LEN as u32,
        });
        assert_eq!(reply, SysReply::Data(vec![0xA5; LEN]));
        made
    };
    for _ in 0..100 {
        read(&mut d);
    }
    // The reply vector and the payload VFS builds, which moves out of the
    // routed message (`Protocol::into_user_reply`) instead of being copied.
    for i in 0..1000 {
        let made = read(&mut d);
        assert!(made <= 2, "Read #{i}: {made} allocator calls");
    }
}

#[test]
fn create_and_unlink_cost_the_same_in_a_directory_of_any_size() {
    const NAME: &str = "/d/the-file-that-comes-and-goes";
    for entries in [32, 128] {
        let mut d = Driver::new();
        let (reply, _) = d.call(Syscall::Mkdir {
            path: "/d".to_string(),
        });
        assert_eq!(reply, SysReply::Ok);
        let create = |d: &mut Driver, path: String| {
            let flags = OpenFlags::RDWR_CREATE;
            let (reply, made) = d.call(Syscall::Open { path, flags });
            let SysReply::Desc(fd) = reply else {
                panic!("open failed: {reply:?}")
            };
            assert_eq!(d.call(Syscall::Close { fd }).0, SysReply::Ok);
            made
        };
        for i in 1..entries {
            create(&mut d, format!("/d/resident-{i:04}"));
        }
        let pair = |d: &mut Driver| {
            let created = create(d, NAME.to_string());
            let (reply, unlinked) = d.call(Syscall::Unlink {
                path: NAME.to_string(),
            });
            assert_eq!(reply, SysReply::Ok);
            (created, unlinked)
        };
        for _ in 0..100 {
            pair(&mut d);
        }
        // Open: the reply vector, the shared name, and the directory's undo
        // record. Unlink: the reply vector and the undo record. The record
        // is a copy of the whole directory, and one allocation whatever the
        // directory holds.
        for i in 0..1000 {
            let (created, unlinked) = pair(&mut d);
            assert!(
                created <= 3 && unlinked <= 2,
                "pair #{i} among {entries} entries: {created} + {unlinked} allocator calls"
            );
        }
    }
}
