//! Engine-level tests of the monolith's buffer-cache model: read misses
//! charge disk latency, write misses and hits do not — mirroring the OSIRIS
//! VFS write-back cache so the Table IV comparison is apples-to-apples.

use osiris_kernel::abi::{OpenFlags, Pid, SysReply, Syscall};
use osiris_kernel::{cost, OsEngine, SyscallId};
use osiris_monolith::Monolith;

fn call(m: &mut Monolith, sid: u64, call: Syscall) -> SysReply {
    m.submit(SyscallId(sid), Pid(1), call);
    m.pump().pop().expect("one reply").2
}

#[test]
fn read_misses_charge_latency_hits_do_not() {
    // Cache of 4 blocks over a 16-block file.
    let mut m = Monolith::with_sizes(4, 1024);
    let fd = match call(
        &mut m,
        1,
        Syscall::Open {
            path: "/tmp/c".into(),
            flags: OpenFlags::RDWR_CREATE,
        },
    ) {
        SysReply::Desc(fd) => fd,
        other => panic!("{other:?}"),
    };
    // Writing 16 KiB: no read-miss latency on the write path.
    let before = m.now();
    call(
        &mut m,
        2,
        Syscall::Write {
            fd,
            bytes: vec![1u8; 16 * 1024],
        },
    );
    let write_cost = m.now() - before;
    assert!(
        write_cost < cost::DISK_LATENCY / 8,
        "writes must not pay the read-miss latency: {write_cost}"
    );
    // Seek back and read it all: most blocks were evicted (cache 4 < 16),
    // so the read pays many miss latencies.
    call(
        &mut m,
        3,
        Syscall::Seek {
            fd,
            from: osiris_kernel::abi::SeekFrom::Start(0),
        },
    );
    let before = m.now();
    call(&mut m, 4, Syscall::Read { fd, len: 16 * 1024 });
    let cold_read = m.now() - before;
    assert!(
        cold_read > 10 * (cost::DISK_LATENCY / 8),
        "a cold 16-block read must pay multiple miss latencies: {cold_read}"
    );
    // Immediately re-reading the hot tail is nearly free.
    call(
        &mut m,
        5,
        Syscall::Seek {
            fd,
            from: osiris_kernel::abi::SeekFrom::End(-2048),
        },
    );
    let before = m.now();
    call(&mut m, 6, Syscall::Read { fd, len: 2048 });
    let hot_read = m.now() - before;
    assert!(
        hot_read < cost::DISK_LATENCY / 8,
        "hot blocks must be served from the cache: {hot_read}"
    );
}

#[test]
fn unlink_purges_cached_blocks() {
    let mut m = Monolith::with_sizes(8, 1024);
    let fd = match call(
        &mut m,
        1,
        Syscall::Open {
            path: "/tmp/u".into(),
            flags: OpenFlags::CREATE,
        },
    ) {
        SysReply::Desc(fd) => fd,
        other => panic!("{other:?}"),
    };
    call(
        &mut m,
        2,
        Syscall::Write {
            fd,
            bytes: vec![1u8; 2048],
        },
    );
    call(&mut m, 3, Syscall::Close { fd });
    call(
        &mut m,
        4,
        Syscall::Unlink {
            path: "/tmp/u".into(),
        },
    );
    // Recreating the file and reading it must not see stale cache hits
    // (semantically invisible, but the accounting should re-charge misses).
    let fd = match call(
        &mut m,
        5,
        Syscall::Open {
            path: "/tmp/u".into(),
            flags: OpenFlags::RDWR_CREATE,
        },
    ) {
        SysReply::Desc(fd) => fd,
        other => panic!("{other:?}"),
    };
    call(
        &mut m,
        6,
        Syscall::Write {
            fd,
            bytes: vec![2u8; 2048],
        },
    );
    call(
        &mut m,
        7,
        Syscall::Seek {
            fd,
            from: osiris_kernel::abi::SeekFrom::Start(0),
        },
    );
    match call(&mut m, 8, Syscall::Read { fd, len: 2048 }) {
        SysReply::Data(d) => assert!(d.iter().all(|b| *b == 2)),
        other => panic!("{other:?}"),
    }
}
