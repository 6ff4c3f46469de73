//! The prototype test suite.
//!
//! The paper's recovery and survivability experiments use "a homegrown set
//! of 89 programs in total, written to maximize code coverage in the system
//! servers" (§VI). This module is that suite's analog: several dozen small,
//! genuinely distinct programs exercising every server subsystem — process
//! lifecycle, signals, sleeping, memory, files, directories, pipes, the data
//! store, descriptor inheritance, cleanup-on-exit and cross-server
//! interactions.
//!
//! Each test returns `0` on success and nonzero on failure, and treats
//! *every* error — including `ECRASH` from a recovered server — as a test
//! failure rather than a reason to wedge, matching the paper's outcome
//! classification ("fail" = suite completed with failures, system alive).

use crate::{ProgramRegistry, Sys};
use osiris_kernel::abi::{Errno, OpenFlags, SeekFrom, Signal};

type TestFn = fn(&mut Sys) -> Result<(), Errno>;

fn check(cond: bool) -> Result<(), Errno> {
    if cond {
        Ok(())
    } else {
        Err(Errno::EINVAL)
    }
}

/// Registers one Result-returning test under `name`.
fn reg(
    registry: &mut ProgramRegistry,
    names: &mut Vec<&'static str>,
    name: &'static str,
    f: TestFn,
) {
    registry.register(name, move |sys| match f(sys) {
        Ok(()) => 0,
        Err(_) => 1,
    });
    names.push(name);
}

// --------------------------------------------------------------------
// Process management
// --------------------------------------------------------------------

fn t_getpid(sys: &mut Sys) -> Result<(), Errno> {
    let a = sys.getpid()?;
    let b = sys.getpid()?;
    check(a == b && a == sys.pid())
}

fn t_getppid(sys: &mut Sys) -> Result<(), Errno> {
    let me = sys.getpid()?;
    let child = sys.fork_run(move |c| match c.getppid() {
        Ok(p) if p == me => 0,
        _ => 1,
    })?;
    check(sys.waitpid(child)? == 0)
}

fn t_spawn_basic(sys: &mut Sys) -> Result<(), Errno> {
    let child = sys.spawn("helper_ok", &[])?;
    check(sys.waitpid(child)? == 42)
}

fn t_spawn_args(sys: &mut Sys) -> Result<(), Errno> {
    let child = sys.spawn("helper_argc", &["x", "y", "z"])?;
    check(sys.waitpid(child)? == 3)
}

fn t_spawn_missing(sys: &mut Sys) -> Result<(), Errno> {
    check(sys.spawn("no_such_program", &[]) == Err(Errno::ENOENT))
}

fn t_spawn_many(sys: &mut Sys) -> Result<(), Errno> {
    let mut pids = Vec::new();
    for _ in 0..8 {
        pids.push(sys.spawn("helper_ok", &[])?);
    }
    for pid in pids {
        check(sys.waitpid(pid)? == 42)?;
    }
    Ok(())
}

fn t_fork_basic(sys: &mut Sys) -> Result<(), Errno> {
    let child = sys.fork_run(|_c| 5)?;
    check(sys.waitpid(child)? == 5)
}

fn t_fork_nested(sys: &mut Sys) -> Result<(), Errno> {
    let child = sys.fork_run(|c| {
        let gc = match c.fork_run(|_g| 3) {
            Ok(p) => p,
            Err(_) => return 1,
        };
        match c.waitpid(gc) {
            Ok(3) => 0,
            _ => 1,
        }
    })?;
    check(sys.waitpid(child)? == 0)
}

fn t_exec_basic(sys: &mut Sys) -> Result<(), Errno> {
    let child = sys.fork_run(|c| match c.exec("helper_ok", &[]) {
        Err(_) => 1,
        Ok(never) => match never {},
    })?;
    check(sys.waitpid(child)? == 42)
}

fn t_exec_chain(sys: &mut Sys) -> Result<(), Errno> {
    let child = sys.fork_run(|c| match c.exec("helper_exec_mid", &[]) {
        Err(_) => 1,
        Ok(never) => match never {},
    })?;
    check(sys.waitpid(child)? == 42)
}

fn t_wait_any_order(sys: &mut Sys) -> Result<(), Errno> {
    let a = sys.fork_run(|_| 1)?;
    let b = sys.fork_run(|_| 2)?;
    let mut seen = [false; 3];
    for _ in 0..2 {
        let (pid, code) = sys.wait_any()?;
        check(pid == a || pid == b)?;
        seen[code as usize] = true;
    }
    check(seen[1] && seen[2])
}

fn t_wait_specific(sys: &mut Sys) -> Result<(), Errno> {
    let a = sys.fork_run(|_| 10)?;
    let b = sys.fork_run(|_| 20)?;
    // Wait for the second child first.
    check(sys.waitpid(b)? == 20)?;
    check(sys.waitpid(a)? == 10)
}

fn t_wait_echild(sys: &mut Sys) -> Result<(), Errno> {
    check(sys.wait_any() == Err(Errno::ECHILD))
}

fn t_wait_not_my_child(sys: &mut Sys) -> Result<(), Errno> {
    check(sys.waitpid(osiris_kernel::abi::Pid(4096)) == Err(Errno::ECHILD))
}

fn t_zombie_reap(sys: &mut Sys) -> Result<(), Errno> {
    let child = sys.fork_run(|_| 7)?;
    // Give the child time to exit and become a zombie before waiting.
    sys.sleep(1000)?;
    check(sys.waitpid(child)? == 7)
}

fn t_exit_codes(sys: &mut Sys) -> Result<(), Errno> {
    for code in [0, 1, 77, 126] {
        let child = sys.fork_run(move |_| code)?;
        check(sys.waitpid(child)? == code)?;
    }
    Ok(())
}

fn t_orphan_reparent(sys: &mut Sys) -> Result<(), Errno> {
    // Child spawns a grandchild and exits immediately; the grandchild is
    // reparented to init. We only verify the child's side completes and the
    // whole system stays consistent (the audit catches leaks).
    let child = sys.fork_run(|c| {
        match c.fork_run(|g| {
            let _ = g.sleep(500);
            match g.getppid() {
                Ok(p) if p.0 == 1 => 0,
                _ => 1,
            }
        }) {
            Ok(_) => 0,
            Err(_) => 1,
        }
    })?;
    check(sys.waitpid(child)? == 0)?;
    sys.sleep(2000)?;
    Ok(())
}

// --------------------------------------------------------------------
// Signals
// --------------------------------------------------------------------

fn t_kill_basic(sys: &mut Sys) -> Result<(), Errno> {
    let child = sys.fork_run(|c| {
        let _ = c.sleep(1_000_000);
        0
    })?;
    sys.kill(child, Signal::SigKill)?;
    check(sys.waitpid(child)? == -9)
}

fn t_sigterm_default(sys: &mut Sys) -> Result<(), Errno> {
    let child = sys.fork_run(|c| {
        let _ = c.sleep(1_000_000);
        0
    })?;
    sys.kill(child, Signal::SigTerm)?;
    check(sys.waitpid(child)? == -9)
}

fn t_sigterm_masked(sys: &mut Sys) -> Result<(), Errno> {
    sys.sigmask(Signal::SigTerm, true)?;
    let me = sys.getpid()?;
    sys.kill(me, Signal::SigTerm)?;
    let pending = sys.sigpending()?;
    sys.sigmask(Signal::SigTerm, false)?;
    check(pending.contains(&Signal::SigTerm))
}

fn t_sigusr_pending(sys: &mut Sys) -> Result<(), Errno> {
    let me = sys.getpid()?;
    sys.kill(me, Signal::SigUsr1)?;
    sys.kill(me, Signal::SigUsr2)?;
    sys.kill(me, Signal::SigUsr1)?;
    let pending = sys.sigpending()?;
    check(pending.contains(&Signal::SigUsr1) && pending.contains(&Signal::SigUsr2))?;
    check(sys.sigpending()?.is_empty())
}

fn t_sigmask_invalid(sys: &mut Sys) -> Result<(), Errno> {
    check(sys.sigmask(Signal::SigKill, true) == Err(Errno::EINVAL))
}

fn t_kill_esrch(sys: &mut Sys) -> Result<(), Errno> {
    check(sys.kill(osiris_kernel::abi::Pid(4097), Signal::SigKill) == Err(Errno::ESRCH))
}

fn t_sleep_basic(sys: &mut Sys) -> Result<(), Errno> {
    sys.sleep(100)?;
    sys.sleep(1)?;
    Ok(())
}

fn t_sleep_kill(sys: &mut Sys) -> Result<(), Errno> {
    let child = sys.fork_run(|c| {
        let _ = c.sleep(10_000_000);
        3
    })?;
    sys.sleep(100)?;
    sys.kill(child, Signal::SigKill)?;
    check(sys.waitpid(child)? == -9)
}

// --------------------------------------------------------------------
// Memory
// --------------------------------------------------------------------

fn t_brk_grow_shrink(sys: &mut Sys) -> Result<(), Errno> {
    let base = sys.vmstat()?;
    sys.brk(8)?;
    check(sys.vmstat()? == base + 8)?;
    sys.brk(-8)?;
    check(sys.vmstat()? == base)
}

fn t_brk_invalid(sys: &mut Sys) -> Result<(), Errno> {
    check(sys.brk(-1_000_000) == Err(Errno::EINVAL))
}

fn t_mmap_munmap(sys: &mut Sys) -> Result<(), Errno> {
    let before = sys.vmstat()?;
    let a = sys.mmap(4)?;
    let b = sys.mmap(6)?;
    check(sys.vmstat()? == before + 10)?;
    sys.munmap(a)?;
    check(sys.vmstat()? == before + 6)?;
    sys.munmap(b)?;
    check(sys.vmstat()? == before)
}

fn t_munmap_invalid(sys: &mut Sys) -> Result<(), Errno> {
    check(sys.munmap(99_999) == Err(Errno::EINVAL))?;
    check(sys.mmap(0) == Err(Errno::EINVAL))
}

fn t_vmstat_fork(sys: &mut Sys) -> Result<(), Errno> {
    sys.brk(3)?;
    let mine = sys.vmstat()?;
    let child = sys.fork_run(move |c| match c.vmstat() {
        Ok(r) if r == mine => 0,
        _ => 1,
    })?;
    let r = sys.waitpid(child)?;
    sys.brk(-3)?;
    check(r == 0)
}

fn t_mmap_large(sys: &mut Sys) -> Result<(), Errno> {
    let id = sys.mmap(512)?;
    check(sys.vmstat()? >= 512)?;
    sys.munmap(id)?;
    Ok(())
}

// --------------------------------------------------------------------
// Files
// --------------------------------------------------------------------

fn t_create_write_read(sys: &mut Sys) -> Result<(), Errno> {
    let fd = sys.open("/tmp/t_cwr", OpenFlags::CREATE)?;
    check(sys.write(fd, b"payload")? == 7)?;
    sys.close(fd)?;
    let fd = sys.open("/tmp/t_cwr", OpenFlags::RDONLY)?;
    let data = sys.read(fd, 32)?;
    sys.close(fd)?;
    sys.unlink("/tmp/t_cwr")?;
    check(data == b"payload")
}

fn t_read_eof(sys: &mut Sys) -> Result<(), Errno> {
    let fd = sys.open("/tmp/t_eof", OpenFlags::CREATE)?;
    sys.write(fd, b"ab")?;
    sys.seek(fd, SeekFrom::Start(0))?;
    let fd2 = sys.open("/tmp/t_eof", OpenFlags::RDONLY)?;
    check(sys.read(fd2, 10)? == b"ab")?;
    check(sys.read(fd2, 10)?.is_empty())?;
    sys.close(fd2)?;
    sys.close(fd)?;
    sys.unlink("/tmp/t_eof")
}

fn t_open_enoent(sys: &mut Sys) -> Result<(), Errno> {
    check(sys.open("/tmp/never_created", OpenFlags::RDONLY) == Err(Errno::ENOENT))?;
    check(sys.open("/no_dir/x", OpenFlags::CREATE) == Err(Errno::ENOENT))
}

fn t_open_truncate(sys: &mut Sys) -> Result<(), Errno> {
    let fd = sys.open("/tmp/t_trunc", OpenFlags::CREATE)?;
    sys.write(fd, b"0123456789")?;
    sys.close(fd)?;
    let fd = sys.open("/tmp/t_trunc", OpenFlags::CREATE)?; // truncates
    sys.close(fd)?;
    let st = sys.stat("/tmp/t_trunc")?;
    sys.unlink("/tmp/t_trunc")?;
    check(st.size == 0)
}

fn t_append(sys: &mut Sys) -> Result<(), Errno> {
    let fd = sys.open("/tmp/t_app", OpenFlags::CREATE)?;
    sys.write(fd, b"aaa")?;
    sys.close(fd)?;
    let fd = sys.open("/tmp/t_app", OpenFlags::APPEND)?;
    sys.write(fd, b"bbb")?;
    sys.close(fd)?;
    let fd = sys.open("/tmp/t_app", OpenFlags::RDONLY)?;
    let data = sys.read(fd, 16)?;
    sys.close(fd)?;
    sys.unlink("/tmp/t_app")?;
    check(data == b"aaabbb")
}

fn t_seek_all(sys: &mut Sys) -> Result<(), Errno> {
    let fd = sys.open("/tmp/t_seek", OpenFlags::RDWR_CREATE)?;
    sys.write(fd, b"0123456789")?;
    check(sys.seek(fd, SeekFrom::Start(4))? == 4)?;
    check(sys.read(fd, 2)? == b"45")?;
    check(sys.seek(fd, SeekFrom::Current(-3))? == 3)?;
    check(sys.seek(fd, SeekFrom::End(-1))? == 9)?;
    check(sys.read(fd, 5)? == b"9")?;
    sys.close(fd)?;
    sys.unlink("/tmp/t_seek")
}

fn t_seek_invalid(sys: &mut Sys) -> Result<(), Errno> {
    let fd = sys.open("/tmp/t_seekbad", OpenFlags::CREATE)?;
    let r = sys.seek(fd, SeekFrom::Current(-5));
    sys.close(fd)?;
    sys.unlink("/tmp/t_seekbad")?;
    check(r == Err(Errno::EINVAL))
}

fn t_sparse(sys: &mut Sys) -> Result<(), Errno> {
    let fd = sys.open("/tmp/t_sparse", OpenFlags::RDWR_CREATE)?;
    sys.seek(fd, SeekFrom::Start(3000))?;
    sys.write(fd, b"end")?;
    sys.seek(fd, SeekFrom::Start(1000))?;
    let mid = sys.read(fd, 8)?;
    sys.close(fd)?;
    sys.unlink("/tmp/t_sparse")?;
    check(mid == vec![0u8; 8])
}

fn t_mkdir_basic(sys: &mut Sys) -> Result<(), Errno> {
    sys.mkdir("/tmp/t_d1")?;
    check(sys.stat("/tmp/t_d1")?.is_dir)
}

fn t_mkdir_eexist(sys: &mut Sys) -> Result<(), Errno> {
    sys.mkdir("/tmp/t_d2")?;
    check(sys.mkdir("/tmp/t_d2") == Err(Errno::EEXIST))
}

fn t_mkdir_nested(sys: &mut Sys) -> Result<(), Errno> {
    sys.mkdir("/tmp/t_d3")?;
    sys.mkdir("/tmp/t_d3/sub")?;
    let fd = sys.open("/tmp/t_d3/sub/f", OpenFlags::CREATE)?;
    sys.close(fd)?;
    let entries = sys.readdir("/tmp/t_d3/sub")?;
    sys.unlink("/tmp/t_d3/sub/f")?;
    check(entries == vec!["f"])
}

fn t_readdir_root(sys: &mut Sys) -> Result<(), Errno> {
    let entries = sys.readdir("/")?;
    check(entries.contains(&"tmp".to_string()) && entries.contains(&"bin".to_string()))
}

fn t_readdir_on_file(sys: &mut Sys) -> Result<(), Errno> {
    let fd = sys.open("/tmp/t_rdf", OpenFlags::CREATE)?;
    sys.close(fd)?;
    let r = sys.readdir("/tmp/t_rdf");
    sys.unlink("/tmp/t_rdf")?;
    check(r == Err(Errno::ENOTDIR))
}

fn t_stat_file_dir(sys: &mut Sys) -> Result<(), Errno> {
    let fd = sys.open("/tmp/t_stat", OpenFlags::CREATE)?;
    sys.write(fd, &[9u8; 123])?;
    sys.close(fd)?;
    let st = sys.stat("/tmp/t_stat")?;
    check(st.size == 123 && !st.is_dir)?;
    check(sys.stat("/tmp")?.is_dir)?;
    sys.unlink("/tmp/t_stat")?;
    check(sys.stat("/tmp/t_stat") == Err(Errno::ENOENT))
}

fn t_unlink_enoent(sys: &mut Sys) -> Result<(), Errno> {
    check(sys.unlink("/tmp/ghost") == Err(Errno::ENOENT))
}

fn t_unlink_busy(sys: &mut Sys) -> Result<(), Errno> {
    let fd = sys.open("/tmp/t_busy", OpenFlags::CREATE)?;
    let r = sys.unlink("/tmp/t_busy");
    sys.close(fd)?;
    sys.unlink("/tmp/t_busy")?;
    check(r == Err(Errno::EBUSY))
}

fn t_rename(sys: &mut Sys) -> Result<(), Errno> {
    let fd = sys.open("/tmp/t_rn_a", OpenFlags::CREATE)?;
    sys.write(fd, b"move me")?;
    sys.close(fd)?;
    sys.rename("/tmp/t_rn_a", "/tmp/t_rn_b")?;
    check(sys.stat("/tmp/t_rn_a") == Err(Errno::ENOENT))?;
    let st = sys.stat("/tmp/t_rn_b")?;
    sys.unlink("/tmp/t_rn_b")?;
    check(st.size == 7)
}

fn t_rename_missing(sys: &mut Sys) -> Result<(), Errno> {
    check(sys.rename("/tmp/no_src", "/tmp/no_dst") == Err(Errno::ENOENT))
}

fn t_bigfile(sys: &mut Sys) -> Result<(), Errno> {
    let fd = sys.open("/tmp/t_big", OpenFlags::RDWR_CREATE)?;
    let chunk = [0x5au8; 4096];
    for _ in 0..16 {
        sys.write(fd, &chunk)?;
    }
    sys.seek(fd, SeekFrom::Start(0))?;
    let mut total = 0;
    loop {
        let d = sys.read(fd, 4096)?;
        if d.is_empty() {
            break;
        }
        check(d.iter().all(|b| *b == 0x5a))?;
        total += d.len();
    }
    sys.close(fd)?;
    sys.unlink("/tmp/t_big")?;
    check(total == 16 * 4096)
}

fn t_fsync(sys: &mut Sys) -> Result<(), Errno> {
    let fd = sys.open("/tmp/t_sync", OpenFlags::CREATE)?;
    sys.write(fd, &[1u8; 2048])?;
    sys.fsync(fd)?;
    sys.close(fd)?;
    sys.unlink("/tmp/t_sync")
}

fn t_many_files(sys: &mut Sys) -> Result<(), Errno> {
    sys.mkdir("/tmp/t_many")?;
    for i in 0..20 {
        let path = format!("/tmp/t_many/f{}", i);
        let fd = sys.open(&path, OpenFlags::CREATE)?;
        sys.write(fd, path.as_bytes())?;
        sys.close(fd)?;
    }
    check(sys.readdir("/tmp/t_many")?.len() == 20)?;
    for i in 0..20 {
        sys.unlink(&format!("/tmp/t_many/f{}", i))?;
    }
    check(sys.readdir("/tmp/t_many")?.is_empty())
}

fn t_dup_offset(sys: &mut Sys) -> Result<(), Errno> {
    let fd = sys.open("/tmp/t_dup", OpenFlags::RDWR_CREATE)?;
    sys.write(fd, b"abcd")?;
    let fd2 = sys.dup(fd)?;
    sys.seek(fd, SeekFrom::Start(1))?;
    let d = sys.read(fd2, 2)?;
    sys.close(fd)?;
    sys.close(fd2)?;
    sys.unlink("/tmp/t_dup")?;
    check(d == b"bc")
}

fn t_emfile(sys: &mut Sys) -> Result<(), Errno> {
    let mut fds = Vec::new();
    let mut hit_limit = false;
    for i in 0..70 {
        match sys.open(&format!("/tmp/t_fd{}", i), OpenFlags::CREATE) {
            Ok(fd) => fds.push((i, fd)),
            Err(Errno::EMFILE) => {
                hit_limit = true;
                break;
            }
            Err(e) => return Err(e),
        }
    }
    for (i, fd) in &fds {
        sys.close(*fd)?;
        sys.unlink(&format!("/tmp/t_fd{}", i))?;
    }
    check(hit_limit)
}

// --------------------------------------------------------------------
// Pipes
// --------------------------------------------------------------------

fn t_pipe_basic(sys: &mut Sys) -> Result<(), Errno> {
    let (r, w) = sys.pipe()?;
    sys.write(w, b"through")?;
    let d = sys.read(r, 16)?;
    sys.close(r)?;
    sys.close(w)?;
    check(d == b"through")
}

fn t_pipe_eof(sys: &mut Sys) -> Result<(), Errno> {
    let (r, w) = sys.pipe()?;
    sys.write(w, b"x")?;
    sys.close(w)?;
    check(sys.read(r, 4)? == b"x")?;
    check(sys.read(r, 4)?.is_empty())?;
    sys.close(r)
}

fn t_pipe_epipe(sys: &mut Sys) -> Result<(), Errno> {
    let (r, w) = sys.pipe()?;
    sys.close(r)?;
    let res = sys.write(w, b"x");
    sys.close(w)?;
    check(res == Err(Errno::EPIPE))
}

fn t_pipe_blocking(sys: &mut Sys) -> Result<(), Errno> {
    let (r, w) = sys.pipe()?;
    let child = sys.fork_run(move |c| {
        let _ = c.close(w);
        match c.read(r, 8) {
            Ok(d) if d == b"data" => 0,
            _ => 1,
        }
    })?;
    sys.write(w, b"data")?;
    let code = sys.waitpid(child)?;
    sys.close(r)?;
    sys.close(w)?;
    check(code == 0)
}

fn t_pipe_pingpong(sys: &mut Sys) -> Result<(), Errno> {
    let (r1, w1) = sys.pipe()?;
    let (r2, w2) = sys.pipe()?;
    let child = sys.fork_run(move |c| {
        for _ in 0..10 {
            let d = match c.read(r1, 1) {
                Ok(d) if !d.is_empty() => d,
                _ => return 1,
            };
            if c.write(w2, &d).is_err() {
                return 1;
            }
        }
        0
    })?;
    for i in 0..10u8 {
        sys.write(w1, &[i])?;
        let back = sys.read(r2, 1)?;
        check(back == vec![i])?;
    }
    check(sys.waitpid(child)? == 0)?;
    for fd in [r1, w1, r2, w2] {
        sys.close(fd)?;
    }
    Ok(())
}

fn t_pipe_chunks(sys: &mut Sys) -> Result<(), Errno> {
    let (r, w) = sys.pipe()?;
    let payload = vec![7u8; 8192];
    let child = sys.fork_run(move |c| {
        // Close the inherited write end, or EOF never arrives.
        if c.close(w).is_err() {
            return 1;
        }
        let mut total = 0usize;
        loop {
            match c.read(r, 1024) {
                Ok(d) if d.is_empty() => break,
                Ok(d) => total += d.len(),
                Err(_) => return 1,
            }
        }
        i32::from(total != 8192)
    })?;
    for chunk in payload.chunks(1024) {
        sys.write(w, chunk)?;
    }
    sys.close(w)?;
    sys.close(r)?;
    check(sys.waitpid(child)? == 0)
}

fn t_pipe_dup_ends(sys: &mut Sys) -> Result<(), Errno> {
    let (r, w) = sys.pipe()?;
    let w2 = sys.dup(w)?;
    sys.close(w)?;
    // The duplicated writer keeps the pipe alive.
    sys.write(w2, b"dup")?;
    check(sys.read(r, 8)? == b"dup")?;
    sys.close(w2)?;
    check(sys.read(r, 8)?.is_empty())?;
    sys.close(r)
}

// --------------------------------------------------------------------
// Data store
// --------------------------------------------------------------------

fn t_ds_put_get(sys: &mut Sys) -> Result<(), Errno> {
    sys.ds_put("t/basic", b"value-1")?;
    check(sys.ds_get("t/basic")? == b"value-1")
}

fn t_ds_del(sys: &mut Sys) -> Result<(), Errno> {
    sys.ds_put("t/del", b"x")?;
    sys.ds_del("t/del")?;
    check(sys.ds_get("t/del") == Err(Errno::ENOKEY))?;
    check(sys.ds_del("t/del") == Err(Errno::ENOKEY))
}

fn t_ds_list_prefix(sys: &mut Sys) -> Result<(), Errno> {
    sys.ds_put("t/list/a", b"1")?;
    sys.ds_put("t/list/b", b"2")?;
    sys.ds_put("t/other", b"3")?;
    let keys = sys.ds_list("t/list/")?;
    check(keys.len() == 2)
}

fn t_ds_overwrite(sys: &mut Sys) -> Result<(), Errno> {
    sys.ds_put("t/ow", b"old")?;
    sys.ds_put("t/ow", b"new")?;
    check(sys.ds_get("t/ow")? == b"new")
}

fn t_ds_many(sys: &mut Sys) -> Result<(), Errno> {
    for i in 0..50 {
        sys.ds_put(&format!("t/many/{}", i), &[i as u8])?;
    }
    check(sys.ds_list("t/many/")?.len() == 50)?;
    for i in 0..50 {
        sys.ds_del(&format!("t/many/{}", i))?;
    }
    Ok(())
}

// --------------------------------------------------------------------
// Cross-cutting
// --------------------------------------------------------------------

fn t_shell_like(sys: &mut Sys) -> Result<(), Errno> {
    let child = sys.spawn("helper_touch", &["/tmp/t_shell_out"])?;
    check(sys.waitpid(child)? == 0)?;
    check(sys.stat("/tmp/t_shell_out")?.size == 4)?;
    sys.unlink("/tmp/t_shell_out")
}

fn t_fd_cleanup_on_exit(sys: &mut Sys) -> Result<(), Errno> {
    let child = sys.fork_run(|c| {
        // Open files and exit without closing: VFS cleanup must release
        // them.
        let _ = c.open("/tmp/t_leak", OpenFlags::CREATE);
        0
    })?;
    check(sys.waitpid(child)? == 0)?;
    // If cleanup worked the file is no longer busy.
    sys.unlink("/tmp/t_leak")
}

fn t_kill_blocked_reader(sys: &mut Sys) -> Result<(), Errno> {
    let (r, w) = sys.pipe()?;
    let child = sys.fork_run(move |c| {
        let _ = c.read(r, 8); // blocks forever; parent kills us
        0
    })?;
    sys.sleep(100)?;
    sys.kill(child, Signal::SigKill)?;
    check(sys.waitpid(child)? == -9)?;
    sys.close(r)?;
    sys.close(w)?;
    Ok(())
}

fn t_concurrent_disk(sys: &mut Sys) -> Result<(), Errno> {
    // Two children thrash the block cache concurrently, exercising the
    // VFS cooperative threads.
    let mk = |path: &'static str| {
        move |c: &mut Sys| {
            let fd = match c.open(path, OpenFlags::RDWR_CREATE) {
                Ok(fd) => fd,
                Err(_) => return 1,
            };
            let chunk = [3u8; 4096];
            for _ in 0..20 {
                if c.write(fd, &chunk).is_err() {
                    return 1;
                }
            }
            if c.seek(fd, SeekFrom::Start(0)).is_err() {
                return 1;
            }
            let mut total = 0;
            loop {
                match c.read(fd, 4096) {
                    Ok(d) if d.is_empty() => break,
                    Ok(d) => total += d.len(),
                    Err(_) => return 1,
                }
            }
            let _ = c.close(fd);
            let _ = c.unlink(path);
            i32::from(total != 20 * 4096)
        }
    };
    let a = sys.fork_run(mk("/tmp/t_cc_a"))?;
    let b = sys.fork_run(mk("/tmp/t_cc_b"))?;
    check(sys.waitpid(a)? == 0)?;
    check(sys.waitpid(b)? == 0)
}

fn t_exec_load_cache(sys: &mut Sys) -> Result<(), Errno> {
    // The second exec of the same binary hits the VFS block cache.
    for _ in 0..2 {
        let child = sys.fork_run(|c| match c.exec("helper_ok", &[]) {
            Err(_) => 1,
            Ok(never) => match never {},
        })?;
        check(sys.waitpid(child)? == 42)?;
    }
    Ok(())
}

fn t_mixed_stress(sys: &mut Sys) -> Result<(), Errno> {
    sys.ds_put("t/stress", b"begin")?;
    let fd = sys.open("/tmp/t_stress", OpenFlags::RDWR_CREATE)?;
    let child = sys.fork_run(|c| {
        let _ = c.brk(2);
        let me = match c.getpid() {
            Ok(p) => p,
            Err(_) => return 1,
        };
        let _ = c.kill(me, Signal::SigUsr1);
        match c.sigpending() {
            Ok(p) if p.contains(&Signal::SigUsr1) => 0,
            _ => 1,
        }
    })?;
    sys.write(fd, b"stress-data")?;
    check(sys.waitpid(child)? == 0)?;
    sys.seek(fd, SeekFrom::Start(0))?;
    check(sys.read(fd, 16)? == b"stress-data")?;
    sys.close(fd)?;
    sys.unlink("/tmp/t_stress")?;
    sys.ds_del("t/stress")?;
    Ok(())
}

fn t_compute(sys: &mut Sys) -> Result<(), Errno> {
    sys.compute(1000);
    sys.getpid()?;
    sys.compute(1000);
    Ok(())
}

fn t_rename_across_dirs(sys: &mut Sys) -> Result<(), Errno> {
    sys.mkdir("/tmp/t_rsrc")?;
    sys.mkdir("/tmp/t_rdst")?;
    let fd = sys.open("/tmp/t_rsrc/f", OpenFlags::CREATE)?;
    sys.write(fd, b"mv")?;
    sys.close(fd)?;
    sys.rename("/tmp/t_rsrc/f", "/tmp/t_rdst/g")?;
    check(sys.readdir("/tmp/t_rsrc")?.is_empty())?;
    check(sys.stat("/tmp/t_rdst/g")?.size == 2)?;
    sys.unlink("/tmp/t_rdst/g")
}

fn t_rename_onto_existing(sys: &mut Sys) -> Result<(), Errno> {
    for p in ["/tmp/t_re_a", "/tmp/t_re_b"] {
        let fd = sys.open(p, OpenFlags::CREATE)?;
        sys.close(fd)?;
    }
    let r = sys.rename("/tmp/t_re_a", "/tmp/t_re_b");
    sys.unlink("/tmp/t_re_a")?;
    sys.unlink("/tmp/t_re_b")?;
    check(r == Err(Errno::EEXIST))
}

fn t_deep_paths(sys: &mut Sys) -> Result<(), Errno> {
    sys.mkdir("/tmp/t_deep")?;
    sys.mkdir("/tmp/t_deep/a")?;
    sys.mkdir("/tmp/t_deep/a/b")?;
    sys.mkdir("/tmp/t_deep/a/b/c")?;
    let fd = sys.open("/tmp/t_deep/a/b/c/leaf", OpenFlags::CREATE)?;
    sys.write(fd, b"deep")?;
    sys.close(fd)?;
    check(sys.stat("/tmp/t_deep/a/b/c/leaf")?.size == 4)?;
    sys.unlink("/tmp/t_deep/a/b/c/leaf")
}

fn t_stat_nlink(sys: &mut Sys) -> Result<(), Errno> {
    sys.mkdir("/tmp/t_nl")?;
    let before = sys.stat("/tmp/t_nl")?.nlink;
    let fd = sys.open("/tmp/t_nl/x", OpenFlags::CREATE)?;
    sys.close(fd)?;
    let after = sys.stat("/tmp/t_nl")?.nlink;
    sys.unlink("/tmp/t_nl/x")?;
    check(after == before + 1)
}

fn t_mkdir_under_file(sys: &mut Sys) -> Result<(), Errno> {
    let fd = sys.open("/tmp/t_notdir", OpenFlags::CREATE)?;
    sys.close(fd)?;
    let r = sys.mkdir("/tmp/t_notdir/sub");
    sys.unlink("/tmp/t_notdir")?;
    check(r == Err(Errno::ENOTDIR))
}

fn t_write_to_rdonly_fd(sys: &mut Sys) -> Result<(), Errno> {
    let fd = sys.open("/tmp/t_ro", OpenFlags::CREATE)?;
    sys.close(fd)?;
    let fd = sys.open("/tmp/t_ro", OpenFlags::RDONLY)?;
    let r = sys.write(fd, b"nope");
    sys.close(fd)?;
    sys.unlink("/tmp/t_ro")?;
    check(r == Err(Errno::EBADF))
}

fn t_seek_past_eof_then_write(sys: &mut Sys) -> Result<(), Errno> {
    let fd = sys.open("/tmp/t_peof", OpenFlags::RDWR_CREATE)?;
    sys.write(fd, b"head")?;
    sys.seek(fd, SeekFrom::End(100))?;
    sys.write(fd, b"tail")?;
    let st = sys.stat("/tmp/t_peof")?;
    sys.close(fd)?;
    sys.unlink("/tmp/t_peof")?;
    check(st.size == 108)
}

fn t_pipe_two_writers(sys: &mut Sys) -> Result<(), Errno> {
    let (r, w) = sys.pipe()?;
    let c1 = sys.fork_run(move |c| {
        let _ = c.close(r);
        let ok = c.write(w, b"one").is_ok();
        i32::from(!ok)
    })?;
    check(sys.waitpid(c1)? == 0)?;
    let c2 = sys.fork_run(move |c| {
        let _ = c.close(r);
        let ok = c.write(w, b"two").is_ok();
        i32::from(!ok)
    })?;
    check(sys.waitpid(c2)? == 0)?;
    let mut total = Vec::new();
    while total.len() < 6 {
        let d = sys.read(r, 8)?;
        check(!d.is_empty())?;
        total.extend(d);
    }
    sys.close(r)?;
    sys.close(w)?;
    check(total == b"onetwo")
}

fn t_exec_args(sys: &mut Sys) -> Result<(), Errno> {
    let child = sys.fork_run(
        |c| match c.exec("helper_argc", &["1", "2", "3", "4", "5"]) {
            Err(_) => -1,
            Ok(never) => match never {},
        },
    )?;
    check(sys.waitpid(child)? == 5)
}

fn t_sleep_ordering(sys: &mut Sys) -> Result<(), Errno> {
    // Two sleeping children must be reapable in wake order.
    let slow = sys.fork_run(|c| {
        let _ = c.sleep(5000);
        2
    })?;
    let fast = sys.fork_run(|c| {
        let _ = c.sleep(100);
        1
    })?;
    let (first, code1) = sys.wait_any()?;
    check(first == fast && code1 == 1)?;
    let (second, code2) = sys.wait_any()?;
    check(second == slow && code2 == 2)
}

fn t_unmask_keeps_pending(sys: &mut Sys) -> Result<(), Errno> {
    // A masked SIGTERM stays pending; unmasking later does not kill
    // retroactively (delivery here is via sigpending only).
    sys.sigmask(Signal::SigTerm, true)?;
    let me = sys.getpid()?;
    sys.kill(me, Signal::SigTerm)?;
    sys.sigmask(Signal::SigTerm, false)?;
    let pending = sys.sigpending()?;
    check(pending.contains(&Signal::SigTerm))
}

fn t_ds_binary_values(sys: &mut Sys) -> Result<(), Errno> {
    let value: Vec<u8> = (0..=255).collect();
    sys.ds_put("t/bin", &value)?;
    check(sys.ds_get("t/bin")? == value)?;
    sys.ds_del("t/bin")
}

fn t_ds_empty_value(sys: &mut Sys) -> Result<(), Errno> {
    sys.ds_put("t/empty", b"")?;
    check(sys.ds_get("t/empty")?.is_empty())?;
    sys.ds_del("t/empty")
}

fn t_vm_fork_after_munmap(sys: &mut Sys) -> Result<(), Errno> {
    let id = sys.mmap(6)?;
    sys.munmap(id)?;
    let mine = sys.vmstat()?;
    let child = sys.fork_run(move |c| match c.vmstat() {
        Ok(r) if r == mine => 0,
        _ => 1,
    })?;
    check(sys.waitpid(child)? == 0)
}

fn t_fsync_after_eviction(sys: &mut Sys) -> Result<(), Errno> {
    // Write enough to force evictions, then fsync what remains dirty.
    let fd = sys.open("/tmp/t_fse", OpenFlags::RDWR_CREATE)?;
    for _ in 0..96 {
        sys.write(fd, &[7u8; 1024])?;
    }
    sys.fsync(fd)?;
    sys.seek(fd, SeekFrom::Start(0))?;
    let head = sys.read(fd, 16)?;
    sys.close(fd)?;
    sys.unlink("/tmp/t_fse")?;
    check(head == vec![7u8; 16])
}

fn t_readdir_bin(sys: &mut Sys) -> Result<(), Errno> {
    check(sys.readdir("/bin")?.is_empty())
}

fn t_relative_path_rejected(sys: &mut Sys) -> Result<(), Errno> {
    check(sys.open("not/absolute", OpenFlags::CREATE) == Err(Errno::EINVAL))?;
    check(sys.stat("") == Err(Errno::EINVAL))
}

/// Registers every test program plus the helpers and the `suite` driver.
/// Returns the registry and the ordered list of test names.
pub fn build_testsuite() -> (ProgramRegistry, Vec<&'static str>) {
    let mut registry = ProgramRegistry::new();
    let mut names = Vec::new();

    // Helper programs used by tests.
    registry.register("helper_ok", |_sys| 42);
    registry.register("helper_argc", |sys| sys.args().len() as i32);
    registry.register("helper_exec_mid", |sys| match sys.exec("helper_ok", &[]) {
        Err(_) => 1,
        Ok(never) => match never {},
    });
    registry.register("helper_touch", |sys| {
        let Some(path) = sys.args().first().cloned() else {
            return 1;
        };
        match sys.open(&path, OpenFlags::CREATE) {
            Ok(fd) => {
                let ok = sys.write(fd, b"data").is_ok();
                let _ = sys.close(fd);
                i32::from(!ok)
            }
            Err(_) => 1,
        }
    });

    reg(&mut registry, &mut names, "t_getpid", t_getpid);
    reg(&mut registry, &mut names, "t_getppid", t_getppid);
    reg(&mut registry, &mut names, "t_spawn_basic", t_spawn_basic);
    reg(&mut registry, &mut names, "t_spawn_args", t_spawn_args);
    reg(
        &mut registry,
        &mut names,
        "t_spawn_missing",
        t_spawn_missing,
    );
    reg(&mut registry, &mut names, "t_spawn_many", t_spawn_many);
    reg(&mut registry, &mut names, "t_fork_basic", t_fork_basic);
    reg(&mut registry, &mut names, "t_fork_nested", t_fork_nested);
    reg(&mut registry, &mut names, "t_exec_basic", t_exec_basic);
    reg(&mut registry, &mut names, "t_exec_chain", t_exec_chain);
    reg(
        &mut registry,
        &mut names,
        "t_wait_any_order",
        t_wait_any_order,
    );
    reg(
        &mut registry,
        &mut names,
        "t_wait_specific",
        t_wait_specific,
    );
    reg(&mut registry, &mut names, "t_wait_echild", t_wait_echild);
    reg(
        &mut registry,
        &mut names,
        "t_wait_not_my_child",
        t_wait_not_my_child,
    );
    reg(&mut registry, &mut names, "t_zombie_reap", t_zombie_reap);
    reg(&mut registry, &mut names, "t_exit_codes", t_exit_codes);
    reg(
        &mut registry,
        &mut names,
        "t_orphan_reparent",
        t_orphan_reparent,
    );
    reg(&mut registry, &mut names, "t_kill_basic", t_kill_basic);
    reg(
        &mut registry,
        &mut names,
        "t_sigterm_default",
        t_sigterm_default,
    );
    reg(
        &mut registry,
        &mut names,
        "t_sigterm_masked",
        t_sigterm_masked,
    );
    reg(
        &mut registry,
        &mut names,
        "t_sigusr_pending",
        t_sigusr_pending,
    );
    reg(
        &mut registry,
        &mut names,
        "t_sigmask_invalid",
        t_sigmask_invalid,
    );
    reg(&mut registry, &mut names, "t_kill_esrch", t_kill_esrch);
    reg(&mut registry, &mut names, "t_sleep_basic", t_sleep_basic);
    reg(&mut registry, &mut names, "t_sleep_kill", t_sleep_kill);
    reg(
        &mut registry,
        &mut names,
        "t_brk_grow_shrink",
        t_brk_grow_shrink,
    );
    reg(&mut registry, &mut names, "t_brk_invalid", t_brk_invalid);
    reg(&mut registry, &mut names, "t_mmap_munmap", t_mmap_munmap);
    reg(
        &mut registry,
        &mut names,
        "t_munmap_invalid",
        t_munmap_invalid,
    );
    reg(&mut registry, &mut names, "t_vmstat_fork", t_vmstat_fork);
    reg(&mut registry, &mut names, "t_mmap_large", t_mmap_large);
    reg(
        &mut registry,
        &mut names,
        "t_create_write_read",
        t_create_write_read,
    );
    reg(&mut registry, &mut names, "t_read_eof", t_read_eof);
    reg(&mut registry, &mut names, "t_open_enoent", t_open_enoent);
    reg(
        &mut registry,
        &mut names,
        "t_open_truncate",
        t_open_truncate,
    );
    reg(&mut registry, &mut names, "t_append", t_append);
    reg(&mut registry, &mut names, "t_seek_all", t_seek_all);
    reg(&mut registry, &mut names, "t_seek_invalid", t_seek_invalid);
    reg(&mut registry, &mut names, "t_sparse", t_sparse);
    reg(&mut registry, &mut names, "t_mkdir_basic", t_mkdir_basic);
    reg(&mut registry, &mut names, "t_mkdir_eexist", t_mkdir_eexist);
    reg(&mut registry, &mut names, "t_mkdir_nested", t_mkdir_nested);
    reg(&mut registry, &mut names, "t_readdir_root", t_readdir_root);
    reg(
        &mut registry,
        &mut names,
        "t_readdir_on_file",
        t_readdir_on_file,
    );
    reg(
        &mut registry,
        &mut names,
        "t_stat_file_dir",
        t_stat_file_dir,
    );
    reg(
        &mut registry,
        &mut names,
        "t_unlink_enoent",
        t_unlink_enoent,
    );
    reg(&mut registry, &mut names, "t_unlink_busy", t_unlink_busy);
    reg(&mut registry, &mut names, "t_rename", t_rename);
    reg(
        &mut registry,
        &mut names,
        "t_rename_missing",
        t_rename_missing,
    );
    reg(&mut registry, &mut names, "t_bigfile", t_bigfile);
    reg(&mut registry, &mut names, "t_fsync", t_fsync);
    reg(&mut registry, &mut names, "t_many_files", t_many_files);
    reg(&mut registry, &mut names, "t_dup_offset", t_dup_offset);
    reg(&mut registry, &mut names, "t_emfile", t_emfile);
    reg(&mut registry, &mut names, "t_pipe_basic", t_pipe_basic);
    reg(&mut registry, &mut names, "t_pipe_eof", t_pipe_eof);
    reg(&mut registry, &mut names, "t_pipe_epipe", t_pipe_epipe);
    reg(
        &mut registry,
        &mut names,
        "t_pipe_blocking",
        t_pipe_blocking,
    );
    reg(
        &mut registry,
        &mut names,
        "t_pipe_pingpong",
        t_pipe_pingpong,
    );
    reg(&mut registry, &mut names, "t_pipe_chunks", t_pipe_chunks);
    reg(
        &mut registry,
        &mut names,
        "t_pipe_dup_ends",
        t_pipe_dup_ends,
    );
    reg(&mut registry, &mut names, "t_ds_put_get", t_ds_put_get);
    reg(&mut registry, &mut names, "t_ds_del", t_ds_del);
    reg(
        &mut registry,
        &mut names,
        "t_ds_list_prefix",
        t_ds_list_prefix,
    );
    reg(&mut registry, &mut names, "t_ds_overwrite", t_ds_overwrite);
    reg(&mut registry, &mut names, "t_ds_many", t_ds_many);
    reg(&mut registry, &mut names, "t_shell_like", t_shell_like);
    reg(
        &mut registry,
        &mut names,
        "t_fd_cleanup_on_exit",
        t_fd_cleanup_on_exit,
    );
    reg(
        &mut registry,
        &mut names,
        "t_kill_blocked_reader",
        t_kill_blocked_reader,
    );
    reg(
        &mut registry,
        &mut names,
        "t_concurrent_disk",
        t_concurrent_disk,
    );
    reg(
        &mut registry,
        &mut names,
        "t_exec_load_cache",
        t_exec_load_cache,
    );
    reg(&mut registry, &mut names, "t_mixed_stress", t_mixed_stress);
    reg(&mut registry, &mut names, "t_compute", t_compute);
    reg(
        &mut registry,
        &mut names,
        "t_rename_across_dirs",
        t_rename_across_dirs,
    );
    reg(
        &mut registry,
        &mut names,
        "t_rename_onto_existing",
        t_rename_onto_existing,
    );
    reg(&mut registry, &mut names, "t_deep_paths", t_deep_paths);
    reg(&mut registry, &mut names, "t_stat_nlink", t_stat_nlink);
    reg(
        &mut registry,
        &mut names,
        "t_mkdir_under_file",
        t_mkdir_under_file,
    );
    reg(
        &mut registry,
        &mut names,
        "t_write_to_rdonly_fd",
        t_write_to_rdonly_fd,
    );
    reg(
        &mut registry,
        &mut names,
        "t_seek_past_eof_then_write",
        t_seek_past_eof_then_write,
    );
    reg(
        &mut registry,
        &mut names,
        "t_pipe_two_writers",
        t_pipe_two_writers,
    );
    reg(&mut registry, &mut names, "t_exec_args", t_exec_args);
    reg(
        &mut registry,
        &mut names,
        "t_sleep_ordering",
        t_sleep_ordering,
    );
    reg(
        &mut registry,
        &mut names,
        "t_unmask_keeps_pending",
        t_unmask_keeps_pending,
    );
    reg(
        &mut registry,
        &mut names,
        "t_ds_binary_values",
        t_ds_binary_values,
    );
    reg(
        &mut registry,
        &mut names,
        "t_ds_empty_value",
        t_ds_empty_value,
    );
    reg(
        &mut registry,
        &mut names,
        "t_vm_fork_after_munmap",
        t_vm_fork_after_munmap,
    );
    reg(
        &mut registry,
        &mut names,
        "t_fsync_after_eviction",
        t_fsync_after_eviction,
    );
    reg(&mut registry, &mut names, "t_readdir_bin", t_readdir_bin);
    reg(
        &mut registry,
        &mut names,
        "t_relative_path_rejected",
        t_relative_path_rejected,
    );

    // The suite driver: runs every test as a child process, counting
    // failures. Exit code = number of failed tests (0 = all passed).
    let list: Vec<&'static str> = names.clone();
    registry.register("suite", move |sys| {
        let mut failed = 0i32;
        for name in &list {
            match sys.spawn(name, &[]) {
                Ok(pid) => match sys.waitpid(pid) {
                    Ok(0) => {}
                    _ => failed += 1,
                },
                Err(_) => failed += 1,
            }
        }
        failed.min(100)
    });

    (registry, names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_many_distinct_tests() {
        let (_, names) = build_testsuite();
        assert!(names.len() >= 89, "only {} tests", names.len());
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate test names");
    }
}
