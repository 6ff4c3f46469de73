//! The inter-component protocol of the OSIRIS OS, with SEEP metadata
//! engraved on every payload variant.
//!
//! Classification rationale (paper §III-B, §IV-B):
//!
//! * **Requests that change the receiver's state** (fork an address space,
//!   write a disk block, clean up a process) are `StateModifying`: once such
//!   a message leaves a component, rolling the sender back would orphan the
//!   remote change, so the sender's recovery window must close.
//! * **Read-only queries** (`VmUsage`, `VfsExecLoad`, `Ping`) are
//!   `NonStateModifying`. `VfsExecLoad` deserves a note: loading a binary
//!   fills the VFS block cache, but cache contents are *soft state* with no
//!   semantic visibility — exactly the kind of interaction the paper's
//!   enhanced policy marks as dependency-free to widen recovery windows.
//! * **Replies** are conservatively `StateModifying`: delivering a reply
//!   resumes a continuation in the requester, creating a dependency on the
//!   replier having really performed the work. Since servers reply at the
//!   end of a handler, this costs almost no recovery coverage.
//! * `Announce` is a fire-and-forget trace notification from DS to RS whose
//!   handler is contractually state-free, so it is `NonStateModifying` —
//!   this is the SEEP that gives DS its large pessimistic/enhanced coverage
//!   gap (Table I).

use osiris_core::{SeepClass, SeepMeta};
use osiris_kernel::abi::{Errno, Pid, SysReply, Syscall};
use osiris_kernel::Protocol;

use crate::disk::Block;

/// Every message exchanged in the OSIRIS OS.
#[derive(Clone, Debug)]
pub enum OsMsg {
    // --- user ↔ server ---
    /// A user syscall routed to its owning server.
    User {
        /// The calling process.
        pid: Pid,
        /// The call.
        call: Syscall,
    },
    /// The final reply of a syscall, routed back to the process.
    UserReply(SysReply),

    // --- PM → VM ---
    /// Duplicate `parent`'s address space for `child` (fork).
    VmFork {
        /// The forking process.
        parent: Pid,
        /// The new child.
        child: Pid,
    },
    /// Replace `pid`'s address space with a fresh image (exec).
    VmExecReset {
        /// The exec'ing process.
        pid: Pid,
    },
    /// Release `pid`'s address space (exit). Fire-and-forget.
    VmFree {
        /// The exiting process.
        pid: Pid,
    },
    /// Like `VmFree`, but sent on the *requester's own* exit path: the
    /// state change is scoped to the requesting process, so the
    /// kill-requester reconciliation (paper §VII) can clean it.
    VmFreeSelf {
        /// The exiting process (== the requester).
        pid: Pid,
    },
    /// Read-only query of `pid`'s resident pages.
    VmUsage {
        /// The queried process.
        pid: Pid,
    },

    // --- PM → VFS ---
    /// Load the binary image of `prog` (read-only; warms the block cache).
    VfsExecLoad {
        /// Process performing the exec.
        pid: Pid,
        /// Program name.
        prog: String,
    },
    /// Close `pid`'s descriptors and cancel its blocked VFS operations.
    /// Fire-and-forget.
    VfsCleanup {
        /// The exiting or killed process.
        pid: Pid,
    },
    /// Like `VfsCleanup`, but on the requester's own exit path
    /// (requester-scoped; see `VmFreeSelf`).
    VfsCleanupSelf {
        /// The exiting process (== the requester).
        pid: Pid,
    },
    /// Duplicate `parent`'s descriptor table for `child` (fork inherits
    /// open files and pipe ends).
    VfsForkDup {
        /// The forking process.
        parent: Pid,
        /// The new child.
        child: Pid,
    },

    // --- VFS → disk driver ---
    /// Read block `block`.
    DiskRead {
        /// Block number.
        block: u64,
    },
    /// Write block `block`.
    DiskWrite {
        /// Block number.
        block: u64,
        /// Block contents, shared with the sender's cache.
        data: Block,
    },

    // --- generic inter-server replies ---
    /// Success, no payload.
    ROk,
    /// Success with an integer.
    RVal(u64),
    /// Success with a block (disk read), shared with the disk's store.
    RData(Block),
    /// Failure.
    RErr(Errno),
    /// The replier crashed and was recovered; the request was discarded
    /// (error virtualization).
    RCrash,

    // --- DS → RS ---
    /// Trace notification that `key` was published. The RS handler is
    /// contractually state-free.
    Announce {
        /// Published key.
        key: String,
    },

    // --- RS → DS ---
    /// RS persists its service status into the data store after each
    /// heartbeat round (as MINIX's RS publishes to DS). State-modifying:
    /// it updates DS's store.
    StatusPublish {
        /// Heartbeat round number.
        round: u64,
    },
    /// RS records a quarantine decision in the data store so the rest of
    /// the system can observe which services are benched. State-modifying.
    QuarantinePublish {
        /// Endpoint index of the quarantined component.
        target: u8,
    },
    /// RS mirrors its in-flight recovery intent into the data store for
    /// observability (the authoritative intent log lives in the kernel,
    /// where it survives an RS crash mid-conduct). State-modifying.
    IntentPublish {
        /// Endpoint index of the component being recovered.
        target: u8,
    },

    // --- heartbeats ---
    /// Liveness probe from RS.
    Ping,
    /// Liveness answer.
    Pong,

    // --- kernel / timer notifications ---
    /// A component crashed; sent by the kernel to RS.
    CrashNotify {
        /// Endpoint index of the crashed component.
        target: u8,
    },
    /// Kill-requester reconciliation order from the kernel to RS
    /// (paper §VII): terminate `pid` through the normal kill path.
    KillRequester {
        /// The process to terminate.
        pid: Pid,
    },
    /// RS heartbeat-round timer.
    HeartbeatTick,
    /// RS restart-backoff timer: recover `target` now that its escalation
    /// backoff has elapsed.
    RecoveryTick {
        /// Endpoint index of the component awaiting its deferred restart.
        target: u8,
    },
    /// Disk-latency completion timer.
    DiskTick {
        /// Pending-operation token.
        token: u64,
    },
    /// PM sleep-completion timer.
    SleepTick {
        /// Sleep token.
        token: u64,
    },
}

impl Protocol for OsMsg {
    fn seep(&self) -> SeepMeta {
        use OsMsg::*;
        match self {
            // Exit is one-way: the caller is gone, so no error reply can
            // ever be delivered — a crash while processing it is not
            // error-virtualizable (the window decision logic sees
            // `reply_possible = false`).
            User {
                call: osiris_kernel::abi::Syscall::Exit { .. },
                ..
            } => SeepMeta {
                class: SeepClass::StateModifying,
                kind: osiris_core::MessageKind::Request,
                reply_possible: false,
                bounded: true,
            },
            // Intrinsically blocking syscalls: their service time depends on
            // external progress (a child exiting, a timer firing, pipe data
            // arriving), not on the handler's own cost, so no deadline is
            // derivable — the watchdog must never arm one. A `WaitPid` that
            // takes forever is not a hang.
            User {
                call:
                    osiris_kernel::abi::Syscall::WaitPid { .. }
                    | osiris_kernel::abi::Syscall::WaitAny
                    | osiris_kernel::abi::Syscall::Sleep { .. }
                    | osiris_kernel::abi::Syscall::Read { .. },
                ..
            } => SeepMeta::request(SeepClass::StateModifying).unbounded(),
            // Read-only user syscalls: the handler inspects server state
            // without changing it, so the request is idempotent — the
            // watchdog may re-drive it transparently after a lost reply.
            // (`Read` is excluded: it advances the file offset and can
            // block on a pipe; `SigPending` fetches *and clears*.)
            User {
                call:
                    osiris_kernel::abi::Syscall::GetPid
                    | osiris_kernel::abi::Syscall::GetPPid
                    | osiris_kernel::abi::Syscall::VmStat
                    | osiris_kernel::abi::Syscall::Stat { .. }
                    | osiris_kernel::abi::Syscall::ReadDir { .. }
                    | osiris_kernel::abi::Syscall::DsGet { .. }
                    | osiris_kernel::abi::Syscall::DsList { .. },
                ..
            } => SeepMeta::request(SeepClass::NonStateModifying),
            // User syscalls: requests that (generally) modify the server.
            User { .. } => SeepMeta::request(SeepClass::StateModifying),
            // Replies resume a continuation in the receiver: conservative.
            UserReply(_) | ROk | RVal(_) | RData(_) | RErr(_) | RCrash | Pong => {
                SeepMeta::reply(SeepClass::StateModifying)
            }
            // State-modifying server-to-server requests.
            VmFork { .. } | VmExecReset { .. } | VfsForkDup { .. } => {
                SeepMeta::request(SeepClass::StateModifying)
            }
            DiskRead { .. } | DiskWrite { .. } => SeepMeta::request(SeepClass::StateModifying),
            // Read-only queries: keep the sender's window open (enhanced).
            VmUsage { .. } => SeepMeta::request(SeepClass::NonStateModifying),
            VfsExecLoad { .. } => SeepMeta::request(SeepClass::NonStateModifying),
            Ping => SeepMeta::request(SeepClass::NonStateModifying),
            // Fire-and-forget state changes.
            VmFree { .. }
            | VfsCleanup { .. }
            | StatusPublish { .. }
            | QuarantinePublish { .. }
            | IntentPublish { .. } => SeepMeta::notification(SeepClass::StateModifying),
            // Exit-path variants: the receiver's change is scoped to the
            // requesting (exiting) process, so killing the requester cleans
            // it — policies supporting §VII's reconciliation keep the
            // window open.
            VmFreeSelf { .. } | VfsCleanupSelf { .. } => {
                SeepMeta::notification(SeepClass::RequesterScoped)
            }
            // Trace-only notification: the receiver's handler is state-free.
            Announce { .. } => SeepMeta::notification(SeepClass::NonStateModifying),
            // Kernel/timer notifications (no sender window to consider).
            CrashNotify { .. }
            | KillRequester { .. }
            | HeartbeatTick
            | RecoveryTick { .. }
            | DiskTick { .. }
            | SleepTick { .. } => SeepMeta::notification(SeepClass::NonStateModifying),
        }
    }

    fn crash_reply() -> Self {
        OsMsg::RCrash
    }

    fn crash_notify(target: u8) -> Self {
        OsMsg::CrashNotify { target }
    }

    fn crash_notify_target(&self) -> Option<u8> {
        match self {
            OsMsg::CrashNotify { target } => Some(*target),
            _ => None,
        }
    }

    fn kill_requester(pid: Pid) -> Self {
        OsMsg::KillRequester { pid }
    }

    fn into_user_reply(self) -> Option<SysReply> {
        match self {
            OsMsg::UserReply(r) => Some(r),
            _ => None,
        }
    }

    fn label(&self) -> &'static str {
        use OsMsg::*;
        match self {
            User { .. } => "user",
            UserReply(_) => "user_reply",
            VmFork { .. } => "vm_fork",
            VmExecReset { .. } => "vm_exec_reset",
            VmFree { .. } => "vm_free",
            VmFreeSelf { .. } => "vm_free_self",
            VmUsage { .. } => "vm_usage",
            VfsExecLoad { .. } => "vfs_exec_load",
            VfsCleanup { .. } => "vfs_cleanup",
            VfsCleanupSelf { .. } => "vfs_cleanup_self",
            VfsForkDup { .. } => "vfs_fork_dup",
            DiskRead { .. } => "disk_read",
            DiskWrite { .. } => "disk_write",
            ROk => "r_ok",
            RVal(_) => "r_val",
            RData(_) => "r_data",
            RErr(_) => "r_err",
            RCrash => "r_crash",
            Announce { .. } => "announce",
            StatusPublish { .. } => "status_publish",
            QuarantinePublish { .. } => "quarantine_publish",
            IntentPublish { .. } => "intent_publish",
            Ping => "ping",
            Pong => "pong",
            CrashNotify { .. } => "crash_notify",
            KillRequester { .. } => "kill_requester",
            HeartbeatTick => "heartbeat_tick",
            RecoveryTick { .. } => "recovery_tick",
            DiskTick { .. } => "disk_tick",
            SleepTick { .. } => "sleep_tick",
        }
    }

    /// Reply-integrity digest: a fold over the variant label and the
    /// payload bytes that matter to the requester's continuation. Covers the
    /// reply variants (the only payloads the integrity check inspects) and
    /// stays allocation-free — scalars fold as little-endian bytes with
    /// FNV-1a, byte payloads (a read reply is a whole page) word-wise.
    fn digest(&self) -> u64 {
        use osiris_axiom::{fnv1a, fnv1a_str};
        use osiris_checkpoint::fold_bytes;
        use OsMsg::*;
        let seed = fnv1a_str(self.label());
        match self {
            RVal(v) => fnv1a(seed, &v.to_le_bytes()),
            RData(bytes) => fold_bytes(seed, bytes),
            RErr(e) => fnv1a(seed, &[*e as u8]),
            UserReply(r) => {
                let tag = |h, t: u8| fnv1a(h, &[t]);
                match r {
                    SysReply::Ok => tag(seed, 0),
                    SysReply::Val(v) => fnv1a(tag(seed, 1), &v.to_le_bytes()),
                    SysReply::Proc(p) => fnv1a(tag(seed, 2), &p.0.to_le_bytes()),
                    SysReply::Desc(fd) => fnv1a(tag(seed, 3), &fd.0.to_le_bytes()),
                    SysReply::TwoDesc(a, b) => {
                        let h = fnv1a(tag(seed, 4), &a.0.to_le_bytes());
                        fnv1a(h, &b.0.to_le_bytes())
                    }
                    SysReply::Data(bytes) => fold_bytes(tag(seed, 5), bytes),
                    SysReply::Names(names) => names
                        .iter()
                        .fold(tag(seed, 6), |h, n| fnv1a(fnv1a_str(n), &h.to_le_bytes())),
                    SysReply::StatInfo(s) => {
                        let h = fnv1a(tag(seed, 7), &s.size.to_le_bytes());
                        let h = fnv1a(h, &[s.is_dir as u8]);
                        fnv1a(h, &s.nlink.to_le_bytes())
                    }
                    SysReply::Exited(p, code) => {
                        let h = fnv1a(tag(seed, 8), &p.0.to_le_bytes());
                        fnv1a(h, &code.to_le_bytes())
                    }
                    SysReply::Signals(sigs) => {
                        sigs.iter().fold(tag(seed, 9), |h, s| fnv1a(h, &[*s as u8]))
                    }
                    SysReply::Err(e) => fnv1a(tag(seed, 10), &[*e as u8]),
                }
            }
            // Non-reply payloads (and the bodyless replies ROk/RCrash/Pong)
            // are covered by the label seed alone.
            _ => seed,
        }
    }
}

/// Converts a reply payload into a `Result` for continuation code.
pub fn reply_result(msg: &OsMsg) -> Result<&OsMsg, Errno> {
    match msg {
        OsMsg::RErr(e) => Err(*e),
        OsMsg::RCrash => Err(Errno::ECRASH),
        other => Ok(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osiris_core::MessageKind;

    #[test]
    fn read_only_queries_are_non_state_modifying() {
        assert_eq!(
            OsMsg::VmUsage { pid: Pid(1) }.seep().class,
            SeepClass::NonStateModifying
        );
        assert_eq!(
            OsMsg::VfsExecLoad {
                pid: Pid(1),
                prog: "sh".into()
            }
            .seep()
            .class,
            SeepClass::NonStateModifying
        );
        assert_eq!(OsMsg::Ping.seep().class, SeepClass::NonStateModifying);
        assert_eq!(
            OsMsg::Announce { key: "k".into() }.seep().class,
            SeepClass::NonStateModifying
        );
    }

    #[test]
    fn read_only_user_syscalls_are_idempotent() {
        use osiris_kernel::abi::Syscall;
        // Idempotent queries: the watchdog may re-drive these after a
        // lost reply without risking duplicated effects.
        for call in [
            Syscall::GetPid,
            Syscall::VmStat,
            Syscall::Stat { path: "/".into() },
            Syscall::DsGet { key: "k".into() },
            Syscall::DsList { prefix: "".into() },
        ] {
            let seep = OsMsg::User { pid: Pid(1), call }.seep();
            assert_eq!(seep.class, SeepClass::NonStateModifying);
            assert!(seep.bounded);
        }
        // Effectful or fetch-and-clear calls stay state-modifying.
        for call in [
            Syscall::DsPut {
                key: "k".into(),
                value: vec![1],
            },
            Syscall::SigPending,
            Syscall::Seek {
                fd: osiris_kernel::abi::Fd(0),
                from: osiris_kernel::abi::SeekFrom::Start(0),
            },
        ] {
            let seep = OsMsg::User { pid: Pid(1), call }.seep();
            assert_eq!(seep.class, SeepClass::StateModifying);
        }
    }

    #[test]
    fn mutating_requests_are_state_modifying() {
        for m in [
            OsMsg::VmFork {
                parent: Pid(1),
                child: Pid(2),
            },
            OsMsg::VmExecReset { pid: Pid(1) },
            OsMsg::DiskRead { block: 0 },
            OsMsg::DiskWrite {
                block: 0,
                data: vec![].into(),
            },
        ] {
            assert_eq!(m.seep().class, SeepClass::StateModifying, "{}", m.label());
            assert_eq!(m.seep().kind, MessageKind::Request);
        }
    }

    #[test]
    fn replies_are_conservative() {
        for m in [
            OsMsg::ROk,
            OsMsg::RVal(0),
            OsMsg::RErr(Errno::EIO),
            OsMsg::RCrash,
            OsMsg::Pong,
        ] {
            assert_eq!(m.seep().kind, MessageKind::Reply, "{}", m.label());
            assert_eq!(m.seep().class, SeepClass::StateModifying, "{}", m.label());
        }
    }

    #[test]
    fn crash_constructors() {
        assert!(matches!(OsMsg::crash_reply(), OsMsg::RCrash));
        assert!(matches!(
            OsMsg::crash_notify(3),
            OsMsg::CrashNotify { target: 3 }
        ));
        assert!(matches!(
            OsMsg::kill_requester(Pid(9)),
            OsMsg::KillRequester { pid: Pid(9) }
        ));
    }

    #[test]
    fn exit_requests_cannot_be_error_replied() {
        let seep = OsMsg::User {
            pid: Pid(2),
            call: osiris_kernel::abi::Syscall::Exit { code: 0 },
        }
        .seep();
        assert_eq!(seep.kind, MessageKind::Request);
        assert!(!seep.reply_possible, "exit is one-way");
    }

    #[test]
    fn exit_path_releases_are_requester_scoped() {
        for m in [
            OsMsg::VmFreeSelf { pid: Pid(1) },
            OsMsg::VfsCleanupSelf { pid: Pid(1) },
        ] {
            assert_eq!(m.seep().class, SeepClass::RequesterScoped, "{}", m.label());
            // Scoped messages still count as state-modifying for plain
            // policies (conservative default).
            assert!(m.seep().class.is_state_modifying());
        }
        // The kill-path variants stay plain state-modifying.
        for m in [
            OsMsg::VmFree { pid: Pid(1) },
            OsMsg::VfsCleanup { pid: Pid(1) },
        ] {
            assert_eq!(m.seep().class, SeepClass::StateModifying, "{}", m.label());
        }
    }

    #[test]
    fn escalation_messages_classified() {
        let tick = OsMsg::RecoveryTick { target: 3 }.seep();
        assert_eq!(tick.kind, MessageKind::Notification);
        assert_eq!(tick.class, SeepClass::NonStateModifying);
        let publish = OsMsg::QuarantinePublish { target: 3 }.seep();
        assert_eq!(publish.kind, MessageKind::Notification);
        assert_eq!(publish.class, SeepClass::StateModifying);
    }

    #[test]
    fn reply_result_maps_errors() {
        assert_eq!(
            reply_result(&OsMsg::RErr(Errno::EIO)).unwrap_err(),
            Errno::EIO
        );
        assert_eq!(reply_result(&OsMsg::RCrash).unwrap_err(), Errno::ECRASH);
        assert!(reply_result(&OsMsg::ROk).is_ok());
    }

    #[test]
    fn blocking_syscalls_are_unbounded() {
        use osiris_kernel::abi::Syscall;
        for call in [
            Syscall::WaitPid { pid: Pid(1) },
            Syscall::WaitAny,
            Syscall::Sleep { ticks: 5 },
            Syscall::Read {
                fd: osiris_kernel::abi::Fd(0),
                len: 16,
            },
        ] {
            let seep = OsMsg::User { pid: Pid(1), call }.seep();
            assert!(!seep.bounded, "blocking calls must not arm a deadline");
            assert!(seep.reply_possible);
        }
        // Ordinary requests stay bounded.
        assert!(OsMsg::VmUsage { pid: Pid(1) }.seep().bounded);
        assert!(OsMsg::DiskRead { block: 0 }.seep().bounded);
    }

    #[test]
    fn digests_distinguish_reply_payloads() {
        // Different payloads of the same variant differ…
        assert_ne!(OsMsg::RVal(1).digest(), OsMsg::RVal(2).digest());
        assert_ne!(
            OsMsg::RData(vec![1, 2].into()).digest(),
            OsMsg::RData(vec![1, 3].into()).digest()
        );
        assert_ne!(
            OsMsg::UserReply(SysReply::Val(7)).digest(),
            OsMsg::UserReply(SysReply::Val(8)).digest()
        );
        assert_ne!(
            OsMsg::UserReply(SysReply::Err(Errno::EIO)).digest(),
            OsMsg::UserReply(SysReply::Err(Errno::ENOENT)).digest()
        );
        // …also when only the last byte differs, on either side of the
        // word fold's 8-byte boundary and over a whole page…
        for len in [7, 8, 9, 4096] {
            let a = vec![0x5A; len];
            let mut b = a.clone();
            b[len - 1] ^= 1;
            assert_ne!(
                OsMsg::RData(a.into()).digest(),
                OsMsg::RData(b.into()).digest(),
                "len {len}"
            );
        }
        // …different variants differ…
        assert_ne!(OsMsg::ROk.digest(), OsMsg::RCrash.digest());
        assert_ne!(
            OsMsg::RVal(0).digest(),
            OsMsg::UserReply(SysReply::Val(0)).digest()
        );
        // …and equal payloads agree (the property the integrity check uses).
        assert_eq!(
            OsMsg::RData(vec![9; 32].into()).digest(),
            OsMsg::RData(vec![9; 32].into()).digest()
        );
    }

    #[test]
    fn user_reply_projection() {
        assert_eq!(
            OsMsg::UserReply(SysReply::Ok).into_user_reply(),
            Some(SysReply::Ok)
        );
        assert_eq!(OsMsg::Ping.into_user_reply(), None);
    }
}
