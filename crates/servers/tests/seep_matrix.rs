//! The complete SEEP classification matrix: every protocol variant's
//! engraving, pinned as a table. The classifications drive every recovery
//! decision in the system, so changing one is a semantic change that must
//! be made consciously — this test makes it loud.

use osiris_core::{MessageKind, SeepClass};
use osiris_kernel::abi::{Errno, OpenFlags, Pid, Signal, SysReply, Syscall};
use osiris_kernel::Protocol;
use osiris_servers::OsMsg;

fn user(call: Syscall) -> OsMsg {
    OsMsg::User { pid: Pid(1), call }
}

#[test]
fn full_classification_matrix() {
    use MessageKind::*;
    use SeepClass::*;
    // (message, kind, class, reply_possible)
    let matrix: Vec<(OsMsg, MessageKind, SeepClass, bool)> = vec![
        // User syscalls: replyable state-modifying requests — except exit
        // (no reply possible) and the read-only set (GetPid, Stat, DsGet,
        // …), which is NonStateModifying so the watchdog may transparently
        // re-drive a lost reply.
        (user(Syscall::GetPid), Request, NonStateModifying, true),
        (
            user(Syscall::Stat { path: "/x".into() }),
            Request,
            NonStateModifying,
            true,
        ),
        (
            user(Syscall::DsGet { key: "k".into() }),
            Request,
            NonStateModifying,
            true,
        ),
        (
            user(Syscall::Open {
                path: "/x".into(),
                flags: OpenFlags::RDONLY,
            }),
            Request,
            StateModifying,
            true,
        ),
        (
            user(Syscall::Kill {
                pid: Pid(2),
                sig: Signal::SigKill,
            }),
            Request,
            StateModifying,
            true,
        ),
        (
            user(Syscall::Exit { code: 0 }),
            Request,
            StateModifying,
            false,
        ),
        // PM → VM.
        (
            OsMsg::VmFork {
                parent: Pid(1),
                child: Pid(2),
            },
            Request,
            StateModifying,
            true,
        ),
        (
            OsMsg::VmExecReset { pid: Pid(1) },
            Request,
            StateModifying,
            true,
        ),
        (
            OsMsg::VmFree { pid: Pid(1) },
            Notification,
            StateModifying,
            false,
        ),
        (
            OsMsg::VmFreeSelf { pid: Pid(1) },
            Notification,
            RequesterScoped,
            false,
        ),
        (
            OsMsg::VmUsage { pid: Pid(1) },
            Request,
            NonStateModifying,
            true,
        ),
        // PM → VFS.
        (
            OsMsg::VfsExecLoad {
                pid: Pid(1),
                prog: "sh".into(),
            },
            Request,
            NonStateModifying,
            true,
        ),
        (
            OsMsg::VfsCleanup { pid: Pid(1) },
            Notification,
            StateModifying,
            false,
        ),
        (
            OsMsg::VfsCleanupSelf { pid: Pid(1) },
            Notification,
            RequesterScoped,
            false,
        ),
        (
            OsMsg::VfsForkDup {
                parent: Pid(1),
                child: Pid(2),
            },
            Request,
            StateModifying,
            true,
        ),
        // VFS → disk.
        (OsMsg::DiskRead { block: 0 }, Request, StateModifying, true),
        (
            OsMsg::DiskWrite {
                block: 0,
                data: vec![].into(),
            },
            Request,
            StateModifying,
            true,
        ),
        // Replies: conservative.
        (OsMsg::ROk, Reply, StateModifying, false),
        (OsMsg::RVal(1), Reply, StateModifying, false),
        (OsMsg::RData(vec![].into()), Reply, StateModifying, false),
        (OsMsg::RErr(Errno::EIO), Reply, StateModifying, false),
        (OsMsg::RCrash, Reply, StateModifying, false),
        (OsMsg::Pong, Reply, StateModifying, false),
        (OsMsg::UserReply(SysReply::Ok), Reply, StateModifying, false),
        // DS → RS trace: the one non-state-modifying notification.
        (
            OsMsg::Announce { key: "k".into() },
            Notification,
            NonStateModifying,
            false,
        ),
        // RS → DS status persistence: state-modifying.
        (
            OsMsg::StatusPublish { round: 1 },
            Notification,
            StateModifying,
            false,
        ),
        // Heartbeats.
        (OsMsg::Ping, Request, NonStateModifying, true),
        // Kernel and timer notifications.
        (
            OsMsg::CrashNotify { target: 1 },
            Notification,
            NonStateModifying,
            false,
        ),
        (
            OsMsg::KillRequester { pid: Pid(1) },
            Notification,
            NonStateModifying,
            false,
        ),
        (OsMsg::HeartbeatTick, Notification, NonStateModifying, false),
        (
            OsMsg::DiskTick { token: 1 },
            Notification,
            NonStateModifying,
            false,
        ),
        (
            OsMsg::SleepTick { token: 1 },
            Notification,
            NonStateModifying,
            false,
        ),
    ];
    for (msg, kind, class, reply_possible) in matrix {
        let seep = msg.seep();
        assert_eq!(seep.kind, kind, "{}: kind", msg.label());
        assert_eq!(seep.class, class, "{}: class", msg.label());
        assert_eq!(
            seep.reply_possible,
            reply_possible,
            "{}: reply",
            msg.label()
        );
    }
}

#[test]
fn only_announce_and_reads_keep_enhanced_windows_open() {
    use osiris_core::{Enhanced, RecoveryPolicy};
    // Inventory every variant that the enhanced policy lets stay inside a
    // window — the list must be exactly the read-only/trace set.
    let open_keepers = [
        OsMsg::VmUsage { pid: Pid(1) }.seep(),
        OsMsg::VfsExecLoad {
            pid: Pid(1),
            prog: "x".into(),
        }
        .seep(),
        OsMsg::Ping.seep(),
        OsMsg::Announce { key: "k".into() }.seep(),
    ];
    for seep in open_keepers {
        assert!(Enhanced.send_keeps_window_open(&seep), "{seep:?}");
    }
    let closers = [
        OsMsg::VmFork {
            parent: Pid(1),
            child: Pid(2),
        }
        .seep(),
        OsMsg::DiskWrite {
            block: 0,
            data: vec![].into(),
        }
        .seep(),
        OsMsg::VmFreeSelf { pid: Pid(1) }.seep(), // scoped: closes under plain enhanced
        OsMsg::ROk.seep(),
        OsMsg::StatusPublish { round: 0 }.seep(),
    ];
    for seep in closers {
        assert!(!Enhanced.send_keeps_window_open(&seep), "{seep:?}");
    }
}
