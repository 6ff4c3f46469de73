//! DS — the Data Store.
//!
//! A persistent key-value store service, as in MINIX 3: other components and
//! user programs publish and retrieve configuration and state under string
//! keys. DS is deliberately simple and rarely issues state-modifying calls
//! to the rest of the system — which is why it has the *highest* enhanced
//! recovery coverage and the *lowest* pessimistic coverage in Table I: its
//! very first outgoing SEEP (the trace `Announce` to RS) is
//! non-state-modifying, so the pessimistic policy closes the window almost
//! immediately while the enhanced policy keeps it open to the end.

use osiris_checkpoint::{PCell, PMap};
use osiris_kernel::abi::{Errno, SysReply, Syscall};
use osiris_kernel::{Ctx, Delivery, Server};

use crate::proto::OsMsg;
use crate::topology::Topology;

/// Maximum number of keys the store accepts (quota).
pub const MAX_KEYS: usize = 4096;

#[derive(Clone, Copy, Debug)]
struct Handles {
    store: PMap<String, Vec<u8>>,
    puts: PCell<u64>,
}

/// The Data Store server.
#[derive(Clone, Debug)]
pub struct DataStore {
    topo: Topology,
    h: Option<Handles>,
}

impl DataStore {
    /// Creates a DS wired to the given topology.
    pub fn new(topo: Topology) -> Self {
        DataStore { topo, h: None }
    }

    fn h(&self) -> Handles {
        self.h.expect("DS used before init")
    }

    fn user_call(&self, msg: Delivery<'_, OsMsg>, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        let rp = msg.return_path();
        let OsMsg::User { call, .. } = &msg.payload else {
            return;
        };
        match call {
            Syscall::DsPut { key, .. } => {
                ctx.site("ds.put.entry");
                // Trace the publication to RS *first*. This notification is
                // non-state-modifying: under the pessimistic policy it closes
                // the recovery window right here; under the enhanced policy
                // the window survives to the end of the handler.
                ctx.notify(self.topo.rs, OsMsg::Announce { key: key.clone() });
                ctx.site("ds.put.announced");
                let fresh =
                    ctx.site_branch("ds.put.fresh", !h.store.contains_key(ctx.heap_ref(), key));
                if fresh && h.store.len(ctx.heap_ref()) >= MAX_KEYS {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ENOSPC)));
                    return;
                }
                ctx.site("ds.put.quota");
                // The key and value move into the store, copied only when
                // the kernel lent the request.
                let OsMsg::User {
                    call: Syscall::DsPut { key, value },
                    ..
                } = msg.take_payload()
                else {
                    unreachable!("matched a DsPut above")
                };
                h.store.insert(ctx.heap(), key, value);
                h.puts.update(ctx.heap(), |n| *n += 1);
                ctx.site("ds.put.commit");
                ctx.reply(rp, OsMsg::UserReply(SysReply::Ok));
            }
            Syscall::DsGet { key } => {
                ctx.site("ds.get.entry");
                match h.store.cloned(ctx.heap_ref(), key) {
                    Some(v) => ctx.reply(rp, OsMsg::UserReply(SysReply::Data(v))),
                    None => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ENOKEY))),
                }
            }
            Syscall::DsDel { key } => {
                ctx.site("ds.del.entry");
                if h.store.delete(ctx.heap(), key) {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Ok));
                } else {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ENOKEY)));
                }
            }
            Syscall::DsList { prefix } => {
                ctx.site("ds.list.entry");
                let mut names = Vec::new();
                h.store.for_each(ctx.heap_ref(), |k, _| {
                    if k.starts_with(prefix.as_str()) {
                        names.push(k.clone());
                    }
                });
                ctx.site("ds.list.scan");
                ctx.reply(rp, OsMsg::UserReply(SysReply::Names(names)));
            }
            _ => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ENOSYS))),
        }
    }
}

impl Server<OsMsg> for DataStore {
    fn name(&self) -> &'static str {
        "ds"
    }

    fn init(&mut self, ctx: &mut Ctx<'_, OsMsg>) {
        let heap = ctx.heap();
        self.h = Some(Handles {
            store: heap.alloc_map("ds.store"),
            puts: heap.alloc_cell("ds.puts", 0),
        });
    }

    fn handle(&mut self, msg: Delivery<'_, OsMsg>, ctx: &mut Ctx<'_, OsMsg>) {
        match &msg.payload {
            OsMsg::User { .. } => self.user_call(msg, ctx),
            OsMsg::StatusPublish { round } => {
                // RS persists its heartbeat status here.
                ctx.site("ds.status.entry");
                let h = self.h();
                h.store.insert(
                    ctx.heap(),
                    "rs/status".to_string(),
                    round.to_le_bytes().to_vec(),
                );
                ctx.site("ds.status.stored");
            }
            OsMsg::QuarantinePublish { target } => {
                // RS records escalation verdicts here so surviving services
                // (and post-mortem tooling) can discover benched components.
                ctx.site("ds.quarantine.entry");
                let h = self.h();
                h.store
                    .insert(ctx.heap(), format!("rs/quarantined/{target}"), vec![1]);
                ctx.site("ds.quarantine.stored");
            }
            OsMsg::IntentPublish { target } => {
                // Observability mirror of the kernel's authoritative
                // recovery intent log: which recovery the RS is conducting.
                ctx.site("ds.intent.entry");
                let h = self.h();
                h.store
                    .insert(ctx.heap(), format!("rs/intent/{target}"), vec![1]);
                ctx.site("ds.intent.stored");
            }
            OsMsg::Ping => {
                ctx.site("ds.ping");
                ctx.reply(msg.return_path(), OsMsg::Pong)
            }
            _ => {}
        }
    }

    fn clone_box(&self) -> Box<dyn Server<OsMsg>> {
        Box::new(self.clone())
    }
}
