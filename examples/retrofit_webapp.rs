//! Retrofitting the OSIRIS framework onto a different system (paper §VII,
//! "Generality of the framework"): a miniature **three-tier server
//! application** — gateway → session service → storage — built directly on
//! the generic `osiris-kernel` substrate with its own protocol, its own
//! SEEP classification, and the stock recovery policies.
//!
//! The gateway consults the session service read-only (a non-state-modifying
//! SEEP, so its recovery window survives under the enhanced policy) before
//! committing an order to storage (state-modifying, closing the window).
//! A crash in the lookup phase is recovered by rollback + error
//! virtualization; the client sees `E_CRASH` (a retryable 503, in web
//! terms), retries, and the system never loses or duplicates an order.
//!
//! ```text
//! cargo run --release --example retrofit_webapp
//! ```

use osiris::checkpoint::{PCell, PMap};
use osiris::core::{SeepClass, SeepMeta};
use osiris::kernel::abi::{Pid, SysReply};
use osiris::kernel::{
    Ctx, Delivery, Endpoint, FaultEffect, FaultHook, Kernel, KernelConfig, Probe, Protocol, Server,
    SyscallId,
};
use osiris::PolicyKind;

/// The application protocol. Each variant carries its SEEP engraving, just
/// like the OS protocol does.
#[derive(Clone, Debug)]
enum AppMsg {
    /// Client request to the gateway: place an order.
    PlaceOrder {
        user: u32,
        item: &'static str,
    },
    /// Gateway → sessions: read-only credit check.
    CheckCredit {
        user: u32,
    },
    /// Gateway → storage: commit the order (state-modifying).
    Commit {
        user: u32,
        item: &'static str,
    },
    /// Generic success/value replies.
    ROk,
    RVal(u64),
    /// Error virtualization reply.
    RCrash,
    /// Kernel → recovery manager.
    Notify(u8),
    /// Final client reply.
    ClientReply(SysReply),
}

impl Protocol for AppMsg {
    fn seep(&self) -> SeepMeta {
        match self {
            AppMsg::PlaceOrder { .. } => SeepMeta::request(SeepClass::StateModifying),
            AppMsg::CheckCredit { .. } => SeepMeta::request(SeepClass::NonStateModifying),
            AppMsg::Commit { .. } => SeepMeta::request(SeepClass::StateModifying),
            AppMsg::ROk | AppMsg::RVal(_) | AppMsg::RCrash | AppMsg::ClientReply(_) => {
                SeepMeta::reply(SeepClass::StateModifying)
            }
            AppMsg::Notify(_) => SeepMeta::notification(SeepClass::NonStateModifying),
        }
    }
    fn crash_reply() -> Self {
        AppMsg::RCrash
    }
    fn crash_notify(target: u8) -> Self {
        AppMsg::Notify(target)
    }
    fn into_user_reply(self) -> Option<SysReply> {
        match self {
            AppMsg::ClientReply(r) => Some(r),
            _ => None,
        }
    }
    fn label(&self) -> &'static str {
        match self {
            AppMsg::PlaceOrder { .. } => "place_order",
            AppMsg::CheckCredit { .. } => "check_credit",
            AppMsg::Commit { .. } => "commit",
            AppMsg::ROk => "r_ok",
            AppMsg::RVal(_) => "r_val",
            AppMsg::RCrash => "r_crash",
            AppMsg::Notify(_) => "notify",
            AppMsg::ClientReply(_) => "client_reply",
        }
    }
}

/// The recovery manager tier (the RS analog).
#[derive(Clone)]
struct Manager;

impl Server<AppMsg> for Manager {
    fn name(&self) -> &'static str {
        "manager"
    }
    fn init(&mut self, _ctx: &mut Ctx<'_, AppMsg>) {}
    fn handle(&mut self, msg: Delivery<'_, AppMsg>, ctx: &mut Ctx<'_, AppMsg>) {
        if let AppMsg::Notify(target) = msg.payload {
            println!("[manager] recovering tier {target}");
            ctx.recover(target);
        }
    }
    fn clone_box(&self) -> Box<dyn Server<AppMsg>> {
        Box::new(self.clone())
    }
}

/// The gateway tier: orchestrates a credit check then a commit, keeping a
/// continuation in its checkpointed heap exactly like PM does for `spawn`.
#[derive(Clone)]
struct Gateway {
    sessions: Endpoint,
    storage: Endpoint,
    pending: Option<PMap<u64, (u32, &'static str, osiris::kernel::ReturnPath)>>,
    orders_routed: Option<PCell<u64>>,
}

impl Server<AppMsg> for Gateway {
    fn name(&self) -> &'static str {
        "gateway"
    }
    fn init(&mut self, ctx: &mut Ctx<'_, AppMsg>) {
        self.pending = Some(ctx.heap().alloc_map("gw.pending"));
        self.orders_routed = Some(ctx.heap().alloc_cell("gw.routed", 0));
    }
    fn handle(&mut self, msg: Delivery<'_, AppMsg>, ctx: &mut Ctx<'_, AppMsg>) {
        let pending = self.pending.expect("init");
        let routed = self.orders_routed.expect("init");
        match &msg.payload {
            AppMsg::PlaceOrder { user, item } => {
                ctx.site("gw.order.entry");
                routed.update(ctx.heap(), |n| *n += 1);
                // Read-only credit check: the enhanced window stays open, so
                // a crash anywhere in this phase is recoverable.
                let id = ctx.send_request(self.sessions, AppMsg::CheckCredit { user: *user });
                pending.insert(ctx.heap(), id.0, (*user, item, msg.return_path()));
                ctx.site("gw.order.checking");
            }
            AppMsg::RVal(credit) => {
                let Some(reply_to) = msg.reply_to else { return };
                let Some((user, item, rp)) = pending.remove(ctx.heap(), &reply_to.0) else {
                    return;
                };
                ctx.site("gw.order.checked");
                if *credit == 0 {
                    ctx.reply(
                        rp,
                        AppMsg::ClientReply(SysReply::Err(osiris::kernel::abi::Errno::EPERM)),
                    );
                    return;
                }
                // Commit is state-modifying: from here on, a crash means a
                // controlled shutdown rather than a risky recovery.
                let id = ctx.send_request(self.storage, AppMsg::Commit { user, item });
                pending.insert(ctx.heap(), id.0, (user, item, rp));
            }
            AppMsg::ROk => {
                let Some(reply_to) = msg.reply_to else { return };
                if let Some((_, _, rp)) = pending.remove(ctx.heap(), &reply_to.0) {
                    ctx.site("gw.order.done");
                    ctx.reply(rp, AppMsg::ClientReply(SysReply::Ok));
                }
            }
            AppMsg::RCrash => {
                // A downstream tier crashed and was recovered: surface a
                // retryable error to the client.
                let Some(reply_to) = msg.reply_to else { return };
                if let Some((_, _, rp)) = pending.remove(ctx.heap(), &reply_to.0) {
                    ctx.reply(
                        rp,
                        AppMsg::ClientReply(SysReply::Err(osiris::kernel::abi::Errno::ECRASH)),
                    );
                }
            }
            _ => {}
        }
    }
    fn clone_box(&self) -> Box<dyn Server<AppMsg>> {
        Box::new(self.clone())
    }
}

/// The session tier: read-only credit lookups.
#[derive(Clone)]
struct Sessions {
    credit: Option<PMap<u32, u64>>,
}

impl Server<AppMsg> for Sessions {
    fn name(&self) -> &'static str {
        "sessions"
    }
    fn init(&mut self, ctx: &mut Ctx<'_, AppMsg>) {
        let credit = ctx.heap().alloc_map("sess.credit");
        for user in 1..=8 {
            credit.insert(ctx.heap(), user, 100);
        }
        self.credit = Some(credit);
    }
    fn handle(&mut self, msg: Delivery<'_, AppMsg>, ctx: &mut Ctx<'_, AppMsg>) {
        if let AppMsg::CheckCredit { user } = &msg.payload {
            ctx.site("sess.check");
            let credit = self
                .credit
                .expect("init")
                .get(ctx.heap_ref(), user)
                .unwrap_or(0);
            ctx.site("sess.reply");
            ctx.reply(msg.return_path(), AppMsg::RVal(credit));
        }
    }
    fn clone_box(&self) -> Box<dyn Server<AppMsg>> {
        Box::new(self.clone())
    }
}

/// The storage tier: the committed orders ledger.
#[derive(Clone)]
struct Storage {
    orders: Option<PMap<u64, (u32, &'static str)>>,
    next: Option<PCell<u64>>,
}

impl Server<AppMsg> for Storage {
    fn name(&self) -> &'static str {
        "storage"
    }
    fn init(&mut self, ctx: &mut Ctx<'_, AppMsg>) {
        self.orders = Some(ctx.heap().alloc_map("store.orders"));
        self.next = Some(ctx.heap().alloc_cell("store.next", 0));
    }
    fn handle(&mut self, msg: Delivery<'_, AppMsg>, ctx: &mut Ctx<'_, AppMsg>) {
        if let AppMsg::Commit { user, item } = &msg.payload {
            ctx.site("store.commit");
            let next = self.next.expect("init");
            let id = next.get(ctx.heap_ref());
            next.set(ctx.heap(), id + 1);
            self.orders
                .expect("init")
                .insert(ctx.heap(), id, (*user, item));
            ctx.reply(msg.return_path(), AppMsg::ROk);
        }
    }
    fn clone_box(&self) -> Box<dyn Server<AppMsg>> {
        Box::new(self.clone())
    }
}

/// Crash the session lookup every time (a persistent fault in tier 2).
struct CrashSessions;
impl FaultHook for CrashSessions {
    fn on_site(&mut self, probe: &Probe) -> FaultEffect {
        if probe.site == "sess.check" && probe.now < 60_000 {
            FaultEffect::Panic
        } else {
            FaultEffect::None
        }
    }
}

fn main() {
    osiris::install_quiet_panic_hook();

    let mut kernel: Kernel<AppMsg> = Kernel::new(KernelConfig {
        policy: PolicyKind::Enhanced.instantiate(),
        ..Default::default()
    });
    let manager = kernel.register(Box::new(Manager), true);
    let sessions = kernel.register(Box::new(Sessions { credit: None }), false);
    let storage = kernel.register(
        Box::new(Storage {
            orders: None,
            next: None,
        }),
        false,
    );
    let gateway = kernel.register(
        Box::new(Gateway {
            sessions,
            storage,
            pending: None,
            orders_routed: None,
        }),
        false,
    );
    let _ = manager;
    kernel.init_components();
    kernel.set_fault_hook(Box::new(CrashSessions));

    // The "client": retries on E_CRASH like any HTTP client retries a 503.
    let mut placed = 0;
    let mut retries = 0;
    let mut sid = 0u64;
    for user in 1..=8u32 {
        loop {
            sid += 1;
            kernel.send_user_request(
                gateway,
                AppMsg::PlaceOrder {
                    user,
                    item: "widget",
                },
                SyscallId(sid),
                Pid(u64::from(user) as u32),
            );
            kernel.pump();
            let reply = kernel
                .take_user_replies()
                .pop()
                .expect("one reply per request");
            match reply.2 {
                SysReply::Ok => {
                    placed += 1;
                    break;
                }
                SysReply::Err(osiris::kernel::abi::Errno::ECRASH) => {
                    retries += 1;
                    continue;
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }

    let (ledger, heap) = kernel
        .server::<Storage>(storage)
        .expect("storage is a Storage");
    let orders = ledger.orders.expect("init").len(heap);

    println!("orders placed:        {placed}");
    println!("client retries:       {retries} (each = a recovered tier-2 crash)");
    println!("ledger entries:       {orders}");
    println!(
        "recoveries performed: {}",
        kernel.series().metrics().recovered_rollback
    );
    assert_eq!(placed, 8);
    assert_eq!(orders, 8, "no order lost, none duplicated");
    assert!(retries > 0, "the fault load must have been felt");
    assert!(kernel.shutdown_state().is_none());
    println!("\nthe same framework that recovers OS servers recovers an app tier.");
}
