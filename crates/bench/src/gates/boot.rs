//! Booting is O(objects): VM builds its 65,536-frame tables in one
//! allocation each instead of one logged push per frame.
//!
//! A default [`Os::new`] runs every server's `init` and captures every
//! pristine image. The VM heap's write counter after boot counts VM's object
//! allocations and the few frame writes of init's own address space, so a
//! per-frame push loop (~65.5k writes) fails the first row. The allocator
//! calls of one boot repeat exactly and are held to their recorded value.

use osiris_servers::{Os, OsConfig, VmManager};

use super::{Checks, Want};

/// Allocator calls of one default [`Os::new`] (1,086 with the push loop,
/// 1,072 while the flight recorder was shared behind two `Arc`s; the
/// kernel's own recorder is one box; 1,071 while the per-component series
/// ids rode in the kernel's component table, which the metric fold now
/// keeps, and grows twice, itself).
const BOOT_ALLOCS: u64 = 1_073;

pub(super) fn checks(c: &mut Checks) {
    let (os, allocs) = c.counted(|| Os::new(OsConfig::default()));
    let (_, vm) = os
        .kernel()
        .server::<VmManager>(os.topology().vm)
        .expect("the default topology has VM");
    c.push(
        "boot/vm_heap_write_epoch".into(),
        vm.write_epoch(),
        Want::AtMost(64),
    );
    c.push_allocs("boot/os_new_allocs".into(), allocs, Want::Eq(BOOT_ALLOCS));
}
