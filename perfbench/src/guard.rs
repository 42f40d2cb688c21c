//! The misbuild guard: a binary whose hot path differs from the default
//! build must not be measured.
//!
//! A debug build shows in `cfg!(debug_assertions)`. The product crates'
//! `obs` and `fault` features do not show in this package's `cfg!` —
//! Cargo gives a crate its own features only, and
//! `--features machk-ipc/obs` turns one on without touching ours — so
//! the guard asks the running binary instead. It drives one probe
//! operation through the layers the workloads measure and reads the
//! counters of the crates those features link in: an `obs` build emits
//! trace events through `machk_obs`, and a `fault` build asks
//! `machk_fault` for a decision at every hook. In the default build
//! neither crate is called at all.

use std::sync::Arc;

use machk_fault::FaultPlan;
use machk_ipc::{Message, PortNameSpace, RefSemantics, RpcStats};
use machk_kernel::{create_task_with_port, kernel_dispatch_table, op_ids};
use machk_vm::{PagePool, VmMap, VmObject, PAGE_SIZE};

/// One translate, `msg_rpc`, task teardown and VM fault, as the
/// workloads issue them.
fn probe() {
    let ns = PortNameSpace::new();
    let (task, port) = create_task_with_port();
    let name = ns.insert(port);
    let stats = RpcStats::new();
    if let Some(port) = ns.translate(name) {
        let _ = kernel_dispatch_table().msg_rpc(
            &port,
            Message::new(op_ids::TASK_INFO),
            RefSemantics::Mach30,
            &stats,
        );
    }
    if let Some(port) = ns.remove(name) {
        drop(port.clear_kernel_object());
        let _ = port.destroy();
    }
    drop(task);

    let map = VmMap::new(Arc::new(PagePool::new(4)));
    map.allocate_backed(0x1000_0000, PAGE_SIZE, VmObject::create())
        .expect("one aligned entry");
    let _ = map.fault(0x1000_0000, None);
}

/// Which layers the probe saw switched on.
fn hot_path_layers() -> Vec<&'static str> {
    // A plan with every rate zero never fires, but arms the per-site
    // decision counters.
    machk_fault::install(FaultPlan::new(0));
    probe();
    let decisions: u64 = machk_fault::stats().iter().map(|s| s.decisions).sum();
    machk_fault::disarm();
    let mut on = Vec::new();
    if machk_obs::subscriber::subscriber_count() > 0
        || machk_obs::subscriber::empty_dispatches() > 0
    {
        on.push("obs (the product crates emit trace events)");
    }
    if decisions > 0 {
        on.push("fault (the product crates ask for fault decisions)");
    }
    on
}

/// The build's name, or why it must not be measured: a debug build or
/// an opt-in layer of the product crates changes the hot path.
pub fn build_profile() -> Result<&'static str, String> {
    let mut wrong = Vec::new();
    if cfg!(debug_assertions) {
        wrong.push("debug assertions (build with --release)");
    }
    wrong.extend(hot_path_layers());
    if wrong.is_empty() {
        Ok("release")
    } else {
        Err(wrong.join(", "))
    }
}
