//! Armed-fault tests for the RPC dispatch and engine fault probes.
//!
//! Lives in its own integration binary (own process) because
//! [`machk_fault::install`] arms injection process-wide: arming
//! `rpc_dead_port` here must not perturb the ordinary unit tests.

#![cfg(feature = "fault")]

use std::sync::Mutex;

use machk_core::Kobj;
use machk_fault::{FaultPlan, FaultSite, ALWAYS};
use machk_ipc::{
    DispatchTable, KernError, Message, Port, PortError, RefSemantics, RpcError, RpcStats,
};

/// Plans are process state; every test here serializes on this.
static GATE: Mutex<()> = Mutex::new(());

type Counter = Kobj<u64>;
const OP_ADD: u32 = 1;

fn table() -> DispatchTable {
    let mut t = DispatchTable::new();
    t.register::<Counter>(OP_ADD, |c, m| {
        let d = m.int_at(0).ok_or(KernError::InvalidArgument)?;
        let v = c.with_active(|n| {
            *n += d;
            *n
        })?;
        Ok(Message::new(OP_ADD).with_int(v))
    });
    t
}

#[test]
fn dead_port_fault_is_err_and_takes_no_reference() {
    let _g = GATE.lock().unwrap();
    let t = table();
    let obj = Kobj::create(0u64);
    let port = Port::create();
    port.set_kernel_object(obj.clone().into_dyn());
    let stats = RpcStats::new();

    machk_fault::install(FaultPlan::new(0xD0A).with_rate(FaultSite::RpcDeadPort, ALWAYS));
    machk_fault::set_role(0);
    let e = t
        .msg_rpc(
            &port,
            Message::new(OP_ADD).with_int(1),
            RefSemantics::Mach30,
            &stats,
        )
        .unwrap_err();
    machk_fault::disarm();

    assert_eq!(e, RpcError::Port(PortError::Dead));
    // Injected before translation: no reference was obtained, ledger
    // balanced, operation never ran.
    assert_eq!(stats.translations.load(std::sync::atomic::Ordering::Relaxed), 0);
    assert!(stats.balanced());
    assert_eq!(obj.with_active(|n| *n).unwrap(), 0);
}

#[test]
fn dropped_reply_is_err_but_operation_and_ledger_stand() {
    let _g = GATE.lock().unwrap();
    let t = table();
    let obj = Kobj::create(0u64);
    let port = Port::create();
    port.set_kernel_object(obj.clone().into_dyn());
    let stats = RpcStats::new();

    machk_fault::install(FaultPlan::new(0xD0B).with_rate(FaultSite::RpcDropReply, ALWAYS));
    machk_fault::set_role(0);
    let e = t
        .msg_rpc(
            &port,
            Message::new(OP_ADD).with_int(5),
            RefSemantics::Mach30,
            &stats,
        )
        .unwrap_err();
    machk_fault::disarm();

    assert_eq!(e, RpcError::ReplyDropped);
    // The caller lost the reply, but the operation ran and its step-4
    // disposition already happened — exactly like a real dropped reply.
    assert_eq!(obj.with_active(|n| *n).unwrap(), 5);
    assert_eq!(stats.translations.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert!(stats.balanced());
}

#[test]
fn disarmed_hooks_are_inert() {
    let _g = GATE.lock().unwrap();
    machk_fault::disarm();
    let t = table();
    let obj = Kobj::create(0u64);
    let port = Port::create();
    port.set_kernel_object(obj.into_dyn());
    let stats = RpcStats::new();
    let r = t
        .msg_rpc(
            &port,
            Message::new(OP_ADD).with_int(2),
            RefSemantics::Mach25,
            &stats,
        )
        .unwrap();
    assert_eq!(r.int_at(0), Some(2));
    assert!(stats.balanced());
}

#[test]
fn engine_storm_survives_seeded_worker_crashes() {
    let _g = GATE.lock().unwrap();
    use machk_fault::rate_from_prob;
    use machk_ipc::{CrashKind, CrashPoint, Engine, EngineConfig};

    // Seeded chaos (worker kills mid-op and mid-hold, dropped replies)
    // plus one scheduled kill so the supervisor provably engages even
    // if the seed rolls a quiet storm. `declared_roles_only` keeps the
    // supervisor/teardown thread unperturbed: only engine workers
    // (which declare generation-qualified roles) draw faults.
    machk_fault::install(
        FaultPlan::new(0x20E5)
            .with_rate(FaultSite::WorkerCrash, rate_from_prob(0.0002))
            .with_rate(FaultSite::WorkerCrashHolding, rate_from_prob(0.0001))
            .with_rate(FaultSite::RpcDropReply, rate_from_prob(0.002))
            .declared_roles_only(),
    );
    let report = Engine::new(EngineConfig {
        workers: 4,
        ops_per_worker: 2_000,
        stable_ports: 16,
        seed: 0xE20,
        crash_at: vec![CrashPoint {
            worker: 0,
            op: 250,
            kind: CrashKind::AfterCreate,
        }],
        ..EngineConfig::default()
    })
    .run();
    machk_fault::disarm();

    assert!(report.crashes >= 1, "at least the scheduled kill fired");
    assert!(report.retries > 0, "dropped replies forced idempotent retries");
    assert!(report.rpc_balanced, "translation ledger survives the chaos");
    assert_eq!(report.ledger_total, 1, "object ledger repaired to balance");
    assert_eq!(
        report.creates, report.terminates,
        "counted books balance: retries never double-count, leaks reconcile"
    );
    assert!(
        report.reconciled >= 1,
        "the scheduled AfterCreate kill leaks exactly one orphan to reconcile"
    );
}
