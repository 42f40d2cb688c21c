//! `rpc_churn`: the namespace and refcount layers under writes and final
//! releases, next to reads. Operations:
//!
//! * create — `create_task_with_port`, a take on the benchmark's own
//!   `ShardedRefCount` ledger, `PortNameSpace::insert`;
//! * terminate — `remove`, `clear_kernel_object`, `Port::destroy`, the
//!   ledger release and the task's final `ObjRef` drop, then one
//!   `msg_rpc` at the dead port, which must return the typed error,
//!   and the port's own final drop;
//! * transfer — `Port::try_send` of a stable port right into a shared
//!   limited port, with a `receive_batch` drain every [`DRAIN_EVERY`]
//!   transfers;
//! * ping — translate a stable name and send `TASK_INFO` (a minority).
//!
//! Create, terminate and transfer form the write class. The client
//! terminates only tasks it created, so its operation stream is a pure
//! function of the seed.

use machk_core::{ObjRef, ShardedRefCount};
use machk_ipc::{
    DispatchTable, Message, Port, PortError, PortName, PortNameSpace, RefSemantics, RpcError,
    RpcStats,
};
use machk_kernel::{create_task_with_port, kernel_dispatch_table, op_ids, Task};

use super::{end_to_end, measure, per_layer, rpc_failures, write_spans};
use crate::harness::{timed_setup, Outcome, RunConfig, SETUP_REPS};
use crate::report::{ratio, RunResult};
use crate::rng::Rng;
use crate::trace::{Layer, Tracer};

/// Stable tasks: ping and transfer targets.
const STABLE: usize = 1024;
/// A client's live-task cap: at the cap a create becomes a terminate.
const LIVE_CAP: usize = 256;
/// Limit of the shared transfer port. Clients drain far faster than
/// they send, so a send is never refused on a sound build.
const TRANSFER_LIMIT: usize = 4096;
/// Drain the transfer port every this many transfers.
const DRAIN_EVERY: u64 = 8;
/// Messages taken per drain.
const DRAIN_MAX: usize = 64;
/// Operation id of transfer messages (not an RPC).
const TRANSFER_MSG: u32 = 0x7E57;

struct State {
    table: DispatchTable,
    ns: PortNameSpace,
    stable: Vec<PortName>,
    stable_tasks: Vec<ObjRef<Task>>,
    ledger: ShardedRefCount,
    transfer: ObjRef<Port>,
    stats: RpcStats,
}

#[derive(Default)]
struct Client {
    live: Vec<(PortName, ObjRef<Task>)>,
    batch: Vec<Message>,
    creates: u64,
    terminates: u64,
    dead_probes: u64,
    dead_typed: u64,
    sends: u64,
    refused: u64,
    drained: u64,
    final_releases: u64,
}

fn setup() -> State {
    let ns = PortNameSpace::new();
    let mut stable = Vec::with_capacity(STABLE);
    let mut stable_tasks = Vec::with_capacity(STABLE);
    for _ in 0..STABLE {
        let (task, port) = create_task_with_port();
        stable.push(ns.insert(port));
        stable_tasks.push(task);
    }
    State {
        table: kernel_dispatch_table(),
        ns,
        stable,
        stable_tasks,
        ledger: ShardedRefCount::new(),
        transfer: Port::create_with_limit(TRANSFER_LIMIT),
        stats: RpcStats::new(),
    }
}

fn create(st: &State, c: &mut Client, tr: &mut Tracer) -> bool {
    let (task, port) = tr.call(Layer::CreateTaskWithPort, create_task_with_port);
    tr.call(Layer::LedgerTake, || st.ledger.take());
    let name = tr.call(Layer::NsInsert, || st.ns.insert(port));
    c.live.push((name, task));
    c.creates += 1;
    true
}

fn terminate(st: &State, c: &mut Client, rng: &mut Rng, tr: &mut Tracer) -> bool {
    let (name, task) = c.live.swap_remove(rng.below(c.live.len()));
    let Some(port) = tr.call(Layer::NsRemove, || st.ns.remove(name)) else {
        return false;
    };
    let obj = tr.call(Layer::PortClearKernelObject, || port.clear_kernel_object());
    let destroyed = tr.call(Layer::PortDestroy, || port.destroy());
    let final_release = tr.call(Layer::LedgerRelease, || st.ledger.release());
    tr.call(Layer::RefRelease, || drop(obj));
    tr.call(Layer::FinalDrop, || drop(task));
    let probe = tr.call(Layer::MsgRpc, || {
        st.table.msg_rpc(
            &port,
            Message::new(op_ids::TASK_INFO),
            RefSemantics::Mach30,
            &st.stats,
        )
    });
    tr.call(Layer::FinalDrop, || drop(port));
    let typed = matches!(
        probe,
        Err(RpcError::Port(PortError::NotAnObjectPort | PortError::Dead))
    );
    c.terminates += 1;
    c.dead_probes += 1;
    c.dead_typed += u64::from(typed);
    c.final_releases += u64::from(final_release);
    destroyed.is_ok() && !final_release && typed
}

fn transfer(st: &State, c: &mut Client, rng: &mut Rng, tr: &mut Tracer) -> bool {
    let name = st.stable[rng.below(st.stable.len())];
    let Some(right) = tr.call(Layer::NsTranslate, || st.ns.translate(name)) else {
        return false;
    };
    let msg = Message::new(TRANSFER_MSG).with_port_right(right);
    let sent = tr.call(Layer::PortTrySend, || st.transfer.try_send(msg));
    c.sends += 1;
    let ok = match sent {
        Ok(()) => true,
        Err((back, _)) => {
            c.refused += 1;
            tr.call(Layer::RefRelease, || drop(back));
            false
        }
    };
    if c.sends.is_multiple_of(DRAIN_EVERY) {
        let got = tr.call(Layer::PortReceiveBatch, || {
            st.transfer.receive_batch(&mut c.batch, DRAIN_MAX)
        });
        c.drained += got.unwrap_or(0) as u64;
        tr.call(Layer::RefRelease, || c.batch.clear());
        return ok && got.is_ok();
    }
    ok
}

fn ping(st: &State, rng: &mut Rng, tr: &mut Tracer) -> bool {
    let name = st.stable[rng.below(st.stable.len())];
    let Some(port) = tr.call(Layer::NsTranslate, || st.ns.translate(name)) else {
        return false;
    };
    let info = tr.call(Layer::MsgRpc, || {
        st.table.msg_rpc(
            &port,
            Message::new(op_ids::TASK_INFO),
            RefSemantics::Mach30,
            &st.stats,
        )
    });
    tr.call(Layer::RefRelease, || drop(port));
    matches!(info, Ok(m) if m.id() == op_ids::TASK_INFO)
}

/// Run `rpc_churn`.
pub fn run(cfg: &RunConfig) -> RunResult {
    let (st, mut setup_times) = timed_setup(SETUP_REPS, setup);
    let mut client = Client::default();
    let mut drained_before_traced = 0;
    let op = |c: &mut Client, rng: &mut Rng, tr: &mut Tracer| {
        let roll = rng.percent();
        let (write, ok) = match roll {
            // 15% create, 15% terminate, 45% transfer, 25% ping. Creates
            // and terminates take about a microsecond, pings and most
            // transfers under half of one; with two thirds of the
            // operations fast, the median lies inside the fast cluster
            // rather than in the gap between the two, where it jumped by
            // a third from run to run.
            0..=14 if c.live.len() < LIVE_CAP => (true, create(&st, c, tr)),
            0..=29 if !c.live.is_empty() => (true, terminate(&st, c, rng, tr)),
            0..=29 => (true, create(&st, c, tr)),
            30..=74 => (true, transfer(&st, c, rng, tr)),
            _ => (false, ping(&st, rng, tr)),
        };
        Outcome { write, ok }
    };
    let phases = measure(
        cfg,
        &mut client,
        op,
        |c| drained_before_traced = c.drained,
        || setup_times.extend(timed_setup(SETUP_REPS, setup).1),
    );

    let mut r = RunResult::default();
    end_to_end(&mut r, &phases, setup_times);
    per_layer(&mut r, &phases);
    write_spans(&mut r, "rpc_churn", cfg, &phases);
    rpc_failures(&mut r, &phases, &st.stats);
    let c = &mut client;
    let (sends, refused, drained) = (c.sends, c.refused, c.drained);
    if let Some(traced) = &phases.traced {
        r.set("ipc.port.full_ratio", ratio(refused as f64, sends as f64));
        let batch_ns = traced.tracer.layer_ns(Layer::PortReceiveBatch) as f64;
        let traced_msgs = (drained - drained_before_traced) as f64;
        r.set(
            "ipc.port.receive_batch.ns_per_msg",
            ratio(batch_ns, traced_msgs),
        );
    }

    // Teardown through the same terminate path, then the stable names.
    let mut quiet = Tracer::new(false, 0, std::time::Instant::now());
    let mut teardown_rng = Rng::stream(cfg.seed, usize::MAX, 2);
    let mut teardown_ok = true;
    while !c.live.is_empty() {
        teardown_ok &= terminate(&st, c, &mut teardown_rng, &mut quiet);
    }
    let mut tail = Vec::new();
    let mut drained_tail = 0u64;
    while let Ok(n) = st.transfer.receive_batch(&mut tail, DRAIN_MAX) {
        if n == 0 {
            break;
        }
        drained_tail += n as u64;
        tail.clear();
    }
    for &name in &st.stable {
        match st.ns.remove(name) {
            Some(port) => {
                let obj = port.clear_kernel_object();
                teardown_ok &= port.destroy().is_ok() && obj.is_some();
            }
            None => teardown_ok = false,
        }
    }
    drop(st.stable_tasks);

    let (creates, terminates) = (c.creates, c.terminates);
    let (probes, typed) = (c.dead_probes, c.dead_typed);
    r.checks.check(
        "RpcStats::balanced",
        st.stats.balanced(),
        "translations == releases + consumes",
    );
    r.checks.check(
        "teardown terminated every task",
        teardown_ok && creates == terminates,
        format!("creates={creates} terminates={terminates}"),
    );
    let audit = st.ledger.drain_audit();
    let final_release = st.ledger.release();
    r.checks.check(
        "ledger drain_audit equals the creation reference",
        audit.total == 1 && !audit.pegged && final_release && c.final_releases == 0,
        format!(
            "drain_audit.total={} final_release={final_release}",
            audit.total
        ),
    );
    r.checks.check(
        "namespace empty after teardown",
        st.ns.is_empty(),
        format!("{} names left", st.ns.len()),
    );
    r.checks.check(
        "every dead-port probe returned the typed error",
        probes == typed && probes == terminates,
        format!("probes={probes} typed={typed}"),
    );
    r.checks.check(
        "transferred rights all drained",
        sends - refused == drained + drained_tail,
        format!(
            "sent={} refused={refused} drained={}",
            sends - refused,
            drained + drained_tail
        ),
    );
    r
}
