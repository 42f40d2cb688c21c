//! `rpc_ping`: the §10 read path. Each operation translates a stable
//! name and sends `TASK_INFO` to the task behind it; about 5% send a
//! `TASK_SUSPEND` + `TASK_RESUME` pair instead, which write under the
//! task's object lock and form the write class. No create, no destroy,
//! no complex lock.

use machk_core::ObjRef;
use machk_ipc::{DispatchTable, Message, Port, PortName, PortNameSpace, RefSemantics, RpcStats};
use machk_kernel::{create_task_with_port, kernel_dispatch_table, op_ids, Task};

use super::{end_to_end, measure, per_layer, rpc_failures, write_spans};
use crate::harness::{timed_setup, Outcome, RunConfig, SETUP_REPS};
use crate::report::RunResult;
use crate::trace::Layer;

/// Tasks behind the name table.
const TASKS: usize = 1024;
/// Share of operations, in percent, that are suspend/resume pairs.
const WRITE_PCT: u32 = 5;

struct State {
    table: DispatchTable,
    ns: PortNameSpace,
    names: Vec<PortName>,
    tasks: Vec<ObjRef<Task>>,
    stats: RpcStats,
}

fn setup() -> State {
    let ns = PortNameSpace::new();
    let mut names = Vec::with_capacity(TASKS);
    let mut tasks = Vec::with_capacity(TASKS);
    for _ in 0..TASKS {
        let (task, port) = create_task_with_port();
        names.push(ns.insert(port));
        tasks.push(task);
    }
    State {
        table: kernel_dispatch_table(),
        ns,
        names,
        tasks,
        stats: RpcStats::new(),
    }
}

/// Run `rpc_ping`.
pub fn run(cfg: &RunConfig) -> RunResult {
    let (st, mut setup_times) = timed_setup(SETUP_REPS, setup);
    let mut client = ();
    let rpc = |port: &ObjRef<Port>, id| {
        st.table
            .msg_rpc(port, Message::new(id), RefSemantics::Mach30, &st.stats)
    };
    let phases = measure(
        cfg,
        &mut client,
        |_, rng, tr| {
            let name = st.names[rng.below(st.names.len())];
            let write = rng.percent() < WRITE_PCT;
            let Some(port) = tr.call(Layer::NsTranslate, || st.ns.translate(name)) else {
                return Outcome { write, ok: false };
            };
            let ok = if write {
                let s = tr.call(Layer::MsgRpc, || rpc(&port, op_ids::TASK_SUSPEND));
                let r = tr.call(Layer::MsgRpc, || rpc(&port, op_ids::TASK_RESUME));
                s.is_ok() && r.is_ok()
            } else {
                let info = tr.call(Layer::MsgRpc, || rpc(&port, op_ids::TASK_INFO));
                matches!(info, Ok(m) if m.id() == op_ids::TASK_INFO)
            };
            tr.call(Layer::RefRelease, || drop(port));
            Outcome { write, ok }
        },
        |_| {},
        || setup_times.extend(timed_setup(SETUP_REPS, setup).1),
    );

    let mut r = RunResult::default();
    end_to_end(&mut r, &phases, setup_times);
    per_layer(&mut r, &phases);
    write_spans(&mut r, "rpc_ping", cfg, &phases);
    rpc_failures(&mut r, &phases, &st.stats);

    r.checks.check(
        "RpcStats::balanced",
        st.stats.balanced(),
        "translations == releases + consumes",
    );
    let suspended = st.tasks.iter().filter(|t| t.suspend_count() != 0).count();
    r.checks.check(
        "every suspend resumed",
        suspended == 0,
        format!("{suspended} of {} tasks left suspended", st.tasks.len()),
    );
    let published = st
        .names
        .iter()
        .filter(|&&n| st.ns.translate(n).is_some())
        .count();
    r.checks.check(
        "stable names still published",
        published == st.names.len() && st.ns.len() == st.names.len(),
        format!("{published} of {} translate", st.names.len()),
    );
    r
}
