//! Spans recorded from the benchmark's side of each layer call.
//!
//! The workloads wrap every call into a layer's public function in
//! [`Tracer::call`]. With tracing off that is the bare call. With
//! tracing on, the call is timed and kept as a span of the current
//! operation; when the operation ends ([`Tracer::end_op`]) its spans are
//! folded into per-layer histograms and time sums, and the operation's
//! self time (the part no layer span covers) is added to the
//! unattributed total. The spans of the first [`KEEP_OPS`] operations
//! of each client are also kept verbatim and written out when the run
//! ends; keeping every span of a run would cost gigabytes.

use std::io::Write as _;

use crate::hist::Hist;

/// A layer call the workloads time. The discriminant indexes
/// [`Layer::NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// `PortNameSpace::translate`.
    NsTranslate,
    /// `PortNameSpace::insert`.
    NsInsert,
    /// `PortNameSpace::remove`.
    NsRemove,
    /// `DispatchTable::msg_rpc`.
    MsgRpc,
    /// `Port::try_send`.
    PortTrySend,
    /// `Port::receive_batch`.
    PortReceiveBatch,
    /// `Port::clear_kernel_object`.
    PortClearKernelObject,
    /// `Port::destroy`.
    PortDestroy,
    /// `machk_kernel::create_task_with_port`.
    CreateTaskWithPort,
    /// `ShardedRefCount::take` on the benchmark's ledger.
    LedgerTake,
    /// `ShardedRefCount::release` on the benchmark's ledger.
    LedgerRelease,
    /// Dropping an `ObjRef` that is not the object's last.
    RefRelease,
    /// Dropping the last `ObjRef` of an object (its destruction).
    FinalDrop,
    /// `VmMap::fault`.
    VmFault,
    /// `VmMap::reclaim`.
    VmReclaim,
    /// `VmMap::protect`.
    VmProtect,
    /// `Engine::new`.
    EngineNew,
    /// `Engine::run`.
    EngineRun,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 18;
    /// Every layer, in discriminant order.
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::NsTranslate,
        Layer::NsInsert,
        Layer::NsRemove,
        Layer::MsgRpc,
        Layer::PortTrySend,
        Layer::PortReceiveBatch,
        Layer::PortClearKernelObject,
        Layer::PortDestroy,
        Layer::CreateTaskWithPort,
        Layer::LedgerTake,
        Layer::LedgerRelease,
        Layer::RefRelease,
        Layer::FinalDrop,
        Layer::VmFault,
        Layer::VmReclaim,
        Layer::VmProtect,
        Layer::EngineNew,
        Layer::EngineRun,
    ];
    /// Metric-name prefix of each layer: the crate area, then the call.
    pub const NAMES: [&'static str; Layer::COUNT] = [
        "ipc.namespace.translate",
        "ipc.namespace.insert",
        "ipc.namespace.remove",
        "ipc.rpc.msg_rpc",
        "ipc.port.try_send",
        "ipc.port.receive_batch",
        "ipc.port.clear_kernel_object",
        "ipc.port.destroy",
        "kernel.create_task_with_port",
        "refcount.ledger.take",
        "refcount.ledger.release",
        "refcount.objref.release",
        "refcount.final_drop",
        "vm.map.fault",
        "vm.map.reclaim",
        "vm.map.protect",
        "ipc.engine.new",
        "ipc.engine.run",
    ];

    /// The layer's metric-name prefix.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// One recorded span. Layer spans name their operation in `op`;
/// operation spans have no layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call, or `None` for the operation span itself.
    pub layer: Option<Layer>,
    /// Operation id: the client index in the top 16 bits, the client's
    /// operation sequence number below.
    pub op: u64,
    /// Start, ns since the run's epoch.
    pub start: u64,
    /// End, ns since the run's epoch.
    pub end: u64,
    /// For operation spans: whether the operation was a write.
    pub write: bool,
}

/// Operations per client whose spans are kept verbatim.
pub const KEEP_OPS: u64 = 2_000;

/// Per-client span recorder. Cheap to carry when disabled.
pub struct Tracer {
    enabled: bool,
    epoch: std::time::Instant,
    op_id: u64,
    op_start: u64,
    pending: Vec<Span>,
    /// Verbatim spans of the first [`KEEP_OPS`] operations.
    pub kept: Vec<Span>,
    /// Per-layer call durations, indexed by `Layer as usize`.
    pub layers: Vec<Hist>,
    /// Summed operation time.
    pub op_ns: u128,
    /// Summed operation self time (not covered by any layer span).
    pub self_ns: u128,
    /// Operations traced.
    pub ops: u64,
}

impl Tracer {
    /// A recorder for `client`, timing against `epoch`.
    pub fn new(enabled: bool, client: usize, epoch: std::time::Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            op_id: (client as u64) << 48,
            op_start: 0,
            pending: Vec::with_capacity(16),
            kept: Vec::new(),
            layers: if enabled {
                vec![Hist::new(); Layer::COUNT]
            } else {
                Vec::new()
            },
            op_ns: 0,
            self_ns: 0,
            ops: 0,
        }
    }

    /// Nanoseconds since the run's epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Call into `layer`, recording a span around the call when
    /// tracing is on.
    #[inline]
    pub fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.now();
        let r = f();
        let end = self.now();
        self.pending.push(Span {
            layer: Some(layer),
            op: self.op_id,
            start,
            end,
            write: false,
        });
        r
    }

    /// An operation starts at `start` (ns since the epoch).
    #[inline]
    pub fn begin_op(&mut self, start: u64) {
        self.op_start = start;
    }

    /// The current operation ended at `end`; fold its spans.
    pub fn end_op(&mut self, end: u64, write: bool) {
        if !self.enabled {
            return;
        }
        let op_ns = end.saturating_sub(self.op_start);
        let mut covered = 0u64;
        let mut last_end = self.op_start;
        for s in &self.pending {
            // The workloads call layers one after another, never nested,
            // so the children tile part of the operation without
            // overlapping and their sum is the covered time.
            debug_assert!(s.start >= last_end && s.end <= end, "overlapping spans");
            last_end = s.end;
            let d = s.end - s.start;
            covered += d;
            let l = s.layer.expect("pending spans are layer spans") as usize;
            self.layers[l].record(d);
        }
        self.op_ns += u128::from(op_ns);
        self.self_ns += u128::from(op_ns.saturating_sub(covered));
        self.ops += 1;
        if self.op_id & 0xFFFF_FFFF_FFFF < KEEP_OPS {
            self.kept.push(Span {
                layer: None,
                op: self.op_id,
                start: self.op_start,
                end,
                write,
            });
            self.kept.extend_from_slice(&self.pending);
        }
        self.pending.clear();
        self.op_id += 1;
    }

    /// Fold another recorder's aggregates (another client's, or a later
    /// segment's) into this one.
    pub fn merge(&mut self, other: Tracer) {
        if self.layers.is_empty() {
            self.layers = other.layers;
        } else {
            for (a, b) in self.layers.iter_mut().zip(other.layers.iter()) {
                a.merge(b);
            }
        }
        self.kept.extend(other.kept);
        self.op_ns += other.op_ns;
        self.self_ns += other.self_ns;
        self.ops += other.ops;
    }

    /// Summed time of every call into `layer`.
    pub fn layer_ns(&self, layer: Layer) -> u128 {
        self.layers.get(layer as usize).map_or(0, Hist::sum)
    }

    /// Calls into `layer`.
    pub fn layer_calls(&self, layer: Layer) -> u64 {
        self.layers.get(layer as usize).map_or(0, Hist::count)
    }

    /// Write the kept spans as tab-separated lines:
    /// `span parent name start_ns end_ns`. An operation span's id is
    /// its op id in hex, its parent is `-` and its name `op.read` or
    /// `op.write`; a layer span's parent is its operation's id.
    pub fn write_kept(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {header}")?;
        writeln!(out, "span\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.kept.iter().enumerate() {
            match s.layer {
                None => {
                    let name = if s.write { "op.write" } else { "op.read" };
                    writeln!(out, "{:x}\t-\t{name}\t{}\t{}", s.op, s.start, s.end)?
                }
                Some(l) => writeln!(
                    out,
                    "{:x}.{i}\t{:x}\t{}\t{}\t{}",
                    s.op,
                    s.op,
                    l.name(),
                    s.start,
                    s.end
                )?,
            }
        }
        out.flush()
    }
}
