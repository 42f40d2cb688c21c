//! The host-speed reference: a fixed piece of work, built from the
//! standard library alone, whose speed the benchmark measures next to
//! the program's so that it can state the program's speed relative to
//! the host's.
//!
//! A shared host's speed drifts: on the 2-vCPU KVM guest this benchmark
//! was tuned on, which shares its cores with other tenants, the same
//! code ran 60% faster at the end of five minutes than at the start. A
//! reference op is shaped like the common core of a kernel RPC: a
//! hash-table lookup of one of 1 024 objects, an `Arc` clone, a `Mutex`
//! lock and update, an `Arc` drop, and on one op in eight a small heap
//! allocation and free. None of it is this repository's code, so no
//! change to the product crates changes it; its speed moves with the
//! host's, window by window, much as the program's does.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Objects in the reference's table.
const OBJECTS: u32 = 1024;
/// Reference ops in one timed slice.
const SLICE_OPS: u32 = 2_000;
/// Reference ops run untimed before each slice, so that the slice
/// finds its table in the caches whatever the program left there: the
/// reference measures the host, not the program's cache footprint.
const WARM_OPS: u32 = 500;

/// The nominal time of one reference op, ns: a host that runs the
/// reference at this speed has reference seconds as long as seconds.
/// The host the benchmark was tuned on took 38–71 ns.
pub const NOMINAL_OP_NS: f64 = 50.0;

/// The reference's state.
pub struct Reference {
    table: HashMap<u32, Arc<Mutex<u64>>>,
    x: u64,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

impl Reference {
    /// A reference with its table built.
    pub fn new() -> Reference {
        Reference {
            table: (0..OBJECTS)
                .map(|k| (key(k), Arc::new(Mutex::new(0))))
                .collect(),
            x: 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn ops(&mut self, n: u32) {
        let mut x = self.x;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let obj = Arc::clone(&self.table[&key((x % OBJECTS as u64) as u32)]);
            *obj.lock()
                .expect("the reference never panics holding a lock") += x & 0xff;
            if x & 7 == 0 {
                black_box(Box::new([x; 8]));
            }
            drop(obj);
        }
        self.x = black_box(x);
    }

    /// Warm the table, then time one slice: the wall time of one
    /// reference op, ns.
    pub fn op_ns(&mut self) -> f64 {
        self.ops(WARM_OPS);
        let t = Instant::now();
        self.ops(SLICE_OPS);
        t.elapsed().as_nanos() as f64 / SLICE_OPS as f64
    }
}

/// The table key of object `k`: spread over `u32` so the lookups hash
/// like a port name space's, not like a dense array index.
fn key(k: u32) -> u32 {
    k.wrapping_mul(2_654_435_761)
}
