//! `vm_fault`: the §5/§7.1 VM path. A map of [`ENTRIES`] backed entries
//! over one `VmObject`; about 98% of operations fault at a random page
//! (a `ComplexLock` read hold, the object's paging-in-progress ticket,
//! and the page pool on a miss). The rest are the write class:
//! `VmMap::reclaim`, which turns resident pages back into misses, and
//! `VmMap::protect`, both under a write hold. The pool is larger than
//! the map, so a fault never waits for memory.

use std::sync::Arc;

use machk_core::ObjRef;
use machk_vm::{PagePool, VmMap, VmObject, VmProt, PAGE_SIZE};

use super::{end_to_end, measure, per_layer, write_spans};
use crate::harness::{timed_setup, Outcome, RunConfig, SETUP_REPS};
use crate::report::{ratio, RunResult};
use crate::trace::Layer;

/// Map entries.
const ENTRIES: u64 = 64;
/// Pages per entry.
const ENTRY_PAGES: u64 = 64;
/// Pool frames beyond the map's pages.
const POOL_SLACK: u32 = 1024;
/// Base address of the first entry.
const BASE: u64 = 0x1000_0000;
/// Write-class operations per thousand.
const WRITES_PER_MILLE: usize = 20;
/// Pages one reclaim may steal.
const RECLAIM_MAX: usize = 32;

struct State {
    pool: Arc<PagePool>,
    object: ObjRef<VmObject>,
    map: VmMap,
}

fn page_addr(page: u64) -> u64 {
    BASE + page * PAGE_SIZE
}

fn setup() -> State {
    let pages = ENTRIES * ENTRY_PAGES;
    let pool = Arc::new(PagePool::new(pages as u32 + POOL_SLACK));
    let object = VmObject::create();
    let map = VmMap::new(Arc::clone(&pool));
    for e in 0..ENTRIES {
        map.allocate_backed(
            page_addr(e * ENTRY_PAGES),
            ENTRY_PAGES * PAGE_SIZE,
            object.clone(),
        )
        .expect("entries are aligned and disjoint");
    }
    // Start warm: every page resident, as after a working set settled.
    for p in 0..pages {
        map.fault(page_addr(p), None)
            .expect("the pool covers the map");
    }
    State { pool, object, map }
}

#[derive(Default, Clone, Copy)]
struct Client {
    faults: u64,
    reclaims: u64,
    reclaimed: u64,
}

/// Run `vm_fault`.
pub fn run(cfg: &RunConfig) -> RunResult {
    let (st, mut setup_times) = timed_setup(SETUP_REPS, setup);
    let pages = ENTRIES * ENTRY_PAGES;
    let mut client = Client::default();
    let mut resident_before_traced = 0;
    let mut before_traced = Client::default();
    let op = |c: &mut Client, rng: &mut crate::rng::Rng, tr: &mut crate::trace::Tracer| {
        let roll = rng.below(1000);
        if roll >= WRITES_PER_MILLE {
            let addr = page_addr(rng.below(pages as usize) as u64);
            c.faults += 1;
            let ok = tr.call(Layer::VmFault, || st.map.fault(addr, None)).is_ok();
            return Outcome { write: false, ok };
        }
        let ok = if roll.is_multiple_of(2) {
            let n = tr.call(Layer::VmReclaim, || st.map.reclaim(RECLAIM_MAX));
            c.reclaims += 1;
            c.reclaimed += n as u64;
            true
        } else {
            let entry = rng.below(ENTRIES as usize) as u64;
            let prot = if rng.percent() < 50 {
                VmProt::Read
            } else {
                VmProt::ReadWrite
            };
            tr.call(Layer::VmProtect, || {
                st.map.protect(page_addr(entry * ENTRY_PAGES), prot)
            })
            .is_ok()
        };
        Outcome { write: true, ok }
    };
    let phases = measure(
        cfg,
        &mut client,
        op,
        |c| {
            resident_before_traced = st.map.resident_total();
            before_traced = *c;
        },
        || setup_times.extend(timed_setup(SETUP_REPS, setup).1),
    );

    let mut r = RunResult::default();
    end_to_end(&mut r, &phases, setup_times);
    per_layer(&mut r, &phases);
    write_spans(&mut r, "vm_fault", cfg, &phases);
    let resident_end = st.map.resident_total();
    if phases.traced.is_some() {
        let (c, b) = (&client, &before_traced);
        let faults = c.faults - b.faults;
        let reclaims = c.reclaims - b.reclaims;
        let reclaimed = c.reclaimed - b.reclaimed;
        // Every miss took one frame from the pool; reclaim is the only
        // way frames go back. So misses = growth in resident pages plus
        // pages reclaimed over the same interval.
        let misses = (resident_end + reclaimed as usize).saturating_sub(resident_before_traced);
        r.set(
            "vm.map.fault.hit_ratio",
            1.0 - ratio(misses as f64, faults as f64),
        );
        r.set(
            "vm.map.reclaim.pages_per_call",
            ratio(reclaimed as f64, reclaims as f64),
        );
    }

    let (free, total) = (st.pool.free_count(), st.pool.total() as usize);
    r.checks.check(
        "pool frames conserved (free + resident == total)",
        free + resident_end == total,
        format!("free={free} resident={resident_end} total={total}"),
    );
    let in_progress = st.object.paging_in_progress();
    r.checks.check(
        "paging_in_progress() == 0 at the end",
        in_progress == 0,
        format!("paging_in_progress={in_progress}"),
    );
    r
}
