//! A host-speed gauge, so that host times can be read at one reference
//! speed.
//!
//! On a shared machine the same pass can take 1.8× longer from one minute
//! to the next: other tenants compete for the core, its caches and memory.
//! No CPU steal shows, so CPU time slows with wall time. The gauge is a
//! small, fixed discrete-event kernel written here, independent of the
//! simulator's code: a binary-heap event queue, a hash map and random
//! updates to a 4 MiB table. It slows with the host much as the simulator
//! does: on a 2-vCPU VM, pass times and gauge times correlated at 0.92
//! (grid), 0.93 (storm_msr) and 0.82 (fleet256). A change to the simulator
//! does not change the gauge's work, so it still shows in full in a
//! reference-speed time.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The gauge's timed run on the reference host (the 2-vCPU VM the
/// benchmark was tuned on, at its fastest), seconds. Reference-speed times
/// are host times × `REFERENCE_S` ÷ the gauge's time around them.
pub const REFERENCE_S: f64 = 0.018;

/// Slots of the randomly updated table (4 MiB of `u64`).
const TABLE: usize = 1 << 19;
/// Events in flight in the queue.
const IN_FLIGHT: u32 = 4096;
/// Untimed events that warm the queue and map before each timed run.
const WARM_OPS: usize = 30_000;
/// Timed events per sample.
const OPS: usize = 150_000;

struct Kernel {
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    counts: HashMap<u64, u64>,
    table: Vec<u64>,
    rng: u64,
}

thread_local! {
    static KERNEL: RefCell<Kernel> = RefCell::new(Kernel {
        queue: BinaryHeap::new(),
        counts: HashMap::new(),
        table: (0..TABLE as u64).collect(),
        rng: 0,
    });
}

impl Kernel {
    fn next(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Processes `ops` events from a fresh queue; the same work every call.
    fn run(&mut self, ops: usize) -> u64 {
        self.queue.clear();
        self.counts.clear();
        self.rng = 0x2545_F491_4F6C_DD1D;
        for id in 0..IN_FLIGHT {
            let at = self.next() & 0xFFFF;
            self.queue.push(Reverse((at, id)));
        }
        let mut acc = 0u64;
        for _ in 0..ops {
            let Some(Reverse((at, id))) = self.queue.pop() else {
                break;
            };
            let r = self.next();
            let key = r & 0xFFFF;
            let c = self.counts.entry(key).or_insert(0);
            *c = c.wrapping_add(at);
            if r & 3 == 0 {
                self.counts.remove(&(key ^ 0x5555));
            }
            let slot = (r >> 20) as usize & (TABLE - 1);
            let v = self.table[slot];
            self.table[slot] = v.wrapping_add(at);
            acc = if v & 1 == 0 {
                acc.wrapping_add(v) ^ at
            } else {
                acc.wrapping_add(v).rotate_left(3)
            };
            self.queue.push(Reverse((at + (r & 0x3FF) + 1, id)));
        }
        acc
    }
}

/// Times one gauge run on this thread, seconds. An untimed warm-up first
/// reads the whole table and runs a short kernel, so that what the
/// simulator left in the caches does not count.
pub fn sample() -> f64 {
    KERNEL.with(|k| {
        let mut k = k.borrow_mut();
        black_box(k.table.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
        black_box(k.run(WARM_OPS));
        let t0 = Instant::now();
        black_box(k.run(OPS));
        t0.elapsed().as_secs_f64()
    })
}
