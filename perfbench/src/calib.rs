//! Host-speed calibration.
//!
//! The hosts this benchmark runs on are shared, and their speed drifts by
//! ±25 % over tens of seconds: a fixed CPU loop drifts as much as the
//! simulator does. Each timed run is therefore bracketed by this fixed
//! kernel, and durations are reported in *reference seconds*: wall
//! seconds scaled by `REFERENCE_NS / kernel_ns`, i.e. the time the work
//! would take on a host where the kernel takes exactly `REFERENCE_NS`.
//!
//! The kernel lives in the benchmark, not in the simulator, so no change
//! to the simulator can move it. It exercises what the simulator's hot
//! loops exercise: a binary-heap event queue, FIFO queues, a hash set, a
//! k-way merge over lane heads, an append-only log and random reads and
//! writes over a freshly allocated 16 MiB table.
//!
//! `run.py` scales each invocation as a whole: the median wall-clock
//! figure over its runs times `REFERENCE_NS` over the median kernel time
//! over its runs, so one noisy kernel sample moves nothing.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::time::Instant;

use crate::probe::elapsed_ns;

/// Median kernel duration on the reference host.
pub const REFERENCE_NS: u64 = 25_000_000;

/// Kernel runs on each side of the measured work; the median is used.
const REPEATS: usize = 3;
const STEPS: u64 = 50_000;
const TABLE: usize = 1 << 22;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A fixed amount of work in fresh memory (the simulator, too, pays
/// page faults for the memory it grows); returns a checksum so none of
/// it is elided.
fn kernel() -> u64 {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let mut table = vec![1u32; TABLE];
    let mut log: Vec<[u64; 6]> = Vec::new();
    let mut events: BinaryHeap<Reverse<(u64, u64)>> = (0..32_768)
        .map(|i| Reverse((xorshift(&mut s) >> 20, i)))
        .collect();
    let mut fifos: Vec<VecDeque<u64>> = (0..16).map(|_| VecDeque::new()).collect();
    let mut lanes: Vec<u64> = (0..32).map(|_| xorshift(&mut s) >> 24).collect();
    let mut live: HashSet<u64> = HashSet::new();
    let mut acc = 0u64;
    for i in 0..STEPS {
        let Reverse((t, id)) = events.pop().expect("never empty");
        events.push(Reverse((t + (xorshift(&mut s) >> 44), id ^ i)));
        let r = xorshift(&mut s);
        let q = &mut fifos[(r & 15) as usize];
        q.push_back(r);
        if q.len() > 64 {
            acc ^= q.pop_front().expect("non-empty");
        }
        if r & 3 == 0 {
            live.insert(r >> 8);
        } else if r & 7 == 1 {
            live.remove(&(r >> 9));
        }
        // A k-way merge step: the earliest of 32 lane heads, refilled.
        let (mut best, mut at) = (u64::MAX, 0);
        for (j, &head) in lanes.iter().enumerate() {
            if head < best {
                best = head;
                at = j;
            }
        }
        lanes[at] = best + (r >> 40);
        log.push([t, id, r, acc, i, best]);
        let k = (r as usize >> 3) & (TABLE - 1);
        table[k] = table[k].wrapping_add(t as u32);
        acc = acc.wrapping_add(u64::from(table[k.wrapping_mul(7919) & (TABLE - 1)]));
    }
    acc ^ log.len() as u64 ^ live.len() as u64
}

/// Durations of `REPEATS` kernel runs, in nanoseconds.
pub fn kernel_samples() -> Vec<u64> {
    (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(kernel());
            elapsed_ns(t)
        })
        .collect()
}
